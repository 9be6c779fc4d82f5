// TierManager: workload-adaptive DRAM -> flash -> disk placement (E19).
//
// Each controller blade gains an NVMe-class flash lane between its DRAM
// cache and the RAID backing store.  The manager implements the cluster's
// TierHook:
//
//   demand miss  -> flash lookup before disk (local or one fabric hop),
//   write-back   -> absorbed into flash (durable there, demoted to disk
//                   later by the async pipeline),
//   clean evict  -> warm pages spill to flash, cold pages fall to disk,
//   disk read    -> heat-gated admission copies re-read pages into flash,
//   cooling      -> paced scans steal cold clean DRAM frames early
//                   (ScaleStore-style cooling phase) so eviction never
//                   stalls a foreground miss.
//
// Placement decisions come from the epoch-decayed HeatTracker, never from
// wall-clock or RNG state, and every map is ordered, so two same-seed runs
// make identical placement decisions.  The pipeline is demand-driven: the
// only self-scheduled event is the one-shot staging age-out timer, armed
// only while a spill batch is buffered, so an idle tier never keeps the
// DES queue alive.
//
// Durability rules (checked under check::Subsystem::kTier):
//   - a page has at most one flash location cluster-wide (loc_ index);
//   - a clean flash entry always equals the disk copy (freely droppable);
//   - dirty data leaves flash only via demotion, and a demotion completion
//     never marks an entry clean if a newer write-back landed meanwhile
//     (per-entry sequence numbers order demote-vs-rewrite);
//   - absorbed write-backs carry their WriteId and are audited against the
//     exactly-once dedup index exactly like direct disk flushes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cluster.h"
#include "cache/dedup.h"
#include "cache/tierhook.h"
#include "cache/types.h"
#include "obs/hub.h"
#include "obs/trace.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "tier/heat.h"
#include "util/function.h"
#include "util/payload.h"

namespace nlss::tier {

struct Config {
  /// Master switch: SystemConfig leaves it false so every existing bench
  /// and test keeps bit-identical digests.
  bool enabled = false;

  // --- Flash device model (per blade) ------------------------------------
  std::uint64_t flash_capacity_pages = 8192;
  sim::Tick flash_read_ns = 25 * 1000;   // NVMe read access
  sim::Tick flash_write_ns = 30 * 1000;  // NVMe program
  double flash_ns_per_byte = 0.5;        // ~2 GB/s per-blade flash feed
  /// One-way fabric hop charged when a blade reads a peer's flash.
  sim::Tick remote_hop_ns = 10 * 1000;

  // --- Admission / spill policy -------------------------------------------
  /// Decayed heat a clean DRAM eviction needs to spill to flash.
  std::uint32_t spill_min_heat = 4;
  /// Decayed heat a disk read needs for flash admission.
  std::uint32_t admit_min_heat = 8;
  /// Clean spills are batched into one flash write of up to this many pages.
  std::uint32_t spill_batch_pages = 8;
  /// Age-out for a partial spill batch (one-shot timer, armed on demand).
  sim::Tick spill_flush_delay_ns = 200 * 1000;

  // --- Demotion (flash -> disk) pipeline ----------------------------------
  /// Occupancy fraction that starts demotion / clean trimming.
  double demote_watermark = 0.90;
  /// Occupancy fraction demotion drives the lane back down to.
  double demote_target = 0.75;
  std::uint32_t demote_batch_pages = 8;
  /// Retry delay when QoS admission bounces a demotion batch.
  sim::Tick qos_retry_delay_ns = 500 * 1000;

  // --- Cooling (DRAM pre-eviction) ----------------------------------------
  /// Minimum simulated time between cooling scans per blade.
  sim::Tick cool_interval_ns = 1 * 1000 * 1000;
  /// DRAM occupancy fraction that makes a cooling scan worthwhile.
  double cool_watermark = 0.95;
  /// Max frames stolen per cooling scan.
  std::uint32_t cool_batch_pages = 16;
  /// LRU-front window examined by cooling scans and PickVictim.
  std::uint32_t victim_scan_frames = 64;

  HeatTracker::Config heat;
};

struct Stats {
  std::uint64_t flash_hits = 0;        // demand reads served from flash
  std::uint64_t flash_misses = 0;      // demand reads that fell to disk
  std::uint64_t remote_reads = 0;      // flash hits that crossed blades
  std::uint64_t joins = 0;             // reads that joined an in-flight fill
  std::uint64_t unreachable = 0;       // flash entries behind a dead blade
  std::uint64_t spills = 0;            // clean evictions written to flash
  std::uint64_t admits = 0;            // disk reads admitted to flash
  std::uint64_t writeback_absorbs = 0; // dirty pages absorbed from flushes
  std::uint64_t promotions = 0;        // clean flash hits moved up to DRAM
  std::uint64_t demotions = 0;         // dirty pages written down to disk
  std::uint64_t stale_demotes = 0;     // demote raced a newer write-back
  std::uint64_t drops = 0;             // clean entries evicted from flash
  std::uint64_t spill_skips = 0;       // evictions too cold for flash
  std::uint64_t cool_scans = 0;
  std::uint64_t cool_spills = 0;       // cooling steals spilled to flash
  std::uint64_t cool_drops = 0;        // cooling steals discarded (cold)
  std::uint64_t declines = 0;          // write-back runs the tier refused
  std::uint64_t qos_rejects = 0;       // demotion batches bounced (retried)
};

class TierManager final : public cache::TierHook {
 public:
  TierManager(sim::Engine& engine, cache::CacheCluster& cluster,
              Config config);

  /// Route demotion batches through QoS admission as `tenant` (background
  /// class).  Pass nullptr to detach.
  void AttachQos(qos::Scheduler* qos, qos::TenantId tenant);
  /// Export nlss_tier_* metrics.  Pass nullptr to detach.
  void AttachObs(obs::Hub* hub);
  /// Root background demotion traces ("tier.demote").  Nullable.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Audit-only view of the write idempotency index (nullable).
  void SetDedupIndex(const cache::WriteDedupIndex* dedup) { dedup_ = dedup; }

  // --- TierHook -----------------------------------------------------------
  cache::BackingStore::ReadCallback TierRead(
      cache::ControllerId ctrl, const cache::PageKey& key,
      cache::BackingStore::ReadCallback cb, obs::TraceContext ctx) override;
  cache::BackingStore::WriteCallback TierWriteBack(
      cache::ControllerId ctrl, const std::vector<cache::TierPageSnap>& pages,
      const util::Payload& data, cache::BackingStore::WriteCallback cb,
      obs::TraceContext ctx) override;
  void OnCleanEvict(cache::ControllerId ctrl, const cache::PageKey& key,
                    const util::Payload& data) override;
  void OnDiskRead(cache::ControllerId ctrl, const cache::PageKey& key,
                  const util::Payload& data) override;
  void OnAccess(cache::ControllerId ctrl, const cache::PageKey& key,
                bool write) override;
  std::optional<cache::PageKey> PickVictim(cache::ControllerId ctrl,
                                           const cache::CacheNode& node)
      override;
  void DrainDirty(util::Function<void(bool)> cb) override;

  // --- Introspection ------------------------------------------------------
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const HeatTracker& heat() const { return heat_; }
  std::size_t lanes() const { return lanes_.size(); }
  std::uint64_t FlashPages(cache::ControllerId ctrl) const;
  std::uint64_t FlashDirtyPages(cache::ControllerId ctrl) const;
  std::uint64_t TotalFlashPages() const { return loc_.size(); }
  /// True when some flash entry is the only durable copy of its page.
  bool HasDirty() const;

 private:
  enum class EntryState : std::uint8_t {
    kReady,     // data durable in flash
    kStaging,   // flash write in flight (reads join via waiters)
    kDemoting,  // disk write in flight (reads still served from flash)
  };

  struct Entry {
    util::Payload data;
    bool dirty = false;
    EntryState state = EntryState::kReady;
    /// Bumped on every absorb; demote completions compare against their
    /// captured value so a raced rewrite never gets marked clean.
    std::uint64_t seq = 0;
    std::uint64_t dirty_epoch = 0;
    cache::WriteId wid;
    std::vector<cache::BackingStore::ReadCallback> waiters;
  };

  struct Lane {
    // Ordered: scans feed placement decisions and therefore the digest.
    std::map<cache::PageKey, Entry> flash;
    sim::Resource nvme;
    std::vector<cache::PageKey> staging;  // spill batch awaiting its write
    std::uint64_t staging_gen = 0;        // invalidates stale age-out timers
    std::uint64_t dirty_pages = 0;
    bool demote_inflight = false;
    sim::Tick next_cool = 0;
    explicit Lane(sim::Engine& e) : nvme(e) {}
  };

  Lane& LaneOf(cache::ControllerId ctrl) { return *lanes_[ctrl]; }
  bool LaneHasRoom(cache::ControllerId ctrl) {
    return LaneOf(ctrl).flash.size() < config_.flash_capacity_pages;
  }
  Entry* FindEntry(const cache::PageKey& key, cache::ControllerId* holder);

  void SetDirty(Lane& lane, Entry& e, bool dirty);
  /// Erase `key` from its lane, serving any staged read joiners first.
  void EraseEntry(cache::ControllerId holder, const cache::PageKey& key);
  /// Evict up to `need` cold clean kReady entries; true if room was made.
  bool MakeRoom(cache::ControllerId ctrl, std::uint64_t need);

  /// Buffer one clean page into the lane's spill batch (installs the entry
  /// as kStaging immediately so concurrent reads can join).
  void StageSpill(cache::ControllerId ctrl, const cache::PageKey& key,
                  util::Payload data, bool admission);
  void FlushStaging(cache::ControllerId ctrl);

  void MaybeCool(cache::ControllerId ctrl, const cache::PageKey& skip);
  void MaybeDemote(cache::ControllerId ctrl, bool force);
  /// Admit one demotion batch through QoS (direct when detached).
  void SubmitDemote(cache::ControllerId ctrl, std::uint64_t cost_bytes,
                    qos::Scheduler::Launch launch);
  void IssueDemote(cache::ControllerId ctrl,
                   std::vector<cache::PageKey> batch,
                   util::Function<void(bool)> done);
  /// Drop clean cold entries until the lane is at/below `target_pages`.
  void TrimClean(cache::ControllerId ctrl, std::uint64_t target_pages);

  void BeginOp() { ++pending_ops_; }
  void EndOp();
  void CheckDrain();

  sim::Engine& engine_;
  cache::CacheCluster& cluster_;
  Config config_;
  HeatTracker heat_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Cluster-wide single-location index: page -> holding blade.
  std::map<cache::PageKey, cache::ControllerId> loc_;
  qos::Scheduler* qos_ = nullptr;
  qos::TenantId qos_tenant_ = qos::kDefaultTenant;
  obs::Tracer* tracer_ = nullptr;
  const cache::WriteDedupIndex* dedup_ = nullptr;
  Stats stats_;
  std::uint64_t pending_ops_ = 0;  // in-flight flash writes + demote batches
  std::vector<util::Function<void(bool)>> drain_waiters_;
};

}  // namespace nlss::tier
