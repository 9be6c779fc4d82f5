// A RAID group: asynchronous block I/O over member disks with parity
// protection, degraded-mode reconstruction, and rebuild support.
//
// Request path per stripe:
//   * healthy reads touch only the disks holding the requested data units;
//   * degraded reads fetch the surviving units and reconstruct via P (XOR)
//     or Q (Reed-Solomon) as available;
//   * full-stripe writes compute parity directly; partial writes use a
//     fetch-merge-recompute path (reconstruct-write);
//   * every stripe-level operation holds a per-stripe lock, so foreground
//     I/O and rebuild never interleave within one stripe.
//
// Parity computation can be charged to a sim::Resource (the owning
// controller's compute engine), which is how the rebuild-distribution
// experiments observe controller load.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "disk/disk.h"
#include "obs/trace.h"
#include "raid/layout.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "util/function.h"
#include "util/payload.h"

namespace nlss::raid {

class RaidGroup {
 public:
  struct Config {
    RaidLevel level = RaidLevel::kRaid5;
    std::uint32_t unit_blocks = 16;          // 64 KiB units at 4 KiB blocks
    sim::Resource* compute = nullptr;        // optional parity-compute engine
    double parity_ns_per_byte = 0.5;         // ~2 GB/s XOR engine
  };

  using ReadCallback = util::Function<void(bool ok, util::Payload data)>;
  using WriteCallback = util::Function<void(bool ok)>;

  RaidGroup(sim::Engine& engine, std::vector<disk::Disk*> disks,
            const Config& config);

  /// Linear data-block address space of the group.
  std::uint64_t DataCapacityBlocks() const;
  std::uint32_t block_size() const { return block_size_; }
  const Layout& layout() const { return layout_; }

  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {});
  void WriteBlocks(std::uint64_t block, const util::Payload& data,
                   WriteCallback cb, obs::TraceContext ctx = {});

  // --- Health and rebuild ------------------------------------------------

  /// Member states as the group currently believes them.
  enum class MemberState : std::uint8_t { kLive, kFailed, kRebuilding };

  /// Re-examine disks and mark newly failed members.  Called internally on
  /// every operation; exposed for tests and the rebuild engine.
  void RefreshMemberStates();

  MemberState member_state(std::uint32_t i) const { return members_[i]; }
  unsigned UnreadableCount() const;
  bool Operational() const {
    return UnreadableCount() <= FaultTolerance(layout_.level(),
                                               layout_.width());
  }

  /// Transition a failed member (whose Disk was Replace()d) to rebuilding.
  void BeginRebuild(std::uint32_t disk_index);

  /// Reconstruct the unit of `stripe` living on `disk_index` (which must be
  /// kRebuilding) and write it there.
  void RebuildStripe(std::uint64_t stripe, std::uint32_t disk_index,
                     WriteCallback cb);

  /// Mark a rebuilding member live again (all stripes rebuilt).
  void FinishRebuild(std::uint32_t disk_index);

  std::uint64_t StripeCount() const;
  disk::Disk& disk(std::uint32_t i) { return *disks_[i]; }
  std::uint32_t width() const { return layout_.width(); }

  /// Bytes of parity/reconstruction compute charged so far.
  std::uint64_t compute_bytes() const { return compute_bytes_; }

 private:
  struct StripeData {
    bool ok = false;
    std::vector<util::Payload> units;  // one per data unit, full-size
  };
  using FetchCallback = util::Function<void(StripeData)>;
  /// A stripe read's result: the requested range as views, in order.
  using PartsCallback =
      util::Function<void(bool ok, std::vector<util::Payload> parts)>;

  /// True if the member can be read from (live only).
  bool Readable(std::uint32_t i) const {
    return members_[i] == MemberState::kLive;
  }
  /// True if the member should receive writes (live or rebuilding).
  bool Writable(std::uint32_t i) const {
    return members_[i] != MemberState::kFailed;
  }

  // Per-stripe lock manager.
  void LockStripe(std::uint64_t stripe, util::Function<void()> grant);
  void UnlockStripe(std::uint64_t stripe);

  /// Charge parity compute and run `next` when the engine frees up.
  void Compute(std::uint64_t bytes, util::Function<void()> next);

  /// Obtain all data units of a stripe, reconstructing as needed.
  /// Caller must hold the stripe lock.
  void FetchAllData(std::uint64_t stripe, FetchCallback cb,
                    obs::TraceContext ctx = {});

  /// Reconstruct missing data units given surviving raw units.  raw[i]
  /// holds disk i's unit (empty if unreadable).  Returns false if too many
  /// members are missing.
  bool Reconstruct(std::uint64_t stripe, std::vector<util::Payload>& raw,
                   std::vector<util::Payload>& data_out);

  // Stripe-granular operations (assume lock held; release it on completion).
  // A write's `src` is exactly the `block_count` blocks it stores.
  void StripeRead(std::uint64_t stripe, std::uint32_t first_block,
                  std::uint32_t block_count, PartsCallback done,
                  obs::TraceContext ctx = {});
  void StripeWrite(std::uint64_t stripe, std::uint32_t first_block,
                   std::uint32_t block_count, util::Payload src,
                   util::Function<void(bool)> done, obs::TraceContext ctx = {});
  void StripeWriteRaid01(std::uint64_t stripe, std::uint32_t first_block,
                         std::uint32_t block_count, const util::Payload& src,
                         util::Function<void(bool)> done,
                         obs::TraceContext ctx = {});
  void StripeWriteParity(std::uint64_t stripe, std::uint32_t first_block,
                         std::uint32_t block_count, util::Payload src,
                         util::Function<void(bool)> done,
                         obs::TraceContext ctx = {});

  /// P over full data units as a deferred XOR of them, and RAID-6's Q
  /// computed now.
  void ComputeParity(const std::vector<util::Payload>& data, util::Payload& p,
                     util::Payload& q) const;

  std::uint32_t unit_bytes() const {
    return layout_.unit_blocks() * block_size_;
  }

  sim::Engine& engine_;
  std::vector<disk::Disk*> disks_;
  Layout layout_;
  Config config_;
  std::uint32_t block_size_;
  std::vector<MemberState> members_;
  std::map<std::uint64_t, std::deque<util::Function<void()>>> stripe_locks_;
  std::uint64_t compute_bytes_ = 0;
};

}  // namespace nlss::raid
