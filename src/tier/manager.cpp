#include "tier/manager.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::tier {

namespace {

/// Race-detector key for a page's tier placement (flash entry, loc index,
/// tracked heat) — one key per page, same unit EraseEntry/StageSpill move.
inline std::uint64_t RaceKey(const cache::PageKey& key) {
  return check::AccessKey(0x71E4ull, cache::PageKeyHash{}(key));
}

}  // namespace

TierManager::TierManager(sim::Engine& engine, cache::CacheCluster& cluster,
                         Config config)
    : engine_(engine),
      cluster_(cluster),
      config_(config),
      heat_(engine, config.heat) {
  lanes_.reserve(cluster_.controller_count());
  for (std::size_t i = 0; i < cluster_.controller_count(); ++i) {
    lanes_.push_back(std::make_unique<Lane>(engine_));
  }
}

void TierManager::AttachQos(qos::Scheduler* qos, qos::TenantId tenant) {
  qos_ = qos;
  qos_tenant_ = tenant;
}

// --- Entry plumbing -----------------------------------------------------------

TierManager::Entry* TierManager::FindEntry(const cache::PageKey& key,
                                           cache::ControllerId* holder) {
  const auto it = loc_.find(key);
  if (it == loc_.end()) return nullptr;
  Lane& lane = LaneOf(it->second);
  const auto eit = lane.flash.find(key);
  NLSS_INVARIANT(kTier, eit != lane.flash.end(),
                 "loc index points at blade %u but the lane has no entry",
                 it->second);
  if (eit == lane.flash.end()) return nullptr;
  if (holder != nullptr) *holder = it->second;
  return &eit->second;
}

void TierManager::SetDirty(Lane& lane, Entry& e, bool dirty) {
  if (e.dirty == dirty) return;
  e.dirty = dirty;
  if (dirty) {
    ++lane.dirty_pages;
  } else {
    NLSS_INVARIANT(kTier, lane.dirty_pages > 0,
                   "dirty page count underflow on clean transition");
    --lane.dirty_pages;
  }
}

void TierManager::EraseEntry(cache::ControllerId holder,
                             const cache::PageKey& key) {
  Lane& lane = LaneOf(holder);
  const auto eit = lane.flash.find(key);
  if (eit == lane.flash.end()) return;
  NLSS_ACCESS(kTier, RaceKey(key), kWrite);
  Entry& e = eit->second;
  // Joined readers must not be dropped with the entry: serve them with the
  // data that was current when the entry went away.
  for (auto& w : e.waiters) {
    engine_.Schedule(0, [w = std::move(w), data = e.data]() mutable {
      w(true, std::move(data));
    });
  }
  SetDirty(lane, e, false);
  lane.flash.erase(eit);
  loc_.erase(key);
}

bool TierManager::MakeRoom(cache::ControllerId ctrl, std::uint64_t need) {
  Lane& lane = LaneOf(ctrl);
  if (need == 0) return true;
  // Coldest clean settled entries go first; key order breaks heat ties so
  // the choice is deterministic.
  std::vector<std::pair<std::uint32_t, cache::PageKey>> candidates;
  for (const auto& [key, e] : lane.flash) {
    if (e.dirty || e.state != EntryState::kReady) continue;
    // Victim ranking reads each candidate's heat: a same-tick unrelated
    // heat bump would change the sort, and with it which page is dropped.
    NLSS_ACCESS(kTier, RaceKey(key), kRead);
    candidates.emplace_back(heat_.HeatOf(key), key);
  }
  if (candidates.size() < need) return false;
  std::sort(candidates.begin(), candidates.end());
  for (std::uint64_t i = 0; i < need; ++i) {
    EraseEntry(ctrl, candidates[i].second);
    ++stats_.drops;
  }
  return true;
}

// --- Demand reads -------------------------------------------------------------

cache::BackingStore::ReadCallback TierManager::TierRead(
    cache::ControllerId ctrl, const cache::PageKey& key,
    cache::BackingStore::ReadCallback cb, obs::TraceContext ctx) {
  cache::ControllerId holder = cache::kNoController;
  Entry* e = FindEntry(key, &holder);
  if (e == nullptr) {
    ++stats_.flash_misses;
    return cb;
  }
  if (!cluster_.IsAlive(holder)) {
    ++stats_.unreachable;
    if (!e->dirty) {
      // Clean entry == disk copy: fall through and read it from disk.
      ++stats_.flash_misses;
      return cb;
    }
    // The only current copy sits behind a dead blade.  Serving the stale
    // disk version would be silent corruption — fail the read honestly.
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return nullptr;
  }
  NLSS_ACCESS(kTier, RaceKey(key), kRead);     // entry state drives the serve
  NLSS_ACCESS(kTier, RaceKey(key), kCommute);  // heat bump commutes
  heat_.Touch(key);
  ++stats_.flash_hits;
  if (e->state == EntryState::kStaging) {
    // The flash fill is still in flight: join it instead of re-fetching.
    ++stats_.joins;
    e->waiters.push_back(std::move(cb));
    return nullptr;
  }
  Lane& lane = LaneOf(holder);
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kTier, "tier.flash_read");
  util::Payload data = e->data;  // the entry may be erased underneath us
  const std::uint64_t bytes = data.size();
  if (!e->dirty) {
    // Promotion: the page is about to live in DRAM and the disk copy is
    // current, so the flash slot is redundant — move, don't replicate
    // (keeps the one-location invariant and frees flash for colder data).
    ++stats_.promotions;
    EraseEntry(holder, key);
  }
  sim::Tick hop = 0;
  if (ctrl != holder) {
    ++stats_.remote_reads;
    hop = 2 * config_.remote_hop_ns;
  }
  const sim::Tick done = lane.nvme.Acquire(
      config_.flash_read_ns +
      static_cast<sim::Tick>(static_cast<double>(bytes) *
                             config_.flash_ns_per_byte));
  engine_.ScheduleAt(done + hop,
                     [cb = std::move(cb), data = std::move(data), span] {
                       obs::EndSpan(span);
                       cb(true, data);
                     });
  return nullptr;
}

// --- Write-back absorption ----------------------------------------------------

cache::BackingStore::WriteCallback TierManager::TierWriteBack(
    cache::ControllerId ctrl, const std::vector<cache::TierPageSnap>& pages,
    const util::Payload& data, cache::BackingStore::WriteCallback cb,
    obs::TraceContext ctx) {
  Lane& lane = LaneOf(ctrl);
  const std::uint32_t page_bytes = cluster_.config().page_bytes;
  assert(data.size() == pages.size() * static_cast<std::size_t>(page_bytes));

  // A page flash-resident on another blade moves here: the write-back's
  // blade is the page's current owner, and two flash copies would break
  // the single-location invariant.
  std::uint64_t need = 0;
  bool resident_dirty = false;
  for (const cache::TierPageSnap& s : pages) {
    const auto it = loc_.find(s.key);
    if (it == loc_.end()) {
      ++need;
      continue;
    }
    if (it->second != ctrl) {
      EraseEntry(it->second, s.key);
      ++need;
      continue;
    }
    if (lane.flash.find(s.key)->second.dirty) resident_dirty = true;
  }
  const std::uint64_t occupied = lane.flash.size();
  const std::uint64_t free = config_.flash_capacity_pages > occupied
                                 ? config_.flash_capacity_pages - occupied
                                 : 0;
  if (free < need && !MakeRoom(ctrl, need - free) && !resident_dirty) {
    // Can't place the run and no page forces us to take it.  Drop any
    // resident clean copies first: after the caller's disk write they
    // would be stale, and a stale clean entry is exactly what the
    // "clean == disk" rule forbids.
    for (const cache::TierPageSnap& s : pages) {
      const auto it = loc_.find(s.key);
      if (it != loc_.end() && it->second == ctrl) {
        EraseEntry(ctrl, s.key);
        ++stats_.drops;
      }
    }
    ++stats_.declines;
    return cb;
  }
  // If a run page is already dirty in flash we must absorb even when it
  // overshoots capacity: letting the caller write disk directly would race
  // our pending demotion of the older flash data.  The demotion pipeline
  // drains the overshoot.

  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kTier, "tier.absorb");
  std::vector<std::pair<cache::PageKey, std::uint64_t>> absorbed;
  absorbed.reserve(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const cache::TierPageSnap& s = pages[i];
    // Same ghost-write audit the direct flush path runs: a cancelled write
    // id may only still own a dirty page when the cancel demonstrably
    // raced the application.
    if (dedup_ != nullptr && s.wid.valid()) {
      NLSS_INVARIANT(kTier,
                     dedup_->Lookup(s.wid) != cache::WriteState::kCancelled ||
                         dedup_->stats().late_cancels > 0,
                     "absorbing write-back of cancelled write id "
                     "(writer=%llu seq=%llu)",
                     static_cast<unsigned long long>(s.wid.writer),
                     static_cast<unsigned long long>(s.wid.seq));
    }
    NLSS_ACCESS(kTier, RaceKey(s.key), kWrite);
    Entry& e = lane.flash[s.key];
    loc_[s.key] = ctrl;
    e.data = data.Slice(i * page_bytes, page_bytes);
    SetDirty(lane, e, true);
    e.dirty_epoch = s.dirty_epoch;
    e.wid = s.wid;
    ++e.seq;
    // The NVMe program is in flight until the batched write below lands;
    // reads meanwhile join the entry instead of hitting disk.
    if (e.state == EntryState::kReady) e.state = EntryState::kStaging;
    absorbed.emplace_back(s.key, e.seq);
    heat_.Touch(s.key);
    ++stats_.writeback_absorbs;
  }
  BeginOp();
  const sim::Tick done = lane.nvme.Acquire(
      config_.flash_write_ns +
      static_cast<sim::Tick>(static_cast<double>(data.size()) *
                             config_.flash_ns_per_byte));
  engine_.ScheduleAt(done, [this, ctrl, absorbed = std::move(absorbed), span,
                            cb = std::move(cb)] {
    Lane& l = LaneOf(ctrl);
    for (const auto& [key, seq] : absorbed) {
      const auto eit = l.flash.find(key);
      if (eit == l.flash.end()) continue;  // moved/erased while in flight
      NLSS_ACCESS(kTier, RaceKey(key), kWrite);
      Entry& e = eit->second;
      NLSS_INVARIANT(kTier, e.seq >= seq,
                     "entry sequence ran backwards during absorb");
      if (e.state == EntryState::kStaging) {
        e.state = EntryState::kReady;
        for (auto& w : e.waiters) {
          engine_.Schedule(0, [w = std::move(w), data = e.data]() mutable {
            w(true, std::move(data));
          });
        }
        e.waiters.clear();
      }
    }
    obs::EndSpan(span);
    cb(true);  // durable in flash: the flush settles now
    MaybeDemote(ctrl, /*force=*/false);
    EndOp();
  });
  return nullptr;
}

// --- Clean spills & admission -------------------------------------------------

void TierManager::OnCleanEvict(cache::ControllerId ctrl,
                               const cache::PageKey& key,
                               const util::Payload& data) {
  // Opportunistic while the lane has free capacity (the whole point of a
  // flash tier is to capture what DRAM cannot hold); heat-gated only once
  // admitting means evicting something else.
  if (!LaneHasRoom(ctrl) && heat_.HeatOf(key) < config_.spill_min_heat) {
    ++stats_.spill_skips;
    return;
  }
  StageSpill(ctrl, key, data, /*admission=*/false);
}

void TierManager::OnDiskRead(cache::ControllerId ctrl,
                             const cache::PageKey& key,
                             const util::Payload& data) {
  if (!LaneHasRoom(ctrl) && heat_.HeatOf(key) < config_.admit_min_heat) {
    return;
  }
  StageSpill(ctrl, key, data, /*admission=*/true);
}

void TierManager::StageSpill(cache::ControllerId ctrl,
                             const cache::PageKey& key, util::Payload data,
                             bool admission) {
  if (loc_.find(key) != loc_.end()) return;  // already flash-resident
  Lane& lane = LaneOf(ctrl);
  if (lane.flash.size() >= config_.flash_capacity_pages &&
      !MakeRoom(ctrl, 1)) {
    return;  // flash full of dirty/in-flight data: let the page fall to disk
  }
  NLSS_ACCESS(kTier, RaceKey(key), kWrite);
  Entry& e = lane.flash[key];
  loc_[key] = ctrl;
  e.data = std::move(data);
  e.state = EntryState::kStaging;  // clean: disk already holds this data
  lane.staging.push_back(key);
  if (admission) {
    ++stats_.admits;
  } else {
    ++stats_.spills;
  }
  if (lane.staging.size() >= config_.spill_batch_pages) {
    FlushStaging(ctrl);
  } else if (lane.staging.size() == 1) {
    // Arm the one-shot age-out for this batch generation.  FlushStaging
    // bumps the generation, so a timer for an already-flushed batch is a
    // no-op and the DES queue never holds a standing timer.
    const std::uint64_t gen = lane.staging_gen;
    engine_.Schedule(config_.spill_flush_delay_ns, [this, ctrl, gen] {
      if (LaneOf(ctrl).staging_gen == gen) FlushStaging(ctrl);
    });
  }
}

void TierManager::FlushStaging(cache::ControllerId ctrl) {
  Lane& lane = LaneOf(ctrl);
  ++lane.staging_gen;
  if (lane.staging.empty()) return;
  std::vector<cache::PageKey> batch = std::move(lane.staging);
  lane.staging.clear();
  std::uint64_t bytes = 0;
  for (const cache::PageKey& key : batch) {
    const auto eit = lane.flash.find(key);
    if (eit != lane.flash.end()) bytes += eit->second.data.size();
  }
  BeginOp();
  const sim::Tick done = lane.nvme.Acquire(
      config_.flash_write_ns +
      static_cast<sim::Tick>(static_cast<double>(bytes) *
                             config_.flash_ns_per_byte));
  engine_.ScheduleAt(done, [this, ctrl, batch = std::move(batch)] {
    Lane& l = LaneOf(ctrl);
    for (const cache::PageKey& key : batch) {
      const auto eit = l.flash.find(key);
      if (eit == l.flash.end()) continue;
      Entry& e = eit->second;
      if (e.state != EntryState::kStaging) continue;
      NLSS_ACCESS(kTier, RaceKey(key), kWrite);
      e.state = EntryState::kReady;
      for (auto& w : e.waiters) {
        engine_.Schedule(0, [w = std::move(w), data = e.data]() mutable {
          w(true, std::move(data));
        });
      }
      e.waiters.clear();
    }
    MaybeDemote(ctrl, /*force=*/false);
    EndOp();
  });
}

// --- Heat & cooling -----------------------------------------------------------

void TierManager::OnAccess(cache::ControllerId ctrl, const cache::PageKey& key,
                           bool /*write*/) {
  // Heat bumps commute with each other but not with a same-tick victim
  // ranking that reads this page's heat (kRead in the scan loops).
  NLSS_ACCESS(kTier, RaceKey(key), kCommute);
  heat_.Touch(key);
  MaybeCool(ctrl, key);
}

void TierManager::MaybeCool(cache::ControllerId ctrl,
                            const cache::PageKey& skip) {
  Lane& lane = LaneOf(ctrl);
  if (engine_.now() < lane.next_cool) return;
  cache::CacheNode& node = cluster_.node(ctrl);
  const double occ = node.capacity_pages() == 0
                         ? 0.0
                         : static_cast<double>(node.size()) /
                               static_cast<double>(node.capacity_pages());
  if (occ < config_.cool_watermark) return;
  lane.next_cool = engine_.now() + config_.cool_interval_ns;
  ++stats_.cool_scans;
  // Collect steal candidates from the LRU front first — ForEach walks the
  // node in LRU order and we must not mutate the node mid-walk.
  std::vector<cache::PageKey> victims;
  std::uint32_t seen = 0;
  node.ForEach([&](const cache::PageKey& key, const cache::CacheNode::Frame& f) {
    if (seen >= config_.victim_scan_frames ||
        victims.size() >= config_.cool_batch_pages) {
      return false;
    }
    ++seen;
    if (f.dirty || f.busy || f.is_replica || key == skip) return true;
    // Cooling reads DRAM frame flags — cache-domain state, keyed like the
    // cluster's own tags so a same-tick frame mutation conflicts here.
    NLSS_ACCESS(kCache, cache::PageKeyHash{}(key), kRead);
    victims.push_back(key);
    return true;
  });
  for (const cache::PageKey& key : victims) {
    util::Payload data;
    if (!cluster_.StealCleanFrame(ctrl, key, &data)) continue;
    if (loc_.find(key) == loc_.end() &&
        (LaneHasRoom(ctrl) ||
         heat_.HeatOf(key) >= config_.spill_min_heat)) {
      ++stats_.cool_spills;
      StageSpill(ctrl, key, std::move(data), /*admission=*/false);
    } else {
      // Flash already holds it, or it is stone cold: the clean data is on
      // disk (or in flash) — discard the DRAM copy.
      ++stats_.cool_drops;
    }
  }
}

std::optional<cache::PageKey> TierManager::PickVictim(
    cache::ControllerId /*ctrl*/, const cache::CacheNode& node) {
  std::optional<cache::PageKey> best;
  std::uint32_t best_heat = 0;
  std::uint32_t seen = 0;
  node.ForEach([&](const cache::PageKey& key, const cache::CacheNode::Frame& f) {
    if (seen >= config_.victim_scan_frames) return false;
    ++seen;
    if (f.dirty || f.busy || f.is_replica) return true;
    NLSS_ACCESS(kTier, RaceKey(key), kRead);
    const std::uint32_t h = heat_.HeatOf(key);
    if (!best || h < best_heat) {
      best = key;
      best_heat = h;
    }
    return true;
  });
  return best;
}

// --- Demotion pipeline --------------------------------------------------------

void TierManager::MaybeDemote(cache::ControllerId ctrl, bool force) {
  Lane& lane = LaneOf(ctrl);
  if (lane.demote_inflight) return;
  if (!cluster_.IsAlive(ctrl)) return;  // resumes after revival
  const std::uint64_t high = static_cast<std::uint64_t>(
      config_.demote_watermark *
      static_cast<double>(config_.flash_capacity_pages));
  if (!force && lane.flash.size() < high) return;
  const std::uint64_t target = force
                                   ? 0
                                   : static_cast<std::uint64_t>(
                                         config_.demote_target *
                                         static_cast<double>(
                                             config_.flash_capacity_pages));
  // Coldest settled dirty entries first (key order on ties).
  std::vector<std::pair<std::uint32_t, cache::PageKey>> dirty;
  for (const auto& [key, e] : lane.flash) {
    if (!e.dirty || e.state != EntryState::kReady) continue;
    NLSS_ACCESS(kTier, RaceKey(key), kRead);
    dirty.emplace_back(heat_.HeatOf(key), key);
  }
  if (dirty.empty()) {
    if (!force) TrimClean(ctrl, target);
    return;
  }
  std::sort(dirty.begin(), dirty.end());
  std::vector<cache::PageKey> batch;
  const std::size_t n = std::min<std::size_t>(
      dirty.size(), force ? dirty.size() : config_.demote_batch_pages);
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) batch.push_back(dirty[i].second);

  lane.demote_inflight = true;
  BeginOp();
  obs::TraceContext root;
  if (tracer_ != nullptr) {
    root = tracer_->StartTrace(obs::Layer::kTier, "tier.demote", "tier");
  }
  auto finish = [this, ctrl, force, target, root](bool ok) {
    Lane& l = LaneOf(ctrl);
    l.demote_inflight = false;
    if (root.sampled()) root.tracer->EndTrace(root, ok);
    if (!force && l.flash.size() > target) TrimClean(ctrl, target);
    MaybeDemote(ctrl, force);
    EndOp();
  };
  const std::uint64_t cost_bytes =
      static_cast<std::uint64_t>(batch.size()) * cluster_.config().page_bytes;
  SubmitDemote(ctrl, cost_bytes,
               [this, ctrl, batch = std::move(batch),
                finish = std::move(finish)](qos::Scheduler::Done done) mutable {
                 IssueDemote(ctrl, std::move(batch),
                             [done = std::move(done),
                              finish = std::move(finish)](bool ok) {
                               if (done) done(ok);
                               finish(ok);
                             });
               });
}

void TierManager::SubmitDemote(cache::ControllerId ctrl,
                               std::uint64_t cost_bytes,
                               qos::Scheduler::Launch launch) {
  if (qos_ == nullptr) {
    launch(nullptr);
    return;
  }
  // The whole batch is one QoS admission: demotion is background traffic
  // and must queue behind foreground tenants' tokens.  A rejection hands
  // the batch back for a retry after a deterministic backoff (the
  // MetaService pattern).
  launch = qos_->Submit(ctrl % qos_->blades(), qos_tenant_, cost_bytes,
                        std::move(launch), {});
  if (!launch) return;
  ++stats_.qos_rejects;
  engine_.Schedule(config_.qos_retry_delay_ns,
                   [this, ctrl, cost_bytes,
                    launch = std::move(launch)]() mutable {
                     SubmitDemote(ctrl, cost_bytes, std::move(launch));
                   });
}

void TierManager::IssueDemote(cache::ControllerId ctrl,
                              std::vector<cache::PageKey> batch,
                              util::Function<void(bool)> done) {
  Lane& lane = LaneOf(ctrl);
  // Flash read of the batch, then one backing write per page (pages in a
  // demote batch are rarely disk-contiguous, unlike a flush run).
  std::uint64_t bytes = 0;
  std::vector<std::tuple<cache::PageKey, std::uint64_t, util::Payload>> work;
  work.reserve(batch.size());
  for (const cache::PageKey& key : batch) {
    const auto eit = lane.flash.find(key);
    if (eit == lane.flash.end() || !eit->second.dirty ||
        eit->second.state != EntryState::kReady) {
      continue;  // raced an erase/absorb since selection
    }
    Entry& e = eit->second;
    NLSS_ACCESS(kTier, RaceKey(key), kWrite);
    e.state = EntryState::kDemoting;
    bytes += e.data.size();
    work.emplace_back(key, e.seq, e.data);
  }
  if (work.empty()) {
    engine_.Schedule(0, [done = std::move(done)] {
      if (done) done(true);
    });
    return;
  }
  const sim::Tick read_done = lane.nvme.Acquire(
      config_.flash_read_ns +
      static_cast<sim::Tick>(static_cast<double>(bytes) *
                             config_.flash_ns_per_byte));
  engine_.ScheduleAt(read_done, [this, ctrl, work = std::move(work),
                                 done = std::move(done)]() mutable {
    auto join = std::make_shared<util::Join>(static_cast<int>(work.size()),
                                             std::move(done));
    for (auto& [key, seq, data] : work) {
      cluster_.TierBackingWrite(
          ctrl, key, data,
          [this, ctrl, key, seq, join](bool ok) {
            Lane& l = LaneOf(ctrl);
            const auto eit = l.flash.find(key);
            if (eit != l.flash.end()) {
              Entry& e = eit->second;
              // Sequence-guarded: the e.seq == seq check re-validates the
              // demote snapshot (stale_demotes path otherwise), so this
              // completion converges against any same-tick content access.
              NLSS_ACCESS(kTier, check::EpochGuardedKey(RaceKey(key)),
                          kWrite);
              if (e.state == EntryState::kDemoting) e.state = EntryState::kReady;
              NLSS_INVARIANT(kTier, e.seq >= seq,
                             "entry sequence ran backwards during demote");
              if (ok && e.seq == seq && e.dirty) {
                // Disk now holds exactly what we read: the entry is clean.
                SetDirty(l, e, false);
                ++stats_.demotions;
              } else if (ok) {
                // A newer write-back absorbed meanwhile; its data is still
                // only in flash, so the entry must stay dirty.
                ++stats_.stale_demotes;
              }
            }
            join->Arrive(ok);
          });
    }
  });
}

void TierManager::TrimClean(cache::ControllerId ctrl,
                            std::uint64_t target_pages) {
  Lane& lane = LaneOf(ctrl);
  if (lane.flash.size() <= target_pages) return;
  const std::uint64_t excess = lane.flash.size() - target_pages;
  std::vector<std::pair<std::uint32_t, cache::PageKey>> candidates;
  for (const auto& [key, e] : lane.flash) {
    if (e.dirty || e.state != EntryState::kReady) continue;
    // Victim ranking reads each candidate's heat: a same-tick unrelated
    // heat bump would change the sort, and with it which page is dropped.
    NLSS_ACCESS(kTier, RaceKey(key), kRead);
    candidates.emplace_back(heat_.HeatOf(key), key);
  }
  std::sort(candidates.begin(), candidates.end());
  const std::uint64_t n =
      std::min<std::uint64_t>(excess, candidates.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    EraseEntry(ctrl, candidates[i].second);
    ++stats_.drops;
  }
}

// --- Drain (FlushAll durability) ----------------------------------------------

bool TierManager::HasDirty() const {
  for (const auto& lane : lanes_) {
    if (lane->dirty_pages > 0) return true;
  }
  return false;
}

void TierManager::DrainDirty(util::Function<void(bool)> cb) {
  drain_waiters_.push_back(std::move(cb));
  for (cache::ControllerId c = 0; c < lanes_.size(); ++c) {
    FlushStaging(c);
  }
  CheckDrain();
}

void TierManager::EndOp() {
  NLSS_INVARIANT(kTier, pending_ops_ > 0, "pending op count underflow");
  --pending_ops_;
  CheckDrain();
}

void TierManager::CheckDrain() {
  if (drain_waiters_.empty()) return;
  bool dirty_reachable = false;
  for (cache::ControllerId c = 0; c < lanes_.size(); ++c) {
    Lane& lane = *lanes_[c];
    if (lane.dirty_pages == 0 || !cluster_.IsAlive(c)) continue;
    dirty_reachable = true;
    if (!lane.demote_inflight) MaybeDemote(c, /*force=*/true);
  }
  if (dirty_reachable || pending_ops_ > 0) return;
  // Dirty entries behind dead blades stay in (persistent) flash and resume
  // demotion after revival; they cannot block a drain forever.
  std::vector<util::Function<void(bool)>> waiters = std::move(drain_waiters_);
  drain_waiters_.clear();
  for (auto& w : waiters) {
    engine_.Schedule(0, [w = std::move(w)] { w(true); });
  }
}

// --- Introspection & metrics --------------------------------------------------

std::uint64_t TierManager::FlashPages(cache::ControllerId ctrl) const {
  return lanes_[ctrl]->flash.size();
}

std::uint64_t TierManager::FlashDirtyPages(cache::ControllerId ctrl) const {
  return lanes_[ctrl]->dirty_pages;
}

void TierManager::AttachObs(obs::Hub* hub) {
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  m.AddCallback("nlss_tier_flash_hits_total",
                "Demand reads served from the flash tier",
                [this] { return static_cast<double>(stats_.flash_hits); });
  m.AddCallback("nlss_tier_flash_misses_total",
                "Demand reads that fell through to disk",
                [this] { return static_cast<double>(stats_.flash_misses); });
  m.AddCallback("nlss_tier_spills_total",
                "Clean DRAM evictions written to flash",
                [this] { return static_cast<double>(stats_.spills); });
  m.AddCallback("nlss_tier_admits_total",
                "Disk reads admitted into flash by heat",
                [this] { return static_cast<double>(stats_.admits); });
  m.AddCallback(
      "nlss_tier_absorbs_total", "Dirty write-back pages absorbed into flash",
      [this] { return static_cast<double>(stats_.writeback_absorbs); });
  m.AddCallback("nlss_tier_demotions_total",
                "Dirty flash pages demoted to disk",
                [this] { return static_cast<double>(stats_.demotions); });
  m.AddCallback("nlss_tier_promotions_total",
                "Clean flash hits promoted up to DRAM",
                [this] { return static_cast<double>(stats_.promotions); });
  m.AddCallback("nlss_tier_drops_total",
                "Clean flash entries evicted to make room",
                [this] { return static_cast<double>(stats_.drops); });
  m.AddCallback("nlss_tier_joins_total",
                "Reads that joined an in-flight flash fill",
                [this] { return static_cast<double>(stats_.joins); });
  m.AddCallback("nlss_tier_stale_demotes_total",
                "Demotions that raced a newer write-back (stayed dirty)",
                [this] { return static_cast<double>(stats_.stale_demotes); });
  m.AddCallback("nlss_tier_heat_tracked",
                "Pages with a live heat cell",
                [this] { return static_cast<double>(heat_.tracked()); });
  for (cache::ControllerId c = 0; c < lanes_.size(); ++c) {
    const obs::Labels labels = {{"blade", std::to_string(c)}};
    m.AddCallback(
        "nlss_tier_flash_pages", "Flash-resident pages on this blade",
        [this, c] { return static_cast<double>(lanes_[c]->flash.size()); },
        labels);
    m.AddCallback(
        "nlss_tier_flash_dirty_pages",
        "Flash pages holding the only durable copy",
        [this, c] { return static_cast<double>(lanes_[c]->dirty_pages); },
        labels);
  }
}

}  // namespace nlss::tier
