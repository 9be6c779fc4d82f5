#include "cache/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <memory>

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::cache {
namespace {

/// Race-detector key for a page: every NLSS_ACCESS in the cache layer keys
/// on the page identity, the unit the directory protocol serializes on.
inline std::uint64_t RaceKey(const PageKey& key) {
  return PageKeyHash{}(key);
}

}  // namespace

CacheCluster::CacheCluster(sim::Engine& engine, net::Fabric& fabric,
                           std::vector<net::NodeId> controller_nodes,
                           Config config)
    : engine_(engine), fabric_(fabric), config_(config) {
  assert(!controller_nodes.empty());
  assert(config_.replication >= 1);
  for (std::size_t i = 0; i < controller_nodes.size(); ++i) {
    ctrls_.push_back(std::make_unique<Controller>(
        controller_nodes[i], config_.node_capacity_pages, engine_));
    live_.push_back(static_cast<ControllerId>(i));
  }
  dir_.resize(ctrls_.size());
  extra_.resize(ctrls_.size());
}

void CacheCluster::RegisterVolume(std::uint32_t volume, BackingStore* backing) {
  assert(backing != nullptr);
  assert(config_.page_bytes % backing->block_size() == 0);
  volumes_[volume] = backing;
}

ControllerId CacheCluster::HomeOf(const PageKey& key) const {
  assert(!live_.empty());
  return live_[PageKeyHash{}(key) % live_.size()];
}

std::uint32_t CacheCluster::PageBlocks(std::uint32_t volume) const {
  return config_.page_bytes / volumes_.at(volume)->block_size();
}

void CacheCluster::Msg(ControllerId from, ControllerId to, std::uint64_t bytes,
                       util::Function<void()> delivered, Failure on_drop,
                       obs::TraceContext ctx) {
  fabric_.Send(ctrls_[from]->node, ctrls_[to]->node, bytes,
               std::move(delivered), std::move(on_drop), ctx);
}

// --- Directory entry serialization ------------------------------------------

void CacheCluster::AcquireEntry(ControllerId home, const PageKey& key,
                                util::Function<void()> fn) {
  DirEntry& e = dir_[home][key];
  if (e.busy) {
    e.waiters.push_back(std::move(fn));
  } else {
    e.busy = true;
    engine_.Schedule(0, std::move(fn));
  }
}

void CacheCluster::ReleaseEntry(ControllerId home, const PageKey& key) {
  auto it = dir_[home].find(key);
  if (it == dir_[home].end()) return;
  DirEntry& e = it->second;
  if (!e.busy) return;  // tolerated: stale release after directory rebuild
  if (!e.waiters.empty()) {
    auto next = std::move(e.waiters.front());
    e.waiters.pop_front();
    engine_.Schedule(0, std::move(next));
    return;
  }
  e.busy = false;
  if (e.owner == kNoController && e.sharers.empty()) {
    dir_[home].erase(it);
  }
}

// --- Frame bookkeeping -------------------------------------------------------

CacheCluster::FrameExtra& CacheCluster::Extra(ControllerId ctrl,
                                              const PageKey& key) {
  return extra_[ctrl][key];
}

void CacheCluster::EraseExtra(ControllerId ctrl, const PageKey& key) {
  extra_[ctrl].erase(key);
}

bool CacheCluster::DirtyElsewhere(ControllerId except,
                                  const PageKey& key) const {
  for (std::size_t c = 0; c < ctrls_.size(); ++c) {
    if (static_cast<ControllerId>(c) == except || !ctrls_[c]->alive) continue;
    const CacheNode::Frame* f = ctrls_[c]->cache.Find(key);
    if (f != nullptr && f->dirty && !f->is_replica) return true;
  }
  return false;
}

void CacheCluster::EnsureRoom(ControllerId ctrl) {
  CacheNode& cache = ctrls_[ctrl]->cache;
  while (cache.Full()) {
    // Prefer clean victims: evict immediately.  With a tier attached the
    // victim is the coldest clean frame (tracked heat) instead of plain
    // LRU, and its data is offered to the flash tier on the way out.
    std::optional<PageKey> victim;
    if (tier_ != nullptr) victim = tier_->PickVictim(ctrl, cache);
    if (!victim) victim = cache.ChooseVictim(/*require_clean=*/true);
    if (victim) {
      if (tier_ != nullptr) {
        const CacheNode::Frame* vf = cache.Find(*victim);
        if (vf != nullptr) tier_->OnCleanEvict(ctrl, *victim, vf->data);
      }
      // Local frame lifecycle, keyed per controller: the victim was
      // re-checked clean in THIS event (atomic), and a clean frame is
      // never the sole copy, so erasing it commutes with directory-
      // serialized content traffic on the page.  Only another touch of
      // this controller's frame table for the page would conflict.
      NLSS_ACCESS(kCache, check::AccessKey(ctrl, RaceKey(*victim)), kWrite);
      cache.Erase(*victim);
      EraseExtra(ctrl, *victim);
      ++ctrls_[ctrl]->stats.evictions;
      continue;
    }
    // Otherwise kick a write-back of the LRU dirty frame and allow a
    // temporary overcommit; the frame becomes evictable once clean.
    if (auto dirty = cache.ChooseVictim(/*require_clean=*/false)) {
      FlushPage(ctrl, *dirty);
    }
    break;
  }
}

CacheNode::Frame& CacheCluster::InstallFrame(ControllerId ctrl,
                                             const PageKey& key,
                                             util::Payload data) {
  CacheNode& cache = ctrls_[ctrl]->cache;
  CacheNode::Frame* f = cache.Find(key);
  if (f == nullptr) {
    EnsureRoom(ctrl);
    f = &cache.Emplace(key);
  }
  f->data = std::move(data);
  cache.Touch(key);
  return *f;
}

// --- Backing I/O -------------------------------------------------------------

void CacheCluster::ReadFromBacking(ControllerId ctrl, PageKey key,
                                   BackingStore::ReadCallback cb,
                                   obs::TraceContext ctx) {
  // Flash tier sits in front of the disk backing store: a tier hit serves
  // the page at NVMe latency and never touches the FC feed or the disks.
  // On a miss the hook hands `cb` back.
  if (tier_ != nullptr) {
    cb = tier_->TierRead(ctrl, key, std::move(cb), ctx);
    if (!cb) return;
  }
  BackingStore* vol = volumes_.at(key.volume);
  const std::uint32_t pb = PageBlocks(key.volume);
  const std::uint64_t block = key.page * pb;
  if (block >= vol->CapacityBlocks()) {
    engine_.Schedule(0, [cb = std::move(cb), this] {
      cb(true, util::Payload::Zeros(config_.page_bytes));
    });
    return;
  }
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(pb, vol->CapacityBlocks() - block));
  vol->ReadBlocks(block, count,
                  [this, ctrl, key, cb = std::move(cb)](
                      bool ok, util::Payload data) mutable {
                    if (ok && data.size() < config_.page_bytes) {
                      // Page tail past the volume's end reads as zeros.
                      const util::Payload pieces[] = {
                          data, util::Payload::Zeros(config_.page_bytes -
                                                     data.size())};
                      data = util::Payload::Concat(pieces);
                    }
                    // Promotion-on-reheat decision point: the tier may
                    // admit a hot disk-read page into flash.
                    if (ok && tier_ != nullptr) {
                      tier_->OnDiskRead(ctrl, key, data);
                    }
                    if (!ok || config_.fc_ns_per_byte <= 0.0) {
                      cb(ok, std::move(data));
                      return;
                    }
                    // Disk->blade transfer over the controller's FC feed.
                    const sim::Tick done = ctrls_[ctrl]->fc.AcquireBytes(
                        data.size(), config_.fc_ns_per_byte);
                    engine_.ScheduleAt(done, [cb = std::move(cb),
                                              data = std::move(data)]() mutable {
                      cb(true, std::move(data));
                    });
                  },
                  ctx);
}

void CacheCluster::WriteToBacking(ControllerId ctrl, PageKey key,
                                  const util::Payload& data,
                                  BackingStore::WriteCallback cb,
                                  obs::TraceContext ctx) {
  BackingStore* vol = volumes_.at(key.volume);
  const std::uint64_t block = key.page * PageBlocks(key.volume);
  if (block >= vol->CapacityBlocks()) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  // `data` may span several pages (flush coalescing): the block count is
  // derived from the payload, clamped to capacity like single-page writes.
  const std::uint64_t data_blocks = data.size() / vol->block_size();
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(data_blocks, vol->CapacityBlocks() - block));
  ++ctrls_[ctrl]->stats.backing_writes;
  auto issue = [vol, block, count, ctx,
                data = data.Slice(0, static_cast<std::size_t>(count) *
                                         vol->block_size()),
                cb = std::move(cb)]() mutable {
    vol->WriteBlocks(block, std::move(data), std::move(cb), ctx);
  };
  if (config_.fc_ns_per_byte <= 0.0) {
    issue();
    return;
  }
  const sim::Tick done = ctrls_[ctrl]->fc.AcquireBytes(
      static_cast<std::uint64_t>(count) * vol->block_size(),
      config_.fc_ns_per_byte);
  engine_.ScheduleAt(done, std::move(issue));
}

// --- Flush -------------------------------------------------------------------

void CacheCluster::FlushPage(ControllerId ctrl, PageKey key,
                             util::Function<void(bool)> cb) {
  Controller& c = *ctrls_[ctrl];
  CacheNode::Frame* f = c.cache.Find(key);
  if (f == nullptr || !f->dirty) {
    if (cb) engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  FrameExtra& ex = Extra(ctrl, key);
  if (ex.flushing) {
    // Chain behind the in-flight flush, then re-check dirtiness.
    ex.flush_waiters.push_back([this, ctrl, key, cb = std::move(cb)]() mutable {
      FlushPage(ctrl, key, std::move(cb));
    });
    return;
  }
  FlushRun(ctrl, BuildFlushRun(ctrl, key), std::move(cb));
}

std::vector<PageKey> CacheCluster::BuildFlushRun(ControllerId ctrl,
                                                 const PageKey& seed) {
  std::vector<PageKey> run{seed};
  if (config_.coalesce_pages <= 1) return run;
  // A neighbor may ride the run when it would be flushable on its own:
  // dirty primary copy, not mid-operation, and not already being flushed.
  auto flushable = [&](const PageKey& k) {
    const CacheNode::Frame* f = ctrls_[ctrl]->cache.Find(k);
    if (f == nullptr || !f->dirty || f->busy || f->is_replica) return false;
    const auto it = extra_[ctrl].find(k);
    return it == extra_[ctrl].end() || !it->second.flushing;
  };
  for (std::uint64_t p = seed.page + 1;
       run.size() < config_.coalesce_pages &&
       flushable(PageKey{seed.volume, p});
       ++p) {
    run.push_back(PageKey{seed.volume, p});
  }
  std::uint64_t lo = seed.page;
  while (lo > 0 && run.size() < config_.coalesce_pages &&
         flushable(PageKey{seed.volume, lo - 1})) {
    --lo;
    run.insert(run.begin(), PageKey{seed.volume, lo});
  }
  return run;
}

void CacheCluster::FlushRun(ControllerId ctrl, std::vector<PageKey> run,
                            util::Function<void(bool)> cb) {
  Controller& c = *ctrls_[ctrl];
  struct PageSnap {
    PageKey key;
    std::uint64_t epoch = 0;
    WriteId wid;  // representative (writer, seq) flushed for this page
  };
  auto snaps = std::make_shared<std::vector<PageSnap>>();
  std::vector<util::Payload> pages;
  pages.reserve(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    const PageKey& k = run[i];
    NLSS_INVARIANT(kCache,
                   k.volume == run.front().volume &&
                       k.page == run.front().page + i,
                   "coalesced flush run not contiguous at index %zu", i);
    CacheNode::Frame* f = c.cache.Find(k);
    // Ghost-write audit: a frame dirtied by a cancelled write id can only
    // exist when the cancel demonstrably raced the application (counted
    // as a late cancel) — a cancel that arrived first must have dropped
    // the payload before it ever reached the write-back path.
    if (dedup_ != nullptr && f->last_write.valid()) {
      NLSS_INVARIANT(kCache,
                     dedup_->Lookup(f->last_write) != WriteState::kCancelled ||
                         dedup_->stats().late_cancels > 0,
                     "flushing page dirtied by cancelled write (%u,%llu)",
                     f->last_write.writer,
                     static_cast<unsigned long long>(f->last_write.seq));
    }
    // The snapshot pins the frame (busy) and fixes which epoch this flush
    // settles.  Epoch-guarded domain: a same-tick content write lands
    // before the snapshot (flushed now) or after it (epoch bump → redo at
    // settle) — both orders leave the same durable state.  Two snapshots
    // of one page would be a real conflict and share this key.
    NLSS_ACCESS(kCache, check::EpochGuardedKey(RaceKey(k)), kWrite);
    Extra(ctrl, k).flushing = true;
    f->busy = true;
    snaps->push_back(PageSnap{k, f->dirty_epoch, f->last_write});
    pages.push_back(f->data);
  }
  // Frames are immutable payloads, so a single-page run writes back the
  // frame's own buffer; a later rewrite installs a new one.
  util::Payload data = util::Payload::Concat(pages);
  if (run.size() > 1) {
    ++c.stats.coalesced_runs;
    c.stats.coalesced_pages += run.size();
  }
  // Background write-backs get their own root span — they never ride on a
  // request trace, so without this they are invisible in the trace view.
  obs::TraceContext flush_ctx;
  if (tracer_ != nullptr) {
    flush_ctx = tracer_->StartTrace(obs::Layer::kOther, "cache.flush");
    if (flush_ctx.sampled()) {
      tracer_->Annotate(flush_ctx, "ctrl=" + std::to_string(ctrl));
      if (snaps->size() > 1) {
        // Representative (writer, seq) range the merged write covers, so
        // a trace of a coalesced flush stays attributable to host writes.
        std::uint64_t lo = 0, hi = 0;
        std::uint32_t writer = 0;
        for (const PageSnap& s : *snaps) {
          if (!s.wid.valid()) continue;
          if (lo == 0 || s.wid.seq < lo) lo = s.wid.seq;
          if (s.wid.seq > hi) hi = s.wid.seq;
          writer = s.wid.writer;
        }
        tracer_->Annotate(flush_ctx,
                          "coalesced=" + std::to_string(snaps->size()) +
                              " writer=" + std::to_string(writer) + " seq=[" +
                              std::to_string(lo) + "," + std::to_string(hi) +
                              "]");
      }
    }
  }
  // Charge the owning controller's data engine for the write-back.
  const sim::Tick compute_done =
      c.compute.AcquireBytes(data.size(), config_.serve_ns_per_byte);
  engine_.ScheduleAt(compute_done, [this, ctrl, flush_ctx, snaps,
                                    data = std::move(data),
                                    cb = std::move(cb)]() mutable {
    // Settling is identical whether the run landed on disk or was absorbed
    // by the flash tier: either way the data is durable below DRAM, so the
    // replicas release and the frames go clean (epoch-checked).
    BackingStore::WriteCallback settle = [this, ctrl, snaps, flush_ctx,
                                          cb = std::move(cb)](bool ok) mutable {
      Controller& c = *ctrls_[ctrl];
      std::vector<PageKey> redo;
      for (const PageSnap& s : *snaps) {
        const PageKey key = s.key;
        // Epoch-guarded: the dirty_epoch check below re-validates the
        // snapshot, so settling converges whether a same-tick content
        // write runs before (redo) or after (re-dirty) this event.  Only
        // a second GUARDED transition on the same page is a race.
        NLSS_ACCESS(kCache, check::EpochGuardedKey(RaceKey(key)), kWrite);
        CacheNode::Frame* f = c.cache.Find(key);
        FrameExtra& ex = Extra(ctrl, key);
        ++c.stats.flushes;
        bool still_dirty = false;
        if (f != nullptr) {
          if (ok && f->dirty_epoch == s.epoch) {
            // Flush-ordering: an unchanged dirty epoch means no write
            // landed since the snapshot, so the representative id the run
            // carried must still be the frame's — a write id that moved
            // without an epoch bump would mark data clean that the dedup
            // index still accounts as unflushed.
            NLSS_INVARIANT(kCache,
                           f->last_write.writer == s.wid.writer &&
                               f->last_write.seq == s.wid.seq,
                           "frame write id changed without a dirty-epoch "
                           "bump (page %llu)",
                           static_cast<unsigned long long>(key.page));
            f->dirty = false;
            // Release the N-way replicas now that the data is on disk.
            for (const ControllerId site : ex.replica_sites) {
              if (!ctrls_[site]->alive) continue;
              Msg(ctrl, site, config_.ctrl_msg_bytes,
                  [this, site, key, ctrl] {
                    CacheNode::Frame* rf = ctrls_[site]->cache.Find(key);
                    if (rf != nullptr && rf->is_replica &&
                        rf->replica_owner == ctrl) {
                      ctrls_[site]->cache.Erase(key);
                      EraseExtra(site, key);
                    }
                  },
                  nullptr);
            }
            ex.replica_sites.clear();
          } else if (f->dirty) {
            still_dirty = true;  // re-written during the flush, or I/O error
          }
          f->busy = false;
        }
        ex.flushing = false;
        auto waiters = std::move(ex.flush_waiters);
        ex.flush_waiters.clear();
        for (auto& w : waiters) engine_.Schedule(0, std::move(w));
        if (still_dirty) redo.push_back(key);
      }
      if (flush_ctx.sampled()) {
        flush_ctx.tracer->EndTrace(flush_ctx, ok && redo.empty());
      }
      if (redo.empty()) {
        if (cb) cb(ok);
        return;
      }
      // Pages re-written mid-flight go around again; cb follows them.
      auto join = std::make_shared<util::Join>(static_cast<int>(redo.size()),
                                               std::move(cb));
      for (const PageKey& key : redo) {
        FlushPage(ctrl, key, [join](bool r) { join->Arrive(r); });
      }
    };
    if (tier_ != nullptr) {
      std::vector<TierPageSnap> tier_snaps;
      tier_snaps.reserve(snaps->size());
      for (const PageSnap& s : *snaps) {
        tier_snaps.push_back(TierPageSnap{s.key, s.epoch, s.wid});
      }
      settle = tier_->TierWriteBack(ctrl, tier_snaps, data, std::move(settle),
                                    flush_ctx);
      if (!settle) return;
    }
    WriteToBacking(ctrl, snaps->front().key, data, std::move(settle),
                   flush_ctx);
  });
}

void CacheCluster::FlushAll(WriteCallback cb) {
  // With a tier attached, DRAM write-backs may have been absorbed by
  // flash; FlushAll's durability contract ("every dirty page on backing")
  // extends through the tier, so drain dirty flash pages to disk after
  // the DRAM pass settles.
  WriteCallback finish = [this, cb = std::move(cb)](bool ok) mutable {
    if (tier_ == nullptr) {
      cb(ok);
      return;
    }
    tier_->DrainDirty(
        [cb = std::move(cb), ok](bool drained) { cb(ok && drained); });
  };
  std::vector<std::pair<ControllerId, PageKey>> dirty;
  for (const ControllerId c : live_) {
    ctrls_[c]->cache.ForEach([&](const PageKey& key,
                                 const CacheNode::Frame& f) {
      if (f.dirty) dirty.emplace_back(c, key);
    });
  }
  if (dirty.empty()) {
    engine_.Schedule(0, [finish = std::move(finish)] { finish(true); });
    return;
  }
  auto join = std::make_shared<util::Join>(static_cast<int>(dirty.size()),
                                           std::move(finish));
  for (const auto& [c, key] : dirty) {
    FlushPage(c, key, [join](bool ok) { join->Arrive(ok); });
  }
}

// --- Fetch / invalidate / replicate ------------------------------------------

void CacheCluster::FetchCurrent(ControllerId via, PageKey key,
                                ReadCallback cb, obs::TraceContext ctx) {
  const ControllerId home = HomeOf(key);
  DirEntry& e = dir_[home][key];
  ControllerId source = kNoController;
  if (e.owner != kNoController && ctrls_[e.owner]->alive && e.owner != via) {
    source = e.owner;
  } else {
    for (const ControllerId s : e.sharers) {
      if (s != via && ctrls_[s]->alive) {
        source = s;
        break;
      }
    }
  }

  auto shared_cb = std::make_shared<ReadCallback>(std::move(cb));

  auto backing_path = [this, via, home, key, shared_cb, ctx]() mutable {
    ReadFromBacking(
        home, key,
        [this, via, home, shared_cb, ctx](bool ok,
                                          util::Payload data) mutable {
          if (!ok) {
            (*shared_cb)(false, {});
            return;
          }
          const sim::Tick done = ctrls_[home]->compute.AcquireBytes(
              config_.page_bytes, config_.serve_ns_per_byte);
          ctrls_[home]->stats.bytes_served += config_.page_bytes;
          engine_.ScheduleAt(done, [this, via, home, data = std::move(data),
                                    shared_cb, ctx]() mutable {
            if (home == via) {
              (*shared_cb)(true, std::move(data));
              return;
            }
            Msg(home, via, config_.page_bytes,
                [data = std::move(data), shared_cb] {
                  (*shared_cb)(true, data);
                },
                [shared_cb] { (*shared_cb)(false, {}); }, ctx);
          });
        },
        ctx);
  };

  if (source == kNoController) {
    backing_path();
    return;
  }

  // Control hop home->source, then data hop source->via.  A sampled request
  // gets a coherence-forward span covering both hops plus the source's
  // data-engine time.
  const obs::TraceContext fwd =
      obs::StartSpan(ctx, obs::Layer::kCache, "cache.forward");
  Msg(home, source, config_.ctrl_msg_bytes,
      [this, via, source, key, shared_cb, backing_path, fwd]() mutable {
        CacheNode::Frame* f = ctrls_[source]->cache.Find(key);
        if (f == nullptr) {
          obs::EndSpan(fwd);
          backing_path();  // frame evicted while the request was in flight
          return;
        }
        const sim::Tick done = ctrls_[source]->compute.AcquireBytes(
            config_.page_bytes, config_.serve_ns_per_byte);
        ctrls_[source]->stats.bytes_served += config_.page_bytes;
        engine_.ScheduleAt(done, [this, source, via, data = f->data, shared_cb,
                                  fwd] {
          Msg(source, via, config_.page_bytes,
              [data, shared_cb, fwd] {
                obs::EndSpan(fwd);
                (*shared_cb)(true, data);
              },
              [shared_cb, fwd] {
                obs::EndSpan(fwd);
                (*shared_cb)(false, {});
              },
              fwd);
        });
      },
      [shared_cb, fwd] {
        obs::EndSpan(fwd);
        (*shared_cb)(false, {});
      },
      fwd);
}

void CacheCluster::InvalidateHolders(ControllerId except, PageKey key,
                                     util::Function<void()> done,
                                     obs::TraceContext ctx) {
  const ControllerId home = HomeOf(key);
  DirEntry& e = dir_[home][key];
  std::vector<ControllerId> holders;
  if (e.owner != kNoController && e.owner != except &&
      ctrls_[e.owner]->alive) {
    holders.push_back(e.owner);
  }
  for (const ControllerId s : e.sharers) {
    if (s != except && ctrls_[s]->alive) holders.push_back(s);
  }
  e.owner = kNoController;
  e.sharers.clear();
  if (holders.empty()) {
    engine_.Schedule(0, std::move(done));
    return;
  }
  auto join = std::make_shared<util::Join>(
      static_cast<int>(holders.size()),
      [done = std::move(done)](bool) { done(); });

  for (const ControllerId h : holders) {
    Msg(home, h, config_.ctrl_msg_bytes,
        [this, h, home, key, join, ctx] {
          // Local invalidation at h.  Deferred while a flush is in flight
          // so the on-disk image never goes backwards in time.
          CacheNode::Frame* f = ctrls_[h]->cache.Find(key);
          if (f != nullptr) {
            FrameExtra& ex = Extra(h, key);
            if (ex.flushing) {
              ex.flush_waiters.push_back([this, h, home, key, join, ctx] {
                // Retry the invalidation after the flush completes.
                CacheNode::Frame* f2 = ctrls_[h]->cache.Find(key);
                if (f2 != nullptr) {
                  DropFrameWithReplicas(h, key);
                }
                Msg(h, home, config_.ctrl_msg_bytes,
                    [join] { join->Arrive(true); },
                    [join] { join->Arrive(true); }, ctx);
              });
              return;
            }
            DropFrameWithReplicas(h, key);
          }
          ++ctrls_[h]->stats.invalidations_received;
          Msg(h, home, config_.ctrl_msg_bytes,
              [join] { join->Arrive(true); },
              [join] { join->Arrive(true); }, ctx);
        },
        [join] { join->Arrive(true); }, ctx);
  }
}

void CacheCluster::DropFrameWithReplicas(ControllerId ctrl,
                                         const PageKey& key) {
  FrameExtra& ex = Extra(ctrl, key);
  // Unpin any replicas this (former) owner parked on peers.
  for (const ControllerId site : ex.replica_sites) {
    if (!ctrls_[site]->alive) continue;
    Msg(ctrl, site, config_.ctrl_msg_bytes,
        [this, site, key, ctrl] {
          CacheNode::Frame* rf = ctrls_[site]->cache.Find(key);
          if (rf != nullptr && rf->is_replica && rf->replica_owner == ctrl) {
            ctrls_[site]->cache.Erase(key);
            EraseExtra(site, key);
          }
        },
        nullptr);
  }
  ctrls_[ctrl]->cache.Erase(key);
  EraseExtra(ctrl, key);
}

void CacheCluster::ReplicateDirty(ControllerId owner_ctrl, PageKey key,
                                  std::uint32_t replication,
                                  util::Function<void()> done,
                                  obs::TraceContext ctx) {
  // If an eviction-triggered flush already landed this page, replication
  // would pin copies nobody will ever release — skip it.
  {
    CacheNode::Frame* f = ctrls_[owner_ctrl]->cache.Find(key);
    if (f == nullptr || !f->dirty) {
      engine_.Schedule(0, std::move(done));
      return;
    }
  }
  // Pick the next N-1 live controllers after the owner, ring order.
  std::vector<ControllerId> targets;
  if (replication > 1 && live_.size() > 1) {
    const auto it = std::find(live_.begin(), live_.end(), owner_ctrl);
    std::size_t pos = it == live_.end()
                          ? 0
                          : static_cast<std::size_t>(it - live_.begin());
    for (std::size_t k = 1;
         k < live_.size() && targets.size() + 1 < replication; ++k) {
      const ControllerId t = live_[(pos + k) % live_.size()];
      if (t != owner_ctrl) targets.push_back(t);
    }
  }
  FrameExtra& ex = Extra(owner_ctrl, key);
  // Unpin replicas at sites no longer targeted (membership changes).
  for (const ControllerId old : ex.replica_sites) {
    if (std::find(targets.begin(), targets.end(), old) != targets.end()) {
      continue;
    }
    if (!ctrls_[old]->alive) continue;
    Msg(owner_ctrl, old, config_.ctrl_msg_bytes,
        [this, old, key, owner_ctrl] {
          CacheNode::Frame* rf = ctrls_[old]->cache.Find(key);
          if (rf != nullptr && rf->is_replica &&
              rf->replica_owner == owner_ctrl) {
            ctrls_[old]->cache.Erase(key);
            EraseExtra(old, key);
          }
        },
        nullptr);
  }
  ex.replica_sites = targets;
  if (targets.empty()) {
    engine_.Schedule(0, std::move(done));
    return;
  }
  CacheNode::Frame* f = ctrls_[owner_ctrl]->cache.Find(key);
  assert(f != nullptr);
  const util::Payload data = f->data;  // replicas share the owner's buffer
  auto join = std::make_shared<util::Join>(
      static_cast<int>(targets.size()),
      [done = std::move(done)](bool) { done(); });
  for (const ControllerId t : targets) {
    Msg(owner_ctrl, t, config_.page_bytes,
        [this, t, key, owner_ctrl, data, join, ctx] {
          CacheNode::Frame& rf = InstallFrame(t, key, data);
          rf.is_replica = true;
          rf.replica_owner = owner_ctrl;
          rf.dirty = false;
          Msg(t, owner_ctrl, config_.ctrl_msg_bytes,
              [join] { join->Arrive(true); },
              [join] { join->Arrive(true); }, ctx);
        },
        [join] { join->Arrive(false); }, ctx);
  }
}

// --- GETS / GETX --------------------------------------------------------------

void CacheCluster::HandleGetS(ControllerId via, PageKey key,
                              std::uint8_t priority, ReadCallback cb,
                              obs::TraceContext ctx) {
  const ControllerId home = HomeOf(key);
  auto finish = [this, via, home, key, priority, cb = std::move(cb)](
                    bool ok, util::Payload data) mutable {
    if (ok) {
      CacheNode::Frame& f = InstallFrame(via, key, std::move(data));
      f.priority = std::max(f.priority, priority);
      DirEntry& e = dir_[home][key];
      if (e.owner != via) e.sharers.insert(via);
      ReleaseEntry(home, key);
      cb(true, f.data);
    } else {
      ReleaseEntry(home, key);
      cb(false, {});
    }
  };
  // Classify hit type for stats before fetching.
  {
    DirEntry& e = dir_[home][key];
    const bool someone_has_it =
        (e.owner != kNoController && ctrls_[e.owner]->alive) ||
        std::any_of(e.sharers.begin(), e.sharers.end(), [&](ControllerId s) {
          return s != via && ctrls_[s]->alive;
        });
    if (someone_has_it) {
      ++ctrls_[via]->stats.remote_hits;
      obs::Annotate(ctx, "remote_hit");
    } else {
      ++ctrls_[via]->stats.misses;
      obs::Annotate(ctx, "miss");
    }
  }
  // A write through `via` can win the entry while this read queues behind
  // it.  Then via's frame is the only current copy, and FetchCurrent (which
  // never sources from `via`) would install stale bytes over it.
  if (dir_[home][key].owner == via) {
    if (const CacheNode::Frame* own = ctrls_[via]->cache.Find(key)) {
      finish(true, own->data);
      return;
    }
  }
  FetchCurrent(via, key, std::move(finish), ctx);
}

void CacheCluster::HandleGetX(ControllerId via, PageKey key,
                              std::uint32_t offset, util::Payload data,
                              std::uint32_t replication, std::uint8_t priority,
                              WriteCallback cb, obs::TraceContext ctx,
                              WriteId wid) {
  const ControllerId home = HomeOf(key);
  const bool full_page =
      offset == 0 && data.size() == config_.page_bytes;
  const std::size_t len = data.size();

  // Step 3 onwards, once we know the page's base content (empty for a
  // full-page write, which needs none).  A failed fetch fails the write.
  auto apply = [this, via, home, key, offset, len, data = std::move(data),
                replication, priority, cb = std::move(cb), ctx,
                wid](bool ok, util::Payload base) mutable {
    if (!ok) {
      ReleaseEntry(home, key);
      cb(false);
      return;
    }
    InvalidateHolders(
        via, key,
        [this, via, home, key, offset, len, data = std::move(data),
         replication, priority, cb = std::move(cb), ctx, wid,
         base = std::move(base)]() mutable {
          // A full-page write installs the payload itself; a partial one
          // merges it into a fresh copy of the current page.
          if (!base.empty()) {
            assert(offset + len <= base.size());
            data = util::Payload(base.size(), [&](std::span<std::uint8_t> out) {
              std::memcpy(out.data(), base.data(), base.size());
              std::memcpy(out.data() + offset, data.data(), len);
            });
          }
          CacheNode::Frame& f = InstallFrame(via, key, std::move(data));
          f.priority = std::max(f.priority, priority);
          f.dirty = true;
          f.is_replica = false;
          f.replica_owner = kNoController;
          ++f.dirty_epoch;
          // Every write moves the representative id with the epoch —
          // including invalid ids from unattributed legacy traffic, so a
          // stale (writer, seq) never outlives the data it described.
          f.last_write = wid;
          DirEntry& e = dir_[home][key];
          // Holders were just invalidated: the new owner must be the only
          // node carrying this page dirty, and ownership transfer only
          // moves forward in simulated time.
          NLSS_INVARIANT(kCache, !DirtyElsewhere(via, key),
                         "page dirty on two nodes (new owner %u)",
                         static_cast<unsigned>(via));
          NLSS_INVARIANT(kCache, engine_.now() >= e.owner_since,
                         "ownership transfer went backwards: now=%llu "
                         "owner_since=%llu",
                         static_cast<unsigned long long>(engine_.now()),
                         static_cast<unsigned long long>(e.owner_since));
          e.owner = via;
          e.owner_since = engine_.now();
          e.sharers.clear();
          ctrls_[via]->stats.bytes_served += len;
          const sim::Tick done = ctrls_[via]->compute.AcquireBytes(
              len, config_.serve_ns_per_byte);
          engine_.ScheduleAt(done, [this, via, home, key, replication,
                                    cb = std::move(cb), ctx]() mutable {
            ReplicateDirty(
                via, key, replication,
                [this, via, home, key, cb = std::move(cb)] {
                  ReleaseEntry(home, key);
                  cb(true);
                  // Write-back: flush after the configured aging delay.  The
                  // page may be re-written or flushed by eviction pressure
                  // meanwhile; FlushPage no-ops if it finds the frame clean.
                  if (config_.flush_delay_ns == 0) {
                    FlushPage(via, key);
                  } else {
                    engine_.Schedule(config_.flush_delay_ns, [this, via, key] {
                      if (ctrls_[via]->alive) FlushPage(via, key);
                    });
                  }
                },
                ctx);
          });
        },
        ctx);
  };

  if (full_page) {
    apply(true, {});
    return;
  }
  CacheNode::Frame* f_via = ctrls_[via]->cache.Find(key);
  if (f_via != nullptr) {
    // Current content already present locally (shared, owned, or replica —
    // replicas always carry the owner's latest write).
    apply(true, f_via->data);
    return;
  }
  FetchCurrent(via, key, std::move(apply), ctx);
}

// --- Page-level API -----------------------------------------------------------

void CacheCluster::MaybeReadahead(ControllerId via, PageKey key) {
  if (config_.readahead_pages == 0) return;
  const BackingStore* vol = volumes_.at(key.volume);
  const std::uint64_t last_page =
      (vol->CapacityBytes() + config_.page_bytes - 1) / config_.page_bytes;
  for (std::uint32_t i = 1; i <= config_.readahead_pages; ++i) {
    const PageKey next{key.volume, key.page + i};
    if (next.page >= last_page) break;
    if (ctrls_[via]->cache.Find(next) != nullptr) continue;
    if (readahead_inflight_.count(next) > 0) continue;
    readahead_inflight_[next] = true;
    ReadPage(via, next,
             [this, next](bool, util::Payload) {
               readahead_inflight_.erase(next);
             },
             /*demand=*/false);
  }
}

void CacheCluster::ReadPage(ControllerId via, PageKey key, ReadCallback cb,
                            bool demand, std::uint8_t priority,
                            obs::TraceContext ctx) {
  Controller& c = *ctrls_[via];
  if (!c.alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  ++c.stats.ops;
  if (tier_ != nullptr) tier_->OnAccess(via, key, /*write=*/false);
  // Per-page span: holds the hit/miss classification, ends when the page is
  // delivered.
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kCache, "cache.page");
  CacheNode::Frame* f = c.cache.Find(key);
  if (f != nullptr) {
    // Local hit serves the frame synchronously in this event; order vs any
    // same-tick mutation of the page decides which data is returned.
    NLSS_ACCESS(kCache, RaceKey(key), kRead);
    ++c.stats.local_hits;
    obs::Annotate(span, "local_hit");
    c.stats.bytes_served += config_.page_bytes;
    c.cache.Touch(key);
    f->priority = std::max(f->priority, priority);
    const sim::Tick compute_done =
        c.compute.AcquireBytes(config_.page_bytes, config_.serve_ns_per_byte);
    const sim::Tick when =
        std::max(compute_done, engine_.now() + config_.local_access_ns);
    engine_.ScheduleAt(when, [cb = std::move(cb), span,
                              data = f->data]() mutable {
      obs::EndSpan(span);
      cb(true, std::move(data));
    });
    return;
  }
  if (demand) MaybeReadahead(via, key);
  const ControllerId home = HomeOf(key);
  auto shared_cb = std::make_shared<ReadCallback>(
      [span, cb = std::move(cb)](bool ok, util::Payload data) mutable {
        obs::EndSpan(span);
        cb(ok, std::move(data));
      });
  Msg(via, home, config_.ctrl_msg_bytes,
      [this, via, home, key, priority, shared_cb, span] {
        // GetS arrival at the home: this is where the directory decides the
        // order of contending ops (AcquireEntry grants in arrival order).
        NLSS_ACCESS(kCache, RaceKey(key), kRead);
        AcquireEntry(home, key, [this, via, key, priority, shared_cb, span] {
          HandleGetS(via, key, priority,
                     [shared_cb](bool ok, util::Payload data) {
                       (*shared_cb)(ok, std::move(data));
                     },
                     span);
        });
      },
      [shared_cb] { (*shared_cb)(false, {}); }, span);
}

void CacheCluster::WritePage(ControllerId via, PageKey key,
                             std::uint32_t offset, util::Payload data,
                             std::uint32_t replication, std::uint8_t priority,
                             WriteCallback cb, obs::TraceContext ctx,
                             WriteId wid) {
  Controller& c = *ctrls_[via];
  if (!c.alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  assert(offset + data.size() <= config_.page_bytes);
  ++c.stats.ops;
  if (tier_ != nullptr) tier_->OnAccess(via, key, /*write=*/true);
  const ControllerId home = HomeOf(key);
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kCache, "cache.page");
  auto shared_cb = std::make_shared<WriteCallback>(
      [span, cb = std::move(cb)](bool ok) mutable {
        obs::EndSpan(span);
        cb(ok);
      });
  Msg(via, home, config_.ctrl_msg_bytes,
      [this, via, home, key, offset, replication, priority, shared_cb,
       data = std::move(data), span, wid] {
        // GetX arrival: a same-tick unrelated read or write of this page
        // would see before- or after-image depending on queue order.
        NLSS_ACCESS(kCache, RaceKey(key), kWrite);
        AcquireEntry(home, key,
                     [this, via, key, offset, replication, priority,
                      shared_cb, data, span, wid] {
          HandleGetX(via, key, offset, data, replication, priority,
                     [shared_cb](bool ok) { (*shared_cb)(ok); }, span, wid);
        });
      },
      [shared_cb] { (*shared_cb)(false); }, span);
}

// --- Byte-level API -------------------------------------------------------------

void CacheCluster::Read(ControllerId via, std::uint32_t volume,
                        std::uint64_t offset, std::uint32_t length,
                        ReadCallback cb, std::uint8_t priority,
                        obs::TraceContext ctx) {
  assert(length > 0);
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kCache, "cache.read");
  const std::uint32_t pb = config_.page_bytes;
  struct Piece {
    PageKey key;
    std::uint32_t in_page;
    std::uint32_t len;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::uint32_t left = length;
  while (left > 0) {
    const std::uint64_t page = cur / pb;
    const std::uint32_t in_page = static_cast<std::uint32_t>(cur % pb);
    const std::uint32_t n = std::min(left, pb - in_page);
    pieces.push_back(Piece{PageKey{volume, page}, in_page, n});
    cur += n;
    left -= n;
  }
  // Views of the pages, joined into one payload only when there are several.
  auto parts = std::make_shared<std::vector<util::Payload>>(pieces.size());
  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()),
      [parts, span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        cb(ok, ok ? util::Payload::Concat(*parts) : util::Payload());
      });
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece p = pieces[i];
    ReadPage(
        via, p.key,
        [p, i, parts, join](bool ok, util::Payload page) {
          if (ok) (*parts)[i] = page.Slice(p.in_page, p.len);
          join->Arrive(ok);
        },
        /*demand=*/true, priority, span);
  }
}

void CacheCluster::Write(ControllerId via, std::uint32_t volume,
                         std::uint64_t offset, const util::Payload& data,
                         WriteCallback cb, std::uint8_t priority,
                         obs::TraceContext ctx, WriteId wid) {
  WriteWithReplication(via, volume, offset, data, config_.replication,
                       std::move(cb), priority, ctx, wid);
}

void CacheCluster::WriteWithReplication(ControllerId via, std::uint32_t volume,
                                        std::uint64_t offset,
                                        const util::Payload& data,
                                        std::uint32_t replication,
                                        WriteCallback cb,
                                        std::uint8_t priority,
                                        obs::TraceContext ctx, WriteId wid) {
  assert(!data.empty());
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kCache, "cache.write");
  const std::uint32_t pb = config_.page_bytes;
  struct Piece {
    PageKey key;
    std::uint32_t in_page;
    std::size_t src;
    std::uint32_t len;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::size_t src = 0;
  std::size_t left = data.size();
  while (left > 0) {
    const std::uint64_t page = cur / pb;
    const std::uint32_t in_page = static_cast<std::uint32_t>(cur % pb);
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::size_t>(left, pb - in_page));
    pieces.push_back(Piece{PageKey{volume, page}, in_page, src, n});
    cur += n;
    src += n;
    left -= n;
  }
  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()),
      [span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        cb(ok);
      });
  for (const Piece& p : pieces) {
    WritePage(via, p.key, p.in_page, data.Slice(p.src, p.len), replication,
              priority, [join](bool ok) { join->Arrive(ok); }, span, wid);
  }
}

// --- Tier support -------------------------------------------------------------

void CacheCluster::TierBackingWrite(ControllerId ctrl, const PageKey& key,
                                    const util::Payload& data,
                                    BackingStore::WriteCallback cb,
                                    obs::TraceContext ctx) {
  WriteToBacking(ctrl, key, data, std::move(cb), ctx);
}

bool CacheCluster::StealCleanFrame(ControllerId ctrl, const PageKey& key,
                                   util::Payload* out) {
  Controller& c = *ctrls_[ctrl];
  if (!c.alive) return false;
  CacheNode::Frame* f = c.cache.Find(key);
  if (f == nullptr || f->dirty || f->busy || f->is_replica) return false;
  NLSS_ACCESS(kCache, RaceKey(key), kWrite);
  *out = std::move(f->data);
  c.cache.Erase(key);
  EraseExtra(ctrl, key);
  ++c.stats.evictions;
  return true;
}

// --- Failure & recovery -----------------------------------------------------------

void CacheCluster::FailController(ControllerId ctrl) {
  Controller& c = *ctrls_[ctrl];
  c.alive = false;
  fabric_.SetNodeUp(c.node, false);
  c.cache.Clear();
  extra_[ctrl].clear();
  dir_[ctrl].clear();
  live_.erase(std::remove(live_.begin(), live_.end(), ctrl), live_.end());
}

void CacheCluster::CrashController(ControllerId ctrl) {
  Controller& c = *ctrls_[ctrl];
  fabric_.SetNodeUp(c.node, false);
  c.cache.Clear();
  extra_[ctrl].clear();
  // alive and live_ deliberately untouched: the cluster has not noticed.
}

void CacheCluster::ReviveController(ControllerId ctrl) {
  Controller& c = *ctrls_[ctrl];
  // Legal after FailController (alive=false) OR CrashController (alive
  // still true — the cluster never noticed — but the fabric node is down).
  NLSS_INVARIANT(kCache, !c.alive || !fabric_.IsNodeUp(c.node),
                 "reviving controller %u that is alive and reachable",
                 static_cast<unsigned>(ctrl));
  c.alive = true;
  c.cache.Clear();
  extra_[ctrl].clear();
  dir_[ctrl].clear();
  fabric_.SetNodeUp(c.node, true);
}

void CacheCluster::Recover() {
  live_.clear();
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    if (ctrls_[i]->alive) live_.push_back(static_cast<ControllerId>(i));
  }
  assert(!live_.empty());
  for (auto& shard : dir_) shard.clear();

  // Pass 1: re-register every primary frame from surviving caches.
  for (const ControllerId c : live_) {
    ctrls_[c]->cache.ForEach([&](const PageKey& key,
                                 const CacheNode::Frame& f) {
      if (f.is_replica) return;
      DirEntry& e = dir_[HomeOf(key)][key];
      if (f.dirty) {
        e.owner = c;
      } else {
        e.sharers.insert(c);
      }
    });
  }

  // Pass 2: find replicas orphaned by dead owners.  Ordered map: pass 3
  // promotes owners and issues flushes in iteration order, which must not
  // depend on hash layout.
  std::map<PageKey, std::vector<ControllerId>> orphans;
  for (const ControllerId c : live_) {
    ctrls_[c]->cache.ForEach([&](const PageKey& key,
                                 const CacheNode::Frame& f) {
      if (f.is_replica && !ctrls_[f.replica_owner]->alive) {
        orphans[key].push_back(c);
      }
    });
  }

  // Pass 3: promote one replica per orphaned page to dirty owner; the rest
  // stay pinned under the new owner until its flush lands.
  for (auto& [key, holders] : orphans) {
    DirEntry& e = dir_[HomeOf(key)][key];
    if (e.owner != kNoController) {
      // A live owner exists (ownership moved just before the crash): the
      // orphaned replicas are stale; drop them.
      for (const ControllerId h : holders) {
        ctrls_[h]->cache.Erase(key);
        EraseExtra(h, key);
      }
      continue;
    }
    const ControllerId promoted = holders.front();
    CacheNode::Frame* f = ctrls_[promoted]->cache.Find(key);
    assert(f != nullptr);
    // Promotion is an ownership transfer too: the dead owner's page must
    // not be dirty anywhere else among the survivors.
    NLSS_INVARIANT(kCache, !DirtyElsewhere(promoted, key),
                   "orphan promotion found page dirty on another node "
                   "(promoted %u)",
                   static_cast<unsigned>(promoted));
    f->is_replica = false;
    f->replica_owner = kNoController;
    f->dirty = true;
    ++f->dirty_epoch;
    NLSS_INVARIANT(kCache, engine_.now() >= e.owner_since,
                   "recover ownership transfer went backwards: now=%llu "
                   "owner_since=%llu",
                   static_cast<unsigned long long>(engine_.now()),
                   static_cast<unsigned long long>(e.owner_since));
    e.owner = promoted;
    e.owner_since = engine_.now();
    e.sharers.erase(promoted);
    FrameExtra& ex = Extra(promoted, key);
    ex.replica_sites.assign(holders.begin() + 1, holders.end());
    for (const ControllerId h : ex.replica_sites) {
      CacheNode::Frame* rf = ctrls_[h]->cache.Find(key);
      if (rf != nullptr) rf->replica_owner = promoted;
    }
    FlushPage(promoted, key);
  }
}

// --- Introspection -------------------------------------------------------------------

CacheCluster::Stats CacheCluster::Totals() const {
  Stats t;
  for (const auto& c : ctrls_) {
    t.ops += c->stats.ops;
    t.local_hits += c->stats.local_hits;
    t.remote_hits += c->stats.remote_hits;
    t.misses += c->stats.misses;
    t.bytes_served += c->stats.bytes_served;
    t.flushes += c->stats.flushes;
    t.evictions += c->stats.evictions;
    t.invalidations_received += c->stats.invalidations_received;
    t.backing_writes += c->stats.backing_writes;
    t.coalesced_runs += c->stats.coalesced_runs;
    t.coalesced_pages += c->stats.coalesced_pages;
  }
  return t;
}

std::uint64_t CacheCluster::DirtyPages() const {
  std::uint64_t n = 0;
  for (const auto& c : ctrls_) {
    c->cache.ForEach([&](const PageKey&, const CacheNode::Frame& f) {
      if (f.dirty) ++n;
    });
  }
  return n;
}

std::uint64_t CacheCluster::CachedPages() const {
  std::uint64_t n = 0;
  for (const auto& c : ctrls_) n += c->cache.size();
  return n;
}

std::vector<double> CacheCluster::LoadByController() const {
  std::vector<double> loads;
  loads.reserve(ctrls_.size());
  for (const auto& c : ctrls_) {
    loads.push_back(static_cast<double>(c->stats.bytes_served));
  }
  return loads;
}

}  // namespace nlss::cache
