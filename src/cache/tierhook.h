// TierHook: the cache cluster's view of the storage-tier placement engine
// (src/tier).  The interface lives on the cache side so the link layering
// stays acyclic: nlss::tier implements it (and may call back into the
// cluster's public API), while nlss::cache only ever sees this abstract
// hook.  A null hook (the default) keeps the cluster's behavior — and
// every existing digest — bit-identical to the untiered build.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/backing.h"
#include "cache/dedup.h"
#include "cache/node.h"
#include "cache/types.h"
#include "obs/trace.h"
#include "util/function.h"
#include "util/payload.h"

namespace nlss::cache {

/// Per-page metadata the flush path hands the tier with a write-back run:
/// the dirty epoch orders the run against concurrent rewrites, the write
/// id keeps the exactly-once audit trail attached to the data.
struct TierPageSnap {
  PageKey key;
  std::uint64_t dirty_epoch = 0;
  WriteId wid;
};

class TierHook {
 public:
  virtual ~TierHook() = default;

  /// Demand read that reached the backing path (no DRAM copy anywhere).
  /// Returns an empty callback when the flash tier absorbed the read —
  /// `cb` then fires with the page after the modeled flash access.
  /// Otherwise hands `cb` back: the caller falls through to the disk
  /// backing store.
  [[nodiscard]] virtual BackingStore::ReadCallback TierRead(
      ControllerId ctrl, const PageKey& key, BackingStore::ReadCallback cb,
      obs::TraceContext ctx) = 0;

  /// Offer a contiguous dirty write-back run (one backing write's worth of
  /// pages, `data` holds them in order).  Returns an empty callback when
  /// the flash tier absorbed the write-back — `cb(true)` fires once the run
  /// is durable in flash, and the tier owns moving it to disk later.
  /// Otherwise hands `cb` back: the caller writes to the disk backing
  /// store itself.
  [[nodiscard]] virtual BackingStore::WriteCallback TierWriteBack(
      ControllerId ctrl, const std::vector<TierPageSnap>& pages,
      const util::Payload& data, BackingStore::WriteCallback cb,
      obs::TraceContext ctx) = 0;

  /// A clean primary frame is being evicted from DRAM; the tier may spill
  /// the data to flash (warm page) or let it fall through to disk (cold).
  virtual void OnCleanEvict(ControllerId ctrl, const PageKey& key,
                            const util::Payload& data) = 0;

  /// A disk read completed for a page the tier did not hold: admission /
  /// promotion decision point (heat-gated copy into flash).
  virtual void OnDiskRead(ControllerId ctrl, const PageKey& key,
                          const util::Payload& data) = 0;

  /// Every page-granular cache access (hit or miss) — feeds the heat
  /// tracker and paces the cooling scans.
  virtual void OnAccess(ControllerId ctrl, const PageKey& key,
                        bool write) = 0;

  /// Heat-aware replacement: pick the coldest evictable clean frame at
  /// `ctrl` (never busy / dirty / replica).  nullopt falls back to the
  /// node's plain LRU choice.
  virtual std::optional<PageKey> PickVictim(ControllerId ctrl,
                                            const CacheNode& node) = 0;

  /// Demote every dirty flash page to disk; cb(true) once the flash tier
  /// holds no dirty data (FlushAll's durability contract).
  virtual void DrainDirty(util::Function<void(bool)> cb) = 0;
};

}  // namespace nlss::cache
