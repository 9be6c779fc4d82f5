// CacheNode: one controller blade's local page cache — frames, LRU
// replacement, pinning.  All coherence decisions live in CacheCluster;
// this class only manages local frame storage.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <type_traits>
#include <unordered_map>

#include "cache/dedup.h"
#include "cache/types.h"
#include "util/payload.h"

namespace nlss::cache {

class CacheNode {
 public:
  struct Frame {
    util::Payload data;
    bool dirty = false;
    bool busy = false;      // operation (fill/flush) in progress: not evictable
    bool is_replica = false;  // N-way replication copy held for a peer
    ControllerId replica_owner = kNoController;  // valid when is_replica
    std::uint64_t dirty_epoch = 0;  // bumped per write; guards stale flushes
    std::uint8_t priority = 0;  // retention priority (paper §4): evict low first
    // WriteId of the attributed write that last dirtied this frame (invalid
    // for legacy unattributed traffic).  The flush coalescer carries it as
    // the representative (writer, seq) for each page of a merged back-end
    // write, so dedup cancel/ghost-write accounting stays auditable after
    // pages from different writers ride one backing write.
    WriteId last_write;
  };

  explicit CacheNode(std::uint64_t capacity_pages)
      : capacity_pages_(capacity_pages) {}

  /// Lookup; returns nullptr on miss.  Does not touch LRU.
  Frame* Find(const PageKey& key);
  const Frame* Find(const PageKey& key) const;

  /// Move to MRU position.
  void Touch(const PageKey& key);

  /// Insert a new frame (key must be absent).  Caller must have made room.
  Frame& Emplace(const PageKey& key);

  void Erase(const PageKey& key);

  bool Full() const { return frames_.size() >= capacity_pages_; }
  std::size_t size() const { return frames_.size(); }
  std::uint64_t capacity_pages() const { return capacity_pages_; }

  /// LRU-order victim that is neither busy nor a pinned replica.  With
  /// `require_clean`, dirty frames are skipped too (the cluster evicts
  /// clean frames immediately and schedules flushes for dirty ones).
  /// nullopt if nothing qualifies.
  std::optional<PageKey> ChooseVictim(bool require_clean) const;

  /// Drop every frame (controller failure).
  void Clear();

  /// Iterate frames (directory rebuild, replica promotion, tier scans).
  /// Walks the LRU list rather than the hash map so visit order is
  /// deterministic — the callbacks feed directory state and therefore the
  /// digest.  A visitor that returns bool ends the walk by returning false.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const PageKey& key : lru_) {
      const Frame& f = frames_.find(key)->second.frame;
      if constexpr (std::is_same_v<decltype(fn(key, f)), bool>) {
        if (!fn(key, f)) return;
      } else {
        fn(key, f);
      }
    }
  }

 private:
  struct Entry {
    Frame frame;
    std::list<PageKey>::iterator lru_it;
  };

  std::uint64_t capacity_pages_;
  std::unordered_map<PageKey, Entry, PageKeyHash> frames_;
  std::list<PageKey> lru_;  // front = LRU, back = MRU
};

}  // namespace nlss::cache
