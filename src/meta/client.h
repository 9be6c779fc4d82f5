// Host-side dentry / path-resolution cache with version-stamped coherence.
//
// Each host::Initiator owns one Client.  A resolve first consults the
// local cache: a full-path hit is served after `kLocalHitNs` (no shard
// visit at all — this is what lets a 32-host storm keep hammering "/dN"
// components without serializing on the root directory's shard); a miss
// walks from the deepest cached ancestor, one MetaService::LookupStep per
// remaining component, caching every component it learns.
//
// Coherence: a cached path records the full chain of (directory, version)
// pairs its resolution read through — not just the leaf's parent — because
// renaming a directory invalidates every path beneath it, and those deeper
// paths never touched the renamed entry's own parent twice.  Mutations
// push OnDirectoryInvalidate(dir, version) synchronously at apply time,
// dropping every cached path whose chain includes `dir`.  Because a cache
// hit is *scheduled* (served kLocalHitNs later), a mutation can land
// between hit and serve — so the entry is re-validated when the hit timer
// fires and falls back to a fresh walk if it was dropped in the window.
// Net effect: no stale positive entry is ever served, cross-checked by an
// NLSS_INVARIANT(kMeta, ...) against the authoritative directory versions
// on every served hit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "meta/service.h"
#include "util/function.h"
#include "util/inline_vector.h"

namespace nlss::meta {

struct ClientConfig {
  /// Max cached entries (deterministic LRU eviction).  0 disables the
  /// cache entirely: every resolve walks the service from the root.
  std::size_t capacity = 4096;
  /// Root delegation (E18a): hold a version-stamped full copy of "/" and
  /// serve cold walks' first component locally instead of serializing
  /// every walk on the root directory's shard.  The copy is re-validated
  /// against the authoritative root version on every use and dropped on
  /// root invalidation, so it can never serve a stale entry.
  bool root_delegation = true;
};

struct ClientStats {
  std::uint64_t resolves = 0;
  std::uint64_t full_hits = 0;     // whole path served from cache
  std::uint64_t partial_hits = 0;  // walk started from a cached ancestor
  std::uint64_t misses = 0;        // walk started from the root
  std::uint64_t steps = 0;         // LookupSteps issued to the service
  std::uint64_t invalidations = 0;     // OnDirectoryInvalidate deliveries
  std::uint64_t dropped_entries = 0;   // entries removed by invalidation
  std::uint64_t evictions = 0;         // entries removed by LRU pressure
  /// Hits that lost the hit-to-serve race against a mutation and fell
  /// back to a service walk (counted in addition to the full_hit).
  std::uint64_t revalidation_fallbacks = 0;
  // --- Root delegation (E18a) ---------------------------------------------
  std::uint64_t delegation_grants = 0;  // root copies fetched
  std::uint64_t delegation_hits = 0;    // root steps served from the copy
  std::uint64_t delegation_joins = 0;   // walks that joined a grant fetch
  std::uint64_t delegation_drops = 0;   // copies dropped (root changed)
};

class Client {
 public:
  /// Service time of a full-path cache hit (host-local lookup).
  static constexpr sim::Tick kLocalHitNs = 400;

  Client(MetaService& service, std::string name, ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Resolve `path` to its dentry, through the cache.
  void Resolve(std::string_view path, MetaService::ResolveCallback cb,
               obs::TraceContext ctx = {});

  /// Coherence push from the service: `dir`'s contents changed (its
  /// version is now `version`; 0 = directory removed).  Drops every
  /// cached path whose resolution read through `dir`.
  void OnDirectoryInvalidate(DirId dir, std::uint64_t version);

  const std::string& name() const { return name_; }
  const ClientStats& stats() const { return stats_; }
  const ClientConfig& config() const { return config_; }
  std::size_t cached_entries() const { return size_; }
  /// Directories at least one cached path resolved through (one
  /// membership list each; a list goes with its last path).
  std::size_t dir_lists() const { return by_dir_.size(); }
  /// Fraction of resolves served entirely from cache.
  double HitRate() const {
    return stats_.resolves == 0
               ? 0.0
               : static_cast<double>(stats_.full_hits) /
                     static_cast<double>(stats_.resolves);
  }

 private:
  /// Doubly linked list threaded through its elements' own prev/next
  /// pointers: O(1) append and unlink, no allocation.
  template <typename T>
  struct List {
    T* head = nullptr;  // oldest
    T* tail = nullptr;
    void PushBack(T* n) {
      n->prev = tail;
      n->next = nullptr;
      (tail != nullptr ? tail->next : head) = n;
      tail = n;
    }
    void Unlink(T* n) {
      (n->prev != nullptr ? n->prev->next : head) = n->next;
      (n->next != nullptr ? n->next->prev : tail) = n->prev;
      n->prev = n->next = nullptr;
    }
  };

  struct Entry;
  /// One chain step of a cached path, linked into the membership list of
  /// the directory it read through.
  struct Link {
    DirId dir = 0;
    std::uint64_t version = 0;
    Entry* owner = nullptr;
    Link* prev = nullptr;
    Link* next = nullptr;
  };
  struct Entry {
    Dentry dentry;
    /// Root-first; chain.back().dir is the leaf's parent directory.  Never
    /// resized while linked: the directory lists point into it.
    std::vector<Link> chain;
    std::string key;         // normalized path
    std::uint32_t tag = 0;   // Tag(Path::PrefixHash of key)
    Entry* prev = nullptr;   // LRU neighbours (lru_); a free entry's next
    Entry* next = nullptr;   // links the free list
  };
  /// A path-index slot: a key's hash tag and 1 + its entry's pool index.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t entry = 0;
  };

  /// One resolve in flight, allocated once.  Every closure a resolve hands
  /// to the engine or the service captures the client and this record, so
  /// none outgrows util::Function's inline buffer.
  struct Walk {
    explicit Walk(std::string_view p) : path(p) {}
    Path path;
    /// (directory, version) per component read, root first: its size is
    /// the index of the next component.
    util::InlineVector<std::pair<DirId, std::uint64_t>, 8> chain;
    DirId dir = kRootDir;  // where the next component is looked up
    MetaService::ResolveCallback cb;
    obs::TraceContext ctx;
    bool traced = false;  // ctx is a trace this resolve started
  };
  using WalkPtr = std::unique_ptr<Walk>;

  /// Start a service walk: from the deepest cached ancestor when one
  /// exists, from the root otherwise.
  void BeginWalk(WalkPtr walk);
  /// Look up the next component in walk->dir.
  void WalkFrom(WalkPtr walk);
  /// The next component resolved to `d` at directory version `version`:
  /// cache it, then finish or walk on.
  void Advance(WalkPtr walk, Dentry d, std::uint64_t version);
  /// Serve a root-directory step from the delegation copy (fetching or
  /// joining a grant first when needed).
  void RootDelegationStep(WalkPtr walk);
  void Finish(WalkPtr walk, Status st, Dentry d);
  void DropRootGrant();
  /// The entry keyed by `path`'s prefix of `n` components, if cached.
  Entry* FindEntry(const Path& path, std::size_t n);
  /// Cache the walk's prefix of chain.size() components as `dentry`.
  void InsertEntry(const Walk& walk, Dentry dentry);
  void RemoveEntry(Entry& entry, std::uint64_t* counter);
  /// Take `entry`'s chain out of every directory list it sits in.
  void UnlinkChain(Entry& entry);
  void TouchLru(Entry& entry);
  /// The upper half of a Path hash: the index stores and probes it.
  static std::uint32_t Tag(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }
  std::size_t Home(std::uint32_t tag) const {
    return (tag * 0x9e3779b1u) >> index_shift_;
  }
  /// Race-detector key for this client's cached state about `dir`: each
  /// host cache is independent state, so the key is salted per client
  /// (deterministically, from the client's name).
  std::uint64_t RaceKey(DirId dir) const;

  MetaService& service_;
  std::string name_;
  ClientConfig config_;
  // The path index is open-addressed (linear probing, backward-shift
  // erase), sized once for capacity + 1 entries; pool_ never reallocates.
  // The index and by_dir_ are looked up, never iterated: every walk over
  // cached paths follows lru_ or a directory list, so no hash order can
  // reach the simulation.
  std::vector<Slot> index_;
  unsigned index_shift_ = 31;
  std::vector<Entry> pool_;
  Entry* free_ = nullptr;
  std::size_t size_ = 0;                          // cached entries
  std::unordered_map<DirId, List<Link>> by_dir_;  // chain dir -> its links
  List<Entry> lru_;  // least recently touched first: head is the victim
  // Root delegation state: a full, version-stamped copy of "/".
  bool root_grant_valid_ = false;
  bool root_grant_pending_ = false;
  bool root_grant_broken_ = false;  // fetch failed: stop re-trying forever
  DentryIndex root_copy_;
  std::uint64_t root_version_ = 0;
  std::vector<util::Function<void()>> root_grant_waiters_;
  ClientStats stats_;
};

}  // namespace nlss::meta
