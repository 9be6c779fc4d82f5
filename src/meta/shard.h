// One shard of the sharded namespace service: owns the directories the
// shard map assigns to it and serializes their metadata operations through
// a DES service queue (one op in service at a time, FIFO), which is what
// makes shard count a real throughput axis — a single shard is the
// single-metadata-server baseline, sixteen shards are sixteen independent
// queues.
#pragma once

#include <cstdint>
#include <map>

#include "meta/btree.h"
#include "sim/engine.h"
#include "util/function.h"

namespace nlss::meta {

using DirId = std::uint64_t;
using ShardId = std::uint32_t;
inline constexpr DirId kRootDir = 1;

/// A directory: ordered dentry index + a version stamp bumped on every
/// entry mutation.  The version is the coherence token host dentry caches
/// validate against — a cached entry is valid iff its recorded parent
/// version still matches.
struct Directory {
  DirId id = 0;
  DirId parent = 0;
  std::uint64_t version = 1;
  DentryIndex entries;
};

class MetaShard {
 public:
  struct Stats {
    std::uint64_t lookups = 0;    // single-dentry reads
    std::uint64_t mutations = 0;  // create/unlink/mkdir/rmdir/rename applies
    std::uint64_t scans = 0;      // ordered listings / range scans
    sim::Tick busy_ns = 0;        // total service time charged
    sim::Tick queue_ns = 0;       // total time ops waited for the shard
  };

  MetaShard(sim::Engine& engine, ShardId id) : engine_(engine), id_(id) {}

  // --- Directory table -------------------------------------------------------
  Directory* Find(DirId id) {
    const auto it = dirs_.find(id);
    return it == dirs_.end() ? nullptr : &it->second;
  }
  const Directory* Find(DirId id) const {
    const auto it = dirs_.find(id);
    return it == dirs_.end() ? nullptr : &it->second;
  }
  Directory& Create(DirId id, DirId parent) {
    Directory& d = dirs_[id];
    d.id = id;
    d.parent = parent;
    return d;
  }
  void Erase(DirId id) { dirs_.erase(id); }
  std::size_t dir_count() const { return dirs_.size(); }

  /// Migrate a directory record out of this shard (controller-driven
  /// rebalance); returns false when the shard does not own it.
  bool MoveOut(DirId id, MetaShard& to) {
    const auto it = dirs_.find(id);
    if (it == dirs_.end()) return false;
    to.dirs_[id] = std::move(it->second);
    dirs_.erase(it);
    return true;
  }

  // --- DES service queue -----------------------------------------------------
  enum class OpClass : std::uint8_t { kLookup, kMutation, kScan };

  /// Run `fn` after this shard has a free service slot plus `cost_ns` of
  /// service time; ops execute strictly in arrival order.
  void Execute(OpClass klass, sim::Tick cost_ns, util::Function<void()> fn) {
    switch (klass) {
      case OpClass::kLookup: ++stats_.lookups; break;
      case OpClass::kMutation: ++stats_.mutations; break;
      case OpClass::kScan: ++stats_.scans; break;
    }
    const sim::Tick now = engine_.now();
    const sim::Tick start = busy_until_ > now ? busy_until_ : now;
    stats_.queue_ns += start - now;
    stats_.busy_ns += cost_ns;
    busy_until_ = start + cost_ns;
    engine_.ScheduleAt(busy_until_, std::move(fn));
  }

  ShardId id() const { return id_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t ops() const {
    return stats_.lookups + stats_.mutations + stats_.scans;
  }

 private:
  sim::Engine& engine_;
  ShardId id_;
  std::map<DirId, Directory> dirs_;  // ordered: deterministic iteration
  sim::Tick busy_until_ = 0;
  Stats stats_;
};

}  // namespace nlss::meta
