// One shard of the sharded namespace service: a DES service queue (one op
// in service at a time, FIFO) that serializes the metadata operations on
// the directories the shard map routes to it, which is what makes shard
// count a real throughput axis — a single shard is the single-metadata-
// server baseline, sixteen shards are sixteen independent queues.  The
// directory records themselves live in the service's one meta::Namespace.
#pragma once

#include <cstdint>

#include "sim/engine.h"
#include "util/function.h"

namespace nlss::meta {

using ShardId = std::uint32_t;

class MetaShard {
 public:
  struct Stats {
    std::uint64_t lookups = 0;    // single-dentry reads
    std::uint64_t mutations = 0;  // create/unlink/mkdir/rmdir/rename applies
    std::uint64_t scans = 0;      // ordered listings / range scans
    sim::Tick busy_ns = 0;        // total service time charged
    sim::Tick queue_ns = 0;       // total time ops waited for the shard
  };

  explicit MetaShard(sim::Engine& engine) : engine_(engine) {}

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

  const Stats& stats() const { return stats_; }
  std::uint64_t ops() const {
    return stats_.lookups + stats_.mutations + stats_.scans;
  }

 private:
  sim::Engine& engine_;
  sim::Tick busy_until_ = 0;
  Stats stats_;
};

}  // namespace nlss::meta
