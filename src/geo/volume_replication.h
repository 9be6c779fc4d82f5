// Virtual-disk-level geographic replication (paper §6.2: "when the file
// system was not used, replication could be specified for the entire
// virtual disk", and §7.2: "the remote copy resides within a pool... would
// remove the restriction of copies being the same size").
//
// ReplicatedBacking slots between the cache and a local volume: reads are
// local; every write that reaches the backing store is also applied to a
// remote site's (demand-mapped, independently sized) volume across the WAN
// — synchronously (the write waits for the remote ack) or asynchronously
// via an in-order queue whose depth is the RPO exposure.
//
// Because it sits *below* the write-back cache, replication traffic is
// flush-granular: coalesced rewrites cross the WAN once.
#pragma once

#include <cstdint>
#include <deque>

#include "cache/backing.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "util/function.h"

namespace nlss::geo {

class ReplicatedBacking final : public cache::BackingStore {
 public:
  struct Config {
    bool synchronous = false;
    std::uint32_t ctrl_msg_bytes = 256;
  };

  /// `local` serves reads and primary writes; `remote` (typically a volume
  /// in another site's pool — any size ≥ local) receives the copies over
  /// the WAN between the two gateway nodes.
  ReplicatedBacking(sim::Engine& engine, net::Fabric& fabric,
                    cache::BackingStore& local, net::NodeId local_gateway,
                    cache::BackingStore& remote, net::NodeId remote_gateway,
                    Config config);

  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {}) override;
  void WriteBlocks(std::uint64_t block, util::Payload data, WriteCallback cb,
                   obs::TraceContext ctx = {}) override;
  std::uint64_t CapacityBlocks() const override {
    return local_.CapacityBlocks();
  }
  std::uint32_t block_size() const override { return local_.block_size(); }

  /// Async-queue depth in bytes (the RPO exposure; 0 when synchronous).
  std::uint64_t PendingBytes() const { return pending_bytes_; }

  /// cb runs once the async queue is empty.
  void Drain(util::Function<void()> cb);

  /// Simulate loss of the primary: un-shipped queue entries are dropped
  /// and counted; returns the lost byte count.
  std::uint64_t FailPrimary();

  std::uint64_t replicated_writes() const { return replicated_writes_; }

  /// Root-trace each async shipment as a "geo.replicate" span (layer kGeo)
  /// — the queue outlives the originating request, so shipped copies are
  /// otherwise invisible in traces.  Pass nullptr to detach.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Update {
    std::uint64_t block;
    util::Payload data;
  };

  void Pump();
  void CheckDrained();

  sim::Engine& engine_;
  net::Fabric& fabric_;
  cache::BackingStore& local_;
  net::NodeId local_gw_;
  cache::BackingStore& remote_;
  net::NodeId remote_gw_;
  Config config_;
  std::deque<Update> queue_;
  std::uint64_t pending_bytes_ = 0;
  bool pumping_ = false;
  bool primary_failed_ = false;
  std::uint64_t replicated_writes_ = 0;
  std::vector<util::Function<void()>> drain_waiters_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace nlss::geo
