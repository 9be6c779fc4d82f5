// The legacy remote-replication scheme the paper criticizes (§7.2):
// periodically freeze a local mirror, copy the *entire volume* to the
// remote site, and resume.  Recovery point = the last completed copy, so
// the RPO is up to a full cycle; every cycle ships every allocated byte
// whether it changed or not.
//
// Compared against file-granular continuous replication in E9 and E12.
#pragma once

#include <cstdint>

#include "net/fabric.h"
#include "sim/engine.h"
#include "util/function.h"

namespace nlss::baseline {

class MirrorSplitReplicator {
 public:
  struct Config {
    sim::Tick interval_ns = 3600ull * 1000000000;  // hourly copies
    std::uint64_t chunk_bytes = 4 * 1024 * 1024;   // WAN send granularity
  };

  /// `volume_bytes` is polled at the start of each cycle (the whole
  /// allocated image is shipped each time).
  MirrorSplitReplicator(sim::Engine& engine, net::Fabric& fabric,
                        net::NodeId src_gateway, net::NodeId dst_gateway,
                        util::Function<std::uint64_t()> volume_bytes,
                        Config config);

  void Start();
  void Stop() { running_ = false; }

  /// Simulated time of the last *completed* full copy (0 if none); the
  /// recovery point after a disaster.
  sim::Tick last_copy_completed() const { return last_completed_; }
  std::uint64_t copies_completed() const { return copies_; }
  std::uint64_t wan_bytes_shipped() const { return shipped_; }

  /// RPO if the source died right now: the data written since the last
  /// completed copy is gone — callers convert this age to lost bytes.
  sim::Tick RecoveryPointAge() const;

 private:
  void RunCycle();
  void ShipChunks(std::uint64_t remaining);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  net::NodeId src_;
  net::NodeId dst_;
  util::Function<std::uint64_t()> volume_bytes_;
  Config config_;
  bool running_ = false;
  sim::Tick last_completed_ = 0;
  std::uint64_t copies_ = 0;
  std::uint64_t shipped_ = 0;
};

}  // namespace nlss::baseline
