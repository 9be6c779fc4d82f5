#include "baseline/mirror_split.h"

#include <algorithm>

namespace nlss::baseline {

MirrorSplitReplicator::MirrorSplitReplicator(
    sim::Engine& engine, net::Fabric& fabric, net::NodeId src_gateway,
    net::NodeId dst_gateway, util::Function<std::uint64_t()> volume_bytes,
    Config config)
    : engine_(engine),
      fabric_(fabric),
      src_(src_gateway),
      dst_(dst_gateway),
      volume_bytes_(std::move(volume_bytes)),
      config_(config) {}

void MirrorSplitReplicator::Start() {
  if (running_) return;
  running_ = true;
  RunCycle();
}

void MirrorSplitReplicator::RunCycle() {
  if (!running_) return;
  const std::uint64_t total = volume_bytes_();
  if (total == 0) {
    engine_.Schedule(config_.interval_ns, [this] { RunCycle(); });
    return;
  }
  ShipChunks(total);
}

void MirrorSplitReplicator::ShipChunks(std::uint64_t remaining) {
  if (!running_) return;
  if (remaining == 0) {
    last_completed_ = engine_.now();
    ++copies_;
    engine_.Schedule(config_.interval_ns, [this] { RunCycle(); });
    return;
  }
  const std::uint64_t n = std::min(remaining, config_.chunk_bytes);
  fabric_.Send(src_, dst_, n,
               [this, remaining, n] {
                 shipped_ += n;
                 ShipChunks(remaining - n);
               },
               [this] {
                 // WAN down or source dead: the cycle never completes.
                 running_ = false;
               });
}

sim::Tick MirrorSplitReplicator::RecoveryPointAge() const {
  if (copies_ == 0) return engine_.now();
  return engine_.now() - last_completed_;
}

}  // namespace nlss::baseline
