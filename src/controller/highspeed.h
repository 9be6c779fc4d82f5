// High-speed link driving (paper §2.3 and Figure 1): a single large read is
// striped round-robin over several controller blades, each fed by its own
// Fibre Channel disk-side links; the blades take turns pushing segments out
// of a shared high-speed (e.g. 10 GbE) port, which delivers them to the
// client strictly in order.
//
// The port's egress link is the hard ceiling (10 Gb/s); each blade's feed
// tops out at its FC rate (2 x 2 Gb/s), so stream rate ~= min(10, 4 * k)
// Gb/s with k blades — exactly the curve experiment E2 reproduces.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "controller/system.h"
#include "net/fabric.h"
#include "util/function.h"

namespace nlss::controller {

class HighSpeedPort {
 public:
  struct Config {
    std::uint32_t segment_bytes = 512 * util::KiB;  // stripe granule
    std::uint32_t window_per_blade = 2;  // outstanding segments per blade
    net::LinkProfile egress = net::LinkProfile::TenGbE();
    net::LinkProfile blade_to_port = net::LinkProfile::Backplane();
  };

  struct StreamResult {
    bool ok = false;
    std::uint64_t bytes = 0;
    sim::Tick elapsed_ns = 0;
    double Gbps() const {
      return util::ThroughputGbps(bytes, elapsed_ns);
    }
  };

  /// Creates the port node, links every participating blade to it, and a
  /// client node behind the egress link.
  HighSpeedPort(StorageSystem& system, std::vector<cache::ControllerId> blades,
                Config config);

  /// Stream volume[offset, offset+length) to the client; segments are
  /// assigned blades[i % k] and delivered in order.
  void Stream(VolumeId vol, std::uint64_t offset, std::uint64_t length,
              util::Function<void(StreamResult)> done);

  net::NodeId port_node() const { return port_node_; }
  net::NodeId client_node() const { return client_node_; }

 private:
  struct StreamState {
    VolumeId vol = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t total_segments = 0;
    std::uint64_t next_to_issue = 0;
    std::uint64_t next_to_deliver = 0;   // in-order egress cursor
    std::uint64_t delivered_bytes = 0;
    std::map<std::uint64_t, std::uint64_t> arrived;  // seq -> bytes at port
    sim::Tick start = 0;
    bool failed = false;
    std::uint64_t outstanding = 0;
    util::Function<void(StreamResult)> done;
  };

  std::uint32_t SegBytes(const StreamState& s, std::uint64_t seq) const;
  void IssueMore(const std::shared_ptr<StreamState>& s);
  void IssueSegment(const std::shared_ptr<StreamState>& s, std::uint64_t seq,
                    cache::ControllerId blade, std::uint32_t attempt);
  void SegmentAtPort(const std::shared_ptr<StreamState>& s, std::uint64_t seq,
                     std::uint64_t bytes);
  void PumpEgress(const std::shared_ptr<StreamState>& s);
  void MaybeFinish(const std::shared_ptr<StreamState>& s);

  StorageSystem& system_;
  std::vector<cache::ControllerId> blades_;
  Config config_;
  net::NodeId port_node_;
  net::NodeId client_node_;
};

}  // namespace nlss::controller
