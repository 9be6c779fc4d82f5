#include "net/fabric.h"

#include <cassert>
#include <cmath>
#include <deque>

#include "util/units.h"

namespace nlss::net {

using util::GbpsToBytesPerNs;

LinkProfile LinkProfile::FibreChannel1G() {
  return LinkProfile{.latency_ns = 1000, .bytes_per_ns = GbpsToBytesPerNs(1.0)};
}
LinkProfile LinkProfile::FibreChannel2G() {
  return LinkProfile{.latency_ns = 1000, .bytes_per_ns = GbpsToBytesPerNs(2.0)};
}
LinkProfile LinkProfile::GigE() {
  // IP attach: higher latency (software stack), 1 Gb/s.
  return LinkProfile{.latency_ns = 50000, .bytes_per_ns = GbpsToBytesPerNs(1.0)};
}
LinkProfile LinkProfile::TenGbE() {
  return LinkProfile{.latency_ns = 1500, .bytes_per_ns = GbpsToBytesPerNs(10.0)};
}
LinkProfile LinkProfile::Infiniband4x() {
  return LinkProfile{.latency_ns = 200, .bytes_per_ns = GbpsToBytesPerNs(10.0)};
}
LinkProfile LinkProfile::Backplane() {
  // Intra-cluster controller mesh: short, fat pipes (the paper's
  // "network as backplane").
  return LinkProfile{.latency_ns = 500, .bytes_per_ns = GbpsToBytesPerNs(8.0)};
}
LinkProfile LinkProfile::Wan(sim::Tick one_way_latency_ns, double gbps) {
  return LinkProfile{.latency_ns = one_way_latency_ns,
                     .bytes_per_ns = GbpsToBytesPerNs(gbps)};
}

NodeId Fabric::AddNode(std::string name) {
  nodes_.push_back(Node{.name = std::move(name), .up = true, .out = {}});
  routes_valid_ = false;
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Fabric::Connect(NodeId a, NodeId b, const LinkProfile& profile) {
  Connect(a, b, profile, profile);
}

void Fabric::Connect(NodeId a, NodeId b, const LinkProfile& ab,
                     const LinkProfile& ba) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  links_.push_back(Link{.to = b, .profile = ab, .busy_until = 0, .up = true,
                        .stats = {}});
  nodes_[a].out.push_back(links_.size() - 1);
  links_.push_back(Link{.to = a, .profile = ba, .busy_until = 0, .up = true,
                        .stats = {}});
  nodes_[b].out.push_back(links_.size() - 1);
  routes_valid_ = false;
}

void Fabric::SetNodeUp(NodeId n, bool up) {
  assert(n < nodes_.size());
  nodes_[n].up = up;
  routes_valid_ = false;
}

std::size_t Fabric::FindLinkIndex(NodeId a, NodeId b) const {
  for (std::size_t li : nodes_[a].out) {
    if (links_[li].to == b) return li;
  }
  return static_cast<std::size_t>(-1);
}

void Fabric::SetLinkUp(NodeId a, NodeId b, bool up) {
  const std::size_t ab = FindLinkIndex(a, b);
  const std::size_t ba = FindLinkIndex(b, a);
  if (ab != static_cast<std::size_t>(-1)) links_[ab].up = up;
  if (ba != static_cast<std::size_t>(-1)) links_[ba].up = up;
  routes_valid_ = false;
}

void Fabric::SetLinkDegraded(NodeId a, NodeId b, sim::Tick extra_ns,
                             std::uint32_t stall_every, sim::Tick stall_ns) {
  for (const std::size_t li : {FindLinkIndex(a, b), FindLinkIndex(b, a)}) {
    if (li == static_cast<std::size_t>(-1)) continue;
    links_[li].extra_ns = extra_ns;
    links_[li].stall_every = stall_every;
    links_[li].stall_ns = stall_ns;
  }
}

void Fabric::EnsureRoutes() {
  if (routes_valid_) return;
  const std::size_t n = nodes_.size();
  routes_.assign(n * n, static_cast<std::size_t>(-1));
  // BFS from every source over up nodes/links; first hop recorded per dst.
  std::deque<NodeId> q;
  std::vector<std::size_t> first_hop(n);
  std::vector<bool> visited(n);
  for (NodeId src = 0; src < n; ++src) {
    if (!nodes_[src].up) continue;
    std::fill(visited.begin(), visited.end(), false);
    std::fill(first_hop.begin(), first_hop.end(), static_cast<std::size_t>(-1));
    visited[src] = true;
    q.clear();
    q.push_back(src);
    while (!q.empty()) {
      const NodeId cur = q.front();
      q.pop_front();
      for (std::size_t li : nodes_[cur].out) {
        const Link& l = links_[li];
        if (!l.up || !nodes_[l.to].up || visited[l.to]) continue;
        visited[l.to] = true;
        first_hop[l.to] = (cur == src) ? li : first_hop[cur];
        routes_[src * n + l.to] = first_hop[l.to];
        q.push_back(l.to);
      }
    }
  }
  routes_valid_ = true;
}

std::size_t Fabric::HopCount(NodeId src, NodeId dst) {
  if (src == dst) return 0;
  EnsureRoutes();
  const std::size_t n = nodes_.size();
  std::size_t hops = 0;
  NodeId cur = src;
  while (cur != dst) {
    const std::size_t li = routes_[cur * n + dst];
    if (li == static_cast<std::size_t>(-1)) {
      return static_cast<std::size_t>(-1);
    }
    cur = links_[li].to;
    ++hops;
    if (hops > n) return static_cast<std::size_t>(-1);  // defensive
  }
  return hops;
}

void Fabric::Send(NodeId src, NodeId dst, std::uint64_t bytes,
                  sim::Engine::Callback on_delivered,
                  sim::Engine::Callback on_dropped, obs::TraceContext ctx) {
  assert(src < nodes_.size() && dst < nodes_.size());
  if (src == dst) {
    // Loopback: no fabric cost beyond a scheduling point.
    engine_.Schedule(0, std::move(on_delivered));
    return;
  }
  if (ctx.sampled()) {
    // One network span covers the whole multi-hop transfer.  If the message
    // is dropped with no drop handler the span stays open and is clamped at
    // trace end.
    const obs::TraceContext span =
        obs::StartSpan(ctx, obs::Layer::kNet, "net.send");
    on_delivered = [span, cb = std::move(on_delivered)] {
      obs::EndSpan(span);
      cb();
    };
    if (on_dropped) {
      on_dropped = [span, cb = std::move(on_dropped)] {
        obs::EndSpan(span);
        cb();
      };
    }
  }
  // The per-hop walk re-resolves the route at each hop so that topology
  // changes mid-flight behave like a real fabric (packet follows current
  // tables; drops if the path disappears).
  struct Transit {
    Fabric* fabric;
    NodeId dst;
    std::uint64_t bytes;
    sim::Engine::Callback delivered;
    sim::Engine::Callback dropped;

    void Hop(NodeId cur) {
      Fabric& f = *fabric;
      auto fail = [this] {
        ++fabric->dropped_;
        if (dropped) dropped();
      };
      if (!f.nodes_[cur].up || !f.nodes_[dst].up) {
        fail();
        return;
      }
      f.EnsureRoutes();
      const std::size_t li = f.routes_[cur * f.nodes_.size() + dst];
      if (li == static_cast<std::size_t>(-1)) {
        fail();
        return;
      }
      Link& l = f.links_[li];
      const sim::Tick now = f.engine_.now();
      const sim::Tick start = std::max(now, l.busy_until);
      const auto ser = static_cast<sim::Tick>(
          std::llround(static_cast<double>(bytes) / l.profile.bytes_per_ns));
      l.busy_until = start + ser;
      l.stats.bytes += bytes;
      l.stats.messages += 1;
      l.stats.busy_ns += ser;
      sim::Tick degrade = l.extra_ns;
      if (l.stall_every > 0 && l.stats.messages % l.stall_every == 0) {
        degrade += l.stall_ns;
      }
      const sim::Tick arrival = start + ser + l.profile.latency_ns + degrade;
      const NodeId next = l.to;
      // Copy the Transit by value into the event so it survives this frame.
      Transit self = std::move(*this);
      f.engine_.ScheduleAt(arrival,
                           [self = std::move(self), next]() mutable {
                             if (next == self.dst) {
                               self.delivered();
                             } else {
                               self.Hop(next);
                             }
                           });
    }
  };
  Transit t{this, dst, bytes, std::move(on_delivered), std::move(on_dropped)};
  t.Hop(src);
}

LinkStats Fabric::StatsFor(NodeId a, NodeId b) const {
  const std::size_t li = FindLinkIndex(a, b);
  return li == static_cast<std::size_t>(-1) ? LinkStats{} : links_[li].stats;
}

std::uint64_t Fabric::TotalBytesCarried() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l.stats.bytes;
  return total;
}

}  // namespace nlss::net
