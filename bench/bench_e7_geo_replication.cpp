// E7 (paper §6.2, §7.2): file-granular geographic replication.  Synchronous
// writes pay the WAN round trip (so latency tracks distance); asynchronous
// writes ack locally and bound the loss window by the queue; unreplicated
// files pay nothing.  Policies are per-file, switchable at any time.
#include "bench/common.h"

#include "geo/geo.h"

namespace nlss::bench {
namespace {

using namespace nlss::geo;

constexpr std::uint32_t kOpBytes = 64 * util::KiB;

controller::SystemConfig SiteConfig() {
  controller::SystemConfig c;
  c.controllers = 2;
  c.raid_groups = 2;
  c.disk_profile.capacity_blocks = 16 * 1024;
  return c;
}

struct Timing {
  double sync_ms;
  double async_ms;
  double none_ms;
};

Timing MeasureAt(sim::Tick one_way_ns) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  GeoCluster grid(engine, fabric);
  const auto a = grid.AddSite("a", SiteConfig(), Location{0, 0});
  const auto b = grid.AddSite("b", SiteConfig(),
                              Location{one_way_ns / 5000.0, 0});
  grid.ConnectSites(a, b, net::LinkProfile::Wan(one_way_ns, 1.0));

  fs::FilePolicy sync_p;
  sync_p.geo_replicate = true;
  sync_p.geo_sync = true;
  sync_p.geo_sites = 2;
  fs::FilePolicy async_p = sync_p;
  async_p.geo_sync = false;
  grid.Create("/sync", a, sync_p);
  grid.Create("/async", a, async_p);
  grid.Create("/none", a);

  auto timed = [&](const std::string& path) {
    util::Bytes data(kOpBytes);
    // Average over a few writes.
    double total = 0;
    for (int i = 0; i < 5; ++i) {
      util::FillPattern(data, i);
      const sim::Tick start = engine.now();
      sim::Tick acked = 0;
      grid.Write(a, path, i * kOpBytes, util::Payload::Copy(data),
                 [&](fs::Status st) {
        if (st == fs::Status::kOk) acked = engine.now();
      });
      engine.Run();
      total += (acked - start) / 1e6;
    }
    return total / 5;
  };
  return {timed("/sync"), timed("/async"), timed("/none")};
}

}  // namespace
}  // namespace nlss::bench

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  using namespace nlss::geo;
  PrintHeader("E7", "Sync vs async geo-replication vs distance (paper 6.2)",
              "key files replicate synchronously (latency ~ RTT); less "
              "important files asynchronously (local latency); policy is "
              "per-file");

  util::Table table({"one-way WAN (ms)", "sync write (ms)",
                     "async write (ms)", "no replication (ms)"});
  for (const sim::Tick ms : {1u, 5u, 10u, 25u, 50u}) {
    const auto t = MeasureAt(ms * util::kNsPerMs);
    table.AddRow({util::Table::Cell(ms), util::Table::Cell(t.sync_ms, 2),
                  util::Table::Cell(t.async_ms, 2),
                  util::Table::Cell(t.none_ms, 2)});
  }
  table.Print("E7a: 64 KiB write ack latency at the home site:");

  // E7b: the async loss window under a write burst.
  sim::Engine engine;
  net::Fabric fabric(engine);
  GeoCluster grid(engine, fabric);
  const auto a = grid.AddSite("a", SiteConfig(), Location{0, 0});
  const auto b = grid.AddSite("b", SiteConfig(), Location{2000, 0});
  grid.ConnectSites(a, b, net::LinkProfile::Wan(10 * util::kNsPerMs, 0.622));
  fs::FilePolicy async_p;
  async_p.geo_replicate = true;
  async_p.geo_sites = 2;
  grid.Create("/burst", a, async_p);
  util::Bytes chunk(util::MiB);
  int acked = 0;
  for (int i = 0; i < 32; ++i) {
    util::FillPattern(chunk, i);
    grid.Write(a, "/burst", i * chunk.size(), util::Payload::Copy(chunk),
               [&](fs::Status st) { acked += st == fs::Status::kOk; });
  }
  engine.RunFor(300 * util::kNsPerMs);
  const double exposed = grid.PendingAsyncBytes() / double(util::MiB);
  std::printf("\nE7b: 32 MiB burst over an OC-12 (622 Mb/s) WAN: %d/32 MiB "
              "acked locally,\n  %.1f MiB still queued after 300 ms — the "
              "RPO exposure an operator trades\n  against sync latency.\n",
              acked, exposed);
  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  std::printf("  queue fully drained afterwards: %s\n",
              drained ? "yes" : "no");
  std::printf("\nExpected shape: sync latency ~ 2x one-way + base; async and"
              "\nunreplicated stay flat at local latency regardless of "
              "distance.\n");
  return 0;
}
