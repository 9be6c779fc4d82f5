// National lab grid: three laboratories joined into one metadata center
// (paper Figure 3).  A West-coast lab produces simulation output; East
// scientists read it (first touch migrates + prefetches); critical results
// are synchronously replicated per-file; a full site outage fails over with
// zero loss for the protected data.
//
// Build & run:  ./build/examples/example_national_lab_grid
#include <cstdio>

#include "geo/geo.h"
#include "mgmt/manager.h"
#include "util/bytes.h"
#include "util/units.h"

using namespace nlss;

namespace {

controller::SystemConfig LabConfig(const char* name) {
  controller::SystemConfig c;
  c.name = name;
  c.controllers = 4;
  c.raid_groups = 2;
  c.disk_profile.capacity_blocks = 64 * 1024;
  return c;
}

}  // namespace

int main() {
  std::printf("=== National lab shared storage: 3 sites, 1 data image ===\n\n");

  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster grid(engine, fabric);

  const auto west = grid.AddSite("west-lab", LabConfig("west"),
                                 geo::Location{0, 0});
  const auto central = grid.AddSite("central-lab", LabConfig("central"),
                                    geo::Location{1800, 0});
  const auto east = grid.AddSite("east-lab", LabConfig("east"),
                                 geo::Location{4200, 0});
  // OC-48-ish links, latency ~5 us/km.
  grid.ConnectSites(west, central, net::LinkProfile::Wan(9 * util::kNsPerMs, 2.5));
  grid.ConnectSites(central, east, net::LinkProfile::Wan(12 * util::kNsPerMs, 2.5));
  grid.ConnectSites(west, east, net::LinkProfile::Wan(21 * util::kNsPerMs, 2.5));

  grid.Mkdir("/fusion");

  // Ordinary simulation output: home at West, no geo replication.
  grid.Create("/fusion/run42.raw", west);
  // Critical reduced results: synchronously replicated to the nearest
  // site, asynchronously beyond (per-file policy, paper section 7.2).
  fs::FilePolicy critical;
  critical.geo_replicate = true;
  critical.geo_sync = true;
  critical.geo_sites = 3;
  grid.Create("/fusion/results.db", west, critical);

  const util::Payload raw(8 * util::MiB, [](std::span<std::uint8_t> out) {
    util::FillPattern(out, 42);
  });
  const util::Payload results(1 * util::MiB, [](std::span<std::uint8_t> out) {
    util::FillPattern(out, 43);
  });

  bool ok = false;
  sim::Tick t0 = engine.now();
  grid.Write(west, "/fusion/run42.raw", 0, raw, [&](fs::Status s) {
    ok = s == fs::Status::kOk;
  });
  engine.Run();
  std::printf("West wrote 8 MiB raw output: %s (%.2f ms, local only)\n",
              ok ? "ok" : "FAILED", (engine.now() - t0) / 1e6);

  t0 = engine.now();
  sim::Tick acked = 0;
  grid.Write(west, "/fusion/results.db", 0, results, [&](fs::Status s) {
    ok = s == fs::Status::kOk;
    acked = engine.now();
  });
  engine.Run();
  std::printf("West wrote 1 MiB critical results: %s "
              "(acked %.2f ms: waits for the sync replica at Central)\n",
              ok ? "ok" : "FAILED", (acked - t0) / 1e6);

  // An East scientist reads the raw data: first touch crosses the WAN,
  // the rest of the file is prefetched, repeat access is local.
  auto timed_read = [&](const char* label) {
    t0 = engine.now();
    sim::Tick done = 0;
    grid.Read(east, "/fusion/run42.raw", 0, 1 * util::MiB,
              [&](fs::Status s, util::Payload) {
                ok = s == fs::Status::kOk;
                done = engine.now();
              });
    engine.Run();
    std::printf("East read 1 MiB (%s): %s in %.2f ms\n", label,
                ok ? "ok" : "FAILED", (done - t0) / 1e6);
  };
  timed_read("first touch: WAN migration");
  timed_read("second read: local copy");

  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  std::printf("async replication queues drained: %s\n\n",
              drained ? "yes" : "no");

  // Disaster: the West lab goes dark.
  std::printf("--- West lab suffers a complete site outage ---\n");
  grid.FailSite(west);
  std::printf("results.db failed over to: %s\n",
              grid.site(grid.HomeOf("/fusion/results.db")).name().c_str());

  util::Payload recovered;
  grid.Read(central, "/fusion/results.db", 0, results.size(),
            [&](fs::Status s, util::Payload d) {
              ok = s == fs::Status::kOk;
              recovered = std::move(d);
            });
  engine.Run();
  std::printf("critical results after failover: %s, content %s\n",
              ok ? "readable" : "LOST",
              recovered == results ? "intact (zero loss)" : "CORRUPT");

  grid.Read(central, "/fusion/run42.raw", 0, 1024,
            [&](fs::Status s, util::Payload) { ok = s == fs::Status::kOk; });
  engine.Run();
  std::printf("unprotected raw output after failover: %s "
              "(no replica existed)\n\n",
              ok ? "readable" : "unavailable");

  std::printf("geo status:\n%s\n", mgmt::GeoStatusReport(grid).c_str());
  return 0;
}
