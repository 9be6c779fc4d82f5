// Quickstart: stand up a single-site shared storage system, carve a
// demand-mapped volume from the pool, do cached I/O through the controller
// cluster, and inspect the management plane's status report.
//
// Build & run:  ./build/examples/example_quickstart
#include <cstdio>

#include "controller/system.h"
#include "mgmt/manager.h"
#include "util/bytes.h"
#include "util/units.h"

using namespace nlss;

int main() {
  std::printf("=== NLSS quickstart: one site, four controller blades ===\n\n");

  sim::Engine engine;
  net::Fabric fabric(engine);

  controller::SystemConfig config;
  config.name = "lab-west";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disks_per_group = 5;
  config.raid_level = raid::RaidLevel::kRaid5;
  config.disk_profile.capacity_blocks = 64 * 1024;  // 256 MiB per disk
  config.cache.replication = 2;                     // 2-way dirty-data copies
  controller::StorageSystem system(engine, fabric, config);

  const net::NodeId host = system.AttachHost("compute-node-0");

  // A 10 GiB thin volume: costs nothing until written.
  const auto vol = system.CreateVolume("astro", 10 * util::GiB);
  std::printf("created 10 GiB thin volume; allocated now: %llu bytes\n",
              (unsigned long long)system.volume(vol).AllocatedBytes());

  // Write 16 MiB of telescope data through the coherent cache.
  util::Bytes data(16 * util::MiB);
  util::FillPattern(data, 2026);
  bool ok = false;
  system.Write(host, vol, 0, util::Payload::Copy(data),
               [&](bool r) { ok = r; });
  engine.Run();
  std::printf("wrote 16 MiB: %s (simulated time %.2f ms)\n",
              ok ? "ok" : "FAILED", engine.now() / 1e6);

  // Read it back through a different code path (cache hits).
  util::Bytes back;
  system.Read(host, vol, 0, static_cast<std::uint32_t>(data.size()),
              [&](bool r, util::Payload d) {
                ok = r;
                back = d.ToBytes();
              });
  engine.Run();
  std::printf("read back 16 MiB: %s, content %s\n", ok ? "ok" : "FAILED",
              back == data ? "verified" : "MISMATCH");

  // Demand mapping: physical use tracks the data, not the 10 GiB size.
  std::printf("allocated after writes: %.1f MiB of the 10 GiB device\n",
              system.volume(vol).AllocatedBytes() / 1048576.0);

  // Kill a controller blade mid-flight; the cluster recovers and data
  // remains readable through the surviving blades.
  std::printf("\nfailing controller 2...\n");
  system.FailController(2);
  system.RecoverCluster();
  system.Read(host, vol, 0, 1 * util::MiB, [&](bool r, util::Payload) {
    ok = r;
  });
  engine.Run();
  std::printf("read after blade failure: %s\n", ok ? "ok" : "FAILED");

  // Management plane: web-style JSON status.
  mgmt::StatusReporter reporter(system);
  std::printf("\nstatus report (JSON):\n%s\n", reporter.Report().c_str());
  return 0;
}
