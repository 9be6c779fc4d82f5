// Real-time disaster recovery vs the legacy mirror-split approach
// (paper §6.2, §7.2): continuous file-granular replication bounds data loss
// at the async-queue window (zero for sync files), while periodic
// volume-level mirror copies lose everything since the last completed
// cycle — and ship every byte every time.
//
// Build & run:  ./build/examples/example_disaster_recovery
#include <cstdio>

#include "baseline/mirror_split.h"
#include "geo/geo.h"
#include "util/bytes.h"
#include "util/units.h"

using namespace nlss;

int main() {
  std::printf("=== Disaster recovery: continuous vs mirror-split ===\n\n");

  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster grid(engine, fabric);

  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 64 * 1024;
  const auto primary = grid.AddSite("primary", sc, geo::Location{0, 0});
  const auto dr_site = grid.AddSite("dr-site", sc, geo::Location{1500, 0});
  grid.ConnectSites(primary, dr_site,
                    net::LinkProfile::Wan(8 * util::kNsPerMs, 1.0));

  fs::FilePolicy sync_policy;
  sync_policy.geo_replicate = true;
  sync_policy.geo_sync = true;
  sync_policy.geo_sites = 2;
  fs::FilePolicy async_policy = sync_policy;
  async_policy.geo_sync = false;

  grid.Create("/ledger.db", primary, sync_policy);
  grid.Create("/telemetry.log", primary, async_policy);

  // The legacy comparator replicates the same data volume-style: a full
  // copy every 10 simulated seconds.
  const auto& primary_pool = grid.site(primary).system().pool();
  baseline::MirrorSplitReplicator::Config mc;
  mc.interval_ns = 10ull * util::kNsPerSec;
  baseline::MirrorSplitReplicator legacy(
      engine, fabric, grid.site(primary).gateway(),
      grid.site(dr_site).gateway(),
      [&] {
        return primary_pool.AllocatedExtents() * primary_pool.extent_bytes();
      },
      mc);
  legacy.Start();

  // Workload: one transaction per 100 ms to each file for 30 s.
  util::Bytes txn(64 * util::KiB);
  std::uint64_t writes = 0;
  std::function<void()> workload = [&] {
    if (engine.now() > 30 * util::kNsPerSec) return;
    util::FillPattern(txn, writes);
    grid.Write(primary, "/ledger.db", (writes % 64) * txn.size(),
               util::Payload::Copy(txn),
               [](fs::Status) {});
    grid.Write(primary, "/telemetry.log", (writes % 64) * txn.size(),
               util::Payload::Copy(txn),
               [](fs::Status) {});
    ++writes;
    engine.Schedule(100 * util::kNsPerMs, workload);
  };
  workload();
  engine.RunUntil(31 * util::kNsPerSec);

  std::printf("ran 30 s of transactions (%llu writes per file)\n",
              (unsigned long long)writes);
  std::printf("continuous replication WAN queue right now: %.2f MiB\n",
              grid.PendingAsyncBytes() / 1048576.0);
  std::printf("legacy mirror-split: %llu full copies, %.1f MiB shipped, "
              "recovery point age %.1f s\n\n",
              (unsigned long long)legacy.copies_completed(),
              legacy.wan_bytes_shipped() / 1048576.0,
              legacy.RecoveryPointAge() / 1e9);

  // DISASTER at t=31 s.
  std::printf("--- primary site destroyed at t=31 s ---\n");
  grid.FailSite(primary);
  engine.Run();

  std::printf("continuous replication losses: %llu updates "
              "(%.2f MiB) — all from the *async* file's queue\n",
              (unsigned long long)grid.losses().lost_async_updates,
              grid.losses().lost_async_bytes / 1048576.0);

  bool ok = false;
  grid.Read(dr_site, "/ledger.db", 0, txn.size(),
            [&](fs::Status s, util::Payload) { ok = s == fs::Status::kOk; });
  engine.Run();
  std::printf("sync-replicated ledger at DR site: %s (RPO = 0)\n",
              ok ? "fully intact" : "LOST");
  grid.Read(dr_site, "/telemetry.log", 0, txn.size(),
            [&](fs::Status s, util::Payload) { ok = s == fs::Status::kOk; });
  engine.Run();
  std::printf("async-replicated telemetry at DR site: %s "
              "(RPO = seconds of queue)\n",
              ok ? "available minus queued tail" : "LOST");
  std::printf("legacy mirror-split RPO at the moment of disaster: %.1f s of "
              "data gone\n",
              legacy.RecoveryPointAge() / 1e9);
  return 0;
}
