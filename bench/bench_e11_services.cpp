// E11 (paper §2.4): storage services — point-in-time copies — are
// distributed and do not gate foreground I/O.  A snapshot is metadata-only
// (instant); subsequent copy-on-write happens lazily per-extent, and
// foreground latency stays bounded while a "backup" (full snapshot read)
// streams in the background.
#include "bench/common.h"

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  PrintHeader("E11", "Point-in-time copies without gating I/O (paper 2.4)",
              "snapshots/backups are distributed operations that do not "
              "impede active I/O rates delivered to servers");

  controller::SystemConfig config;
  config.name = "e11";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.flush_delay_ns = 100 * util::kNsPerMs;
  TestBed bed(config, 4);
  const std::uint64_t dataset = 128 * util::MiB;
  const auto vol = bed.system->CreateVolume("e11", dataset);
  Preload(bed, vol, dataset);

  // Snapshot creation cost: metadata only.
  const sim::Tick snap_start = bed.engine.now();
  const auto snap = bed.system->volume(vol).CreateSnapshot();
  const sim::Tick snap_cost = bed.engine.now() - snap_start;
  std::printf("\nsnapshot creation: %llu ns of simulated time, 0 bytes "
              "copied up front\n", (unsigned long long)snap_cost);

  // Foreground writes measure their latency in three phases.
  auto measure_phase = [&](const char* label, bool snapshot_held,
                           bool backup_running) -> double {
    if (backup_running) {
      // Stream the snapshot image (a "backup") in the background.  Each
      // read's completion carries the next step; nothing holds itself.
      const auto backup = [&, vol, snap](const auto& self,
                                         std::uint64_t off) -> void {
        if (off >= dataset) return;
        bed.system->volume(vol).ReadSnapshotBlocks(
            snap, off / 4096, 512, [self, off](bool, util::Payload) {
              self(self, off + 512 * 4096);
            });
      };
      backup(backup, 0);
    }
    util::Rng rng(7);
    auto [bytes, latency] = ClosedLoop::Run(
        bed.engine, 4, bed.engine.now() + util::kNsPerSec,
        [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
          util::Payload data(64 * util::KiB, [&](std::span<std::uint8_t> out) {
            util::FillPattern(out, rng.Next());
          });
          const std::uint64_t off =
              rng.Below(dataset / (64 * util::KiB)) * 64 * util::KiB;
          bed.system->Write(bed.hosts[h], vol, off, std::move(data),
                            [done = std::move(done)](bool ok) {
                              done(ok, 64 * util::KiB);
                            });
        });
    std::printf("  %-34s p50 %6.0f us   p99 %8.0f us   (%.0f MB/s)\n", label,
                latency.Percentile(0.5) / 1e3, latency.Percentile(0.99) / 1e3,
                util::ThroughputMBps(bytes, util::kNsPerSec));
    (void)snapshot_held;
    return latency.Mean();
  };

  std::printf("\nforeground 64 KiB random-write latency:\n");
  // Phase 1: snapshot held -> every first write to an extent pays a COW.
  const double with_cow =
      measure_phase("snapshot held (COW active)", true, false);
  // Phase 2: plus a concurrent backup stream of the snapshot.
  const double with_backup =
      measure_phase("snapshot + backup stream", true, true);
  bed.engine.Run();
  // Phase 3: snapshot deleted -> back to plain writes.
  bed.system->volume(vol).DeleteSnapshot(snap);
  const double baseline_lat =
      measure_phase("no snapshot (baseline)", false, false);

  std::printf("\ncow copies performed lazily: %llu; mean latency overhead: "
              "COW %.0f%%, +backup %.0f%%\n",
              (unsigned long long)bed.system->volume(vol).cow_copies(),
              100.0 * (with_cow - baseline_lat) / baseline_lat,
              100.0 * (with_backup - baseline_lat) / baseline_lat);
  std::printf("\nExpected shape: snapshot creation is free; COW adds a "
              "bounded per-extent\nfirst-write cost; a concurrent backup "
              "stream leaves foreground writes usable\n(shared disks add "
              "some latency, not a stall).\n");
  return 0;
}
