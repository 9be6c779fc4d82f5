// E12 (paper §7.2): file-granular replication ships only the bytes whose
// policies ask for it; volume-level replication treats "every byte of data
// the same whether appropriate or not".  A realistic mixed file population
// shows the WAN savings.
#include "bench/common.h"

#include "baseline/mirror_split.h"
#include "geo/geo.h"
#include "geo/volume_replication.h"

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  using namespace nlss::geo;
  PrintHeader("E12", "File-level vs volume-level replication traffic (7.2)",
              "replication behavior specified at file level: key files "
              "sync, others async or not at all — volume-level ships "
              "everything");

  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 64 * 1024;

  sim::Engine engine;
  net::Fabric fabric(engine);
  GeoCluster grid(engine, fabric);
  const auto a = grid.AddSite("a", sc, Location{0, 0});
  const auto b = grid.AddSite("b", sc, Location{1500, 0});
  grid.ConnectSites(a, b, net::LinkProfile::Wan(8 * util::kNsPerMs, 2.5));
  const auto gw_a = grid.site(a).gateway();
  const auto gw_b = grid.site(b).gateway();

  // File population: 10% critical (sync), 30% important (async),
  // 60% scratch (no geo replication).
  fs::FilePolicy critical;
  critical.geo_replicate = true;
  critical.geo_sync = true;
  critical.geo_sites = 2;
  fs::FilePolicy important = critical;
  important.geo_sync = false;
  constexpr int kFiles = 100;
  std::vector<std::string> names;
  std::uint64_t critical_bytes = 0, important_bytes = 0, scratch_bytes = 0;
  for (int f = 0; f < kFiles; ++f) {
    const std::string path = "/f" + std::to_string(f);
    names.push_back(path);
    if (f % 10 == 0) {
      grid.Create(path, a, critical);
    } else if (f % 10 <= 3) {
      grid.Create(path, a, important);
    } else {
      grid.Create(path, a);
    }
  }

  // Each file receives 1 MiB of updates (in 256 KiB writes).
  util::Bytes chunk(256 * util::KiB);
  std::uint64_t total_written = 0;
  for (int round = 0; round < 4; ++round) {
    for (int f = 0; f < kFiles; ++f) {
      util::FillPattern(chunk, f * 100 + round);
      bool ok = false;
      grid.Write(a, names[f], round * chunk.size(), util::Payload::Copy(chunk),
                 [&](fs::Status s) { ok = s == fs::Status::kOk; });
      engine.Run();
      if (!ok) std::abort();
      total_written += chunk.size();
      if (f % 10 == 0) {
        critical_bytes += chunk.size();
      } else if (f % 10 <= 3) {
        important_bytes += chunk.size();
      } else {
        scratch_bytes += chunk.size();
      }
    }
  }
  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  const std::uint64_t file_level_wan =
      fabric.StatsFor(gw_a, gw_b).bytes;

  // Volume-level comparator: one mirror-split full-image cycle ships every
  // allocated byte of the volume, regardless of importance.
  const auto& pool = grid.site(a).system().pool();
  const std::uint64_t image_bytes =
      pool.AllocatedExtents() * pool.extent_bytes();
  baseline::MirrorSplitReplicator::Config mc;
  mc.interval_ns = 60ull * util::kNsPerSec;
  baseline::MirrorSplitReplicator legacy(engine, fabric, gw_a, gw_b,
                                         [&] { return image_bytes; }, mc);
  const std::uint64_t before_legacy = fabric.StatsFor(gw_a, gw_b).bytes;
  legacy.Start();
  // Let exactly one full copy complete.
  while (legacy.copies_completed() == 0) {
    engine.RunFor(util::kNsPerSec);
  }
  legacy.Stop();
  const std::uint64_t volume_level_wan =
      fabric.StatsFor(gw_a, gw_b).bytes - before_legacy;

  // Middle scheme: volume-level *continuous* replication (our
  // ReplicatedBacking): every flushed delta crosses the WAN, importance-
  // blind but at least incremental.
  std::uint64_t continuous_wan = 0;
  {
    sim::Engine eng2;
    net::Fabric fab2(eng2);
    const auto gw1 = fab2.AddNode("gw1");
    const auto gw2 = fab2.AddNode("gw2");
    fab2.Connect(gw1, gw2, net::LinkProfile::Wan(8 * util::kNsPerMs, 2.5));
    cache::MemBacking local(eng2, 64 * 1024), remote(eng2, 64 * 1024);
    ReplicatedBacking repl(eng2, fab2, local, gw1, remote, gw2, {});
    // Same 100 MiB of deltas, written block-level.
    util::Bytes delta(256 * util::KiB);
    for (int round = 0; round < 4; ++round) {
      for (int f = 0; f < kFiles; ++f) {
        util::FillPattern(delta, f * 100 + round);
        const std::uint64_t block =
            (static_cast<std::uint64_t>(f) * 4 + round) * 64;
        bool ok2 = false;
        repl.WriteBlocks(block, util::Payload::Copy(delta),
                         [&](bool r) { ok2 = r; });
        eng2.Run();
        if (!ok2) std::abort();
      }
    }
    bool drained2 = false;
    repl.Drain([&] { drained2 = true; });
    eng2.Run();
    if (!drained2) std::abort();
    continuous_wan = fab2.StatsFor(gw1, gw2).bytes;
  }

  util::Table table({"scheme", "WAN bytes (MiB)", "per update cycle",
                     "protects"});
  table.AddRow({"file-level (ours)",
                util::Table::Cell(file_level_wan / double(util::MiB), 1),
                "only critical+important deltas",
                "40% of files, by policy"});
  table.AddRow({"volume-level continuous (ours)",
                util::Table::Cell(continuous_wan / double(util::MiB), 1),
                "every flushed delta",
                "everything, importance-blind"});
  table.AddRow({"volume-level (legacy)",
                util::Table::Cell(volume_level_wan / double(util::MiB), 1),
                "entire allocated image",
                "everything, incl. 60% scratch"});
  table.Print("E12 results (100 files x 1 MiB of updates; "
              "10% sync / 30% async / 60% none):");

  std::printf("\nwritten: %.0f MiB total (%.0f critical, %.0f important, "
              "%.0f scratch); async drained: %s\n",
              total_written / double(util::MiB),
              critical_bytes / double(util::MiB),
              important_bytes / double(util::MiB),
              scratch_bytes / double(util::MiB), drained ? "yes" : "no");
  std::printf("WAN reduction: %.1fx\n",
              static_cast<double>(volume_level_wan) /
                  static_cast<double>(file_level_wan));
  std::printf("\nExpected shape: file-level WAN ~= replicated fraction of "
              "the deltas\n(~40%% + acks); volume-level ships the whole "
              "image every cycle.\n");
  return 0;
}
