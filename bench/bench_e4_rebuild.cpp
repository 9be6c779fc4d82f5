// E4 (paper §2.4, §6.3): rebuilds are distributed across the controller
// cluster.  With several simultaneous disk failures (one per RAID group),
// more controller workers finish the whole batch proportionally faster; a
// controller dying mid-rebuild re-queues its chunks and the rebuild
// "automatically continues on other available controllers"; foreground I/O
// keeps flowing throughout.
#include "bench/common.h"

#include "raid/rebuild.h"

namespace nlss::bench {
namespace {

/// Group `g`'s seed data.  Every Setup writes the same four seeds, and
/// payloads are immutable, so each is filled once and shared: ingested like
/// a host write, its 64 KiB chunks become the RAID units as they are.
const util::Payload& Seed(std::size_t g, std::size_t bytes) {
  static std::vector<util::Payload> seeds;
  if (seeds.size() <= g) seeds.resize(g + 1);
  if (seeds[g].empty()) {
    util::Bytes buf(bytes);
    util::FillPattern(buf, g);
    seeds[g] = util::Payload::Copy(buf);
  }
  return seeds[g];
}

struct Setup {
  sim::Engine engine;
  std::vector<std::unique_ptr<disk::DiskFarm>> farms;
  std::vector<std::unique_ptr<raid::RaidGroup>> groups;

  explicit Setup(int n_groups) {
    disk::DiskProfile profile;
    profile.capacity_blocks = 32 * 1024;  // 128 MiB disks
    for (int g = 0; g < n_groups; ++g) {
      farms.push_back(std::make_unique<disk::DiskFarm>(engine, profile, 5));
      std::vector<disk::Disk*> disks;
      for (std::size_t i = 0; i < farms[g]->size(); ++i) {
        disks.push_back(&farms[g]->at(i));
      }
      raid::RaidGroup::Config rc;
      rc.level = raid::RaidLevel::kRaid5;
      groups.push_back(std::make_unique<raid::RaidGroup>(
          engine, std::move(disks), rc));
      // Seed every group with data so the rebuild reconstructs real bytes.
      bool ok = false;
      groups[g]->WriteBlocks(
          0, Seed(g, groups[g]->DataCapacityBlocks() * 4096ull),
          [&](bool r) { ok = r; });
      engine.Run();
      if (!ok) std::abort();
    }
  }

  void FailOneDiskPerGroup() {
    for (auto& g : groups) {
      g->disk(0).Fail();
      g->RefreshMemberStates();
      g->disk(0).Replace();
    }
  }
};

/// Rebuild every group with `workers` controllers; returns (time, chunks
/// per worker).
std::pair<double, std::vector<std::uint64_t>> RunRebuild(
    int workers, bool kill_one_midway) {
  Setup setup(4);
  setup.FailOneDiskPerGroup();
  raid::RebuildEngine rebuild(setup.engine,
                              raid::RebuildConfig{.chunk_stripes = 32,
                                                  .xor_ns_per_byte = 2.0});
  std::vector<std::unique_ptr<sim::Resource>> computes;
  for (int w = 0; w < workers; ++w) {
    computes.push_back(std::make_unique<sim::Resource>(setup.engine));
    rebuild.AddWorker(computes.back().get());
  }
  const sim::Tick start = setup.engine.now();
  int done = 0;
  for (auto& g : setup.groups) {
    rebuild.Rebuild(*g, 0, [&](bool ok) { done += ok ? 1 : 0; });
  }
  if (kill_one_midway && workers > 1) {
    setup.engine.RunFor(100 * util::kNsPerMs);
    rebuild.SetWorkerAlive(0, false);
  }
  setup.engine.Run();
  if (done != 4) std::abort();
  return {(setup.engine.now() - start) / 1e9, rebuild.ChunksByWorker()};
}

/// Foreground latency while a rebuild runs vs idle.
std::pair<double, double> ForegroundImpact() {
  auto run = [](bool with_rebuild) {
    Setup setup(4);
    raid::RebuildEngine rebuild(setup.engine,
                                raid::RebuildConfig{.chunk_stripes = 32,
                                                    .xor_ns_per_byte = 2.0});
    std::vector<std::unique_ptr<sim::Resource>> computes;
    for (int w = 0; w < 4; ++w) {
      computes.push_back(std::make_unique<sim::Resource>(setup.engine));
      rebuild.AddWorker(computes.back().get());
    }
    if (with_rebuild) {
      // One group rebuilds; foreground I/O targets the *other* groups —
      // the storage-services claim is that maintenance on shared
      // infrastructure does not gate unrelated I/O.
      setup.groups[0]->disk(0).Fail();
      setup.groups[0]->RefreshMemberStates();
      setup.groups[0]->disk(0).Replace();
      rebuild.Rebuild(*setup.groups[0], 0, [](bool) {});
    }
    util::Rng rng(3);
    const std::uint64_t span = setup.groups[1]->DataCapacityBlocks() - 16;
    auto [bytes, latency] = ClosedLoop::Run(
        setup.engine, 4, setup.engine.now() + util::kNsPerSec,
        [&](std::size_t s, std::function<void(bool, std::uint64_t)> done) {
          auto& group = *setup.groups[1 + s % 3];
          group.ReadBlocks(rng.Below(span), 16,
                           [done = std::move(done)](bool ok, util::Payload) {
                             done(ok, 16 * 4096);
                           });
        });
    return latency.Mean() / 1e6;  // ms
  };
  return {run(false), run(true)};
}

}  // namespace
}  // namespace nlss::bench

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  PrintHeader("E4", "Distributed rebuild across controllers (paper 2.4/6.3)",
              "rebuilds distribute across the cluster, go faster with more "
              "controllers, survive controller failure mid-rebuild, and do "
              "not impede active I/O");

  util::Table table({"workers", "rebuild time (s)", "speedup",
                     "chunks per worker"});
  double base = 0;
  for (const int workers : {1, 2, 4, 8}) {
    auto [seconds, chunks] = RunRebuild(workers, false);
    if (workers == 1) base = seconds;
    std::string dist;
    for (std::size_t w = 0; w < chunks.size(); ++w) {
      dist += (w ? "/" : "") + std::to_string(chunks[w]);
    }
    table.AddRow({util::Table::Cell(workers),
                  util::Table::Cell(seconds, 2),
                  util::Table::Cell(base / seconds, 2), dist});
  }
  table.Print("E4a: 4 simultaneous disk rebuilds (RAID-5, 128 MiB disks):");

  auto [t4, chunks] = RunRebuild(4, true);
  std::string dist;
  for (std::size_t w = 0; w < chunks.size(); ++w) {
    dist += (w ? "/" : "") + std::to_string(chunks[w]);
  }
  std::printf("\nE4b: worker 0 killed 100 ms into a 4-worker rebuild:\n"
              "  completed in %.2f s on survivors; chunk distribution %s\n",
              t4, dist.c_str());

  auto [idle_ms, busy_ms] = ForegroundImpact();
  std::printf("\nE4c: foreground 64 KiB read latency on non-rebuilding "
              "groups:\n  idle: %.2f ms   during rebuild: %.2f ms "
              "(overhead %.0f%%)\n",
              idle_ms, busy_ms, 100.0 * (busy_ms - idle_ms) / idle_ms);
  std::printf("\nExpected shape: near-linear rebuild speedup up to one "
              "worker per group;\nbeyond that, extra workers share groups "
              "and add disk seek contention.\nMid-rebuild controller death "
              "only shifts chunks to the survivors.\n");
  return 0;
}
