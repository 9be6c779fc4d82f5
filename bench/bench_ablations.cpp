// Ablations of the design choices DESIGN.md §4 calls out:
//   A1 — coherence/cache page granularity (64 KiB default)
//   A2 — DMSD extent granularity (1 MiB default)
//   A3 — sequential readahead depth (E2's streaming knob)
//   A4 — write-back aging window (flush_delay)
// Each sweep holds everything else at the E1/E2 configurations.
#include "bench/common.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kDataset = 128 * util::MiB;
constexpr std::size_t kHosts = 8;
constexpr sim::Tick kWindow = util::kNsPerSec;

/// Mixed random workload throughput + p99 for a given config tweak.
std::pair<double, double> RunMixed(
    const std::function<void(controller::SystemConfig&)>& tweak,
    std::uint32_t op_bytes = 64 * util::KiB) {
  controller::SystemConfig config;
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.node_capacity_pages = 1024;
  config.cache.flush_delay_ns = 200 * util::kNsPerMs;
  tweak(config);
  TestBed bed(config, kHosts);
  const auto vol = bed.system->CreateVolume("abl", kDataset);
  Preload(bed, vol, kDataset);
  DropCaches(bed);
  WarmRead(bed, vol, kDataset);

  util::Rng rng(11);
  const std::uint64_t slots = kDataset / op_bytes;
  const sim::Tick start = bed.engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      bed.engine, kHosts, start + kWindow,
      [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t off = rng.Below(slots) * op_bytes;
        if (rng.Chance(0.7)) {
          bed.system->Read(bed.hosts[h], vol, off, op_bytes,
                           [done = std::move(done), op_bytes](bool ok,
                                                              util::Payload) {
                             done(ok, op_bytes);
                           });
        } else {
          util::Payload data(op_bytes, [&](std::span<std::uint8_t> out) {
            util::FillPattern(out, off);
          });
          bed.system->Write(bed.hosts[h], vol, off, std::move(data),
                            [done = std::move(done), op_bytes](bool ok) {
                              done(ok, op_bytes);
                            });
        }
      });
  return {util::ThroughputMBps(bytes, kWindow),
          latency.Percentile(0.99) / 1e6};
}

/// Sequential cold-read throughput for readahead sweeps.
double RunSequential(std::uint32_t readahead) {
  controller::SystemConfig config;
  config.controllers = 4;
  config.raid_groups = 8;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.node_capacity_pages = 4096;
  config.cache.readahead_pages = readahead;
  TestBed bed(config, 1);
  const auto vol = bed.system->CreateVolume("seq", kDataset);
  Preload(bed, vol, 64 * util::MiB);
  DropCaches(bed);
  const sim::Tick start = bed.engine.now();
  std::uint64_t done_bytes = 0;
  for (std::uint64_t off = 0; off < 64 * util::MiB; off += util::MiB) {
    bool ok = false;
    bed.system->Read(bed.hosts[0], vol, off, util::MiB,
                     [&](bool r, util::Payload) { ok = r; });
    bed.engine.Run();
    if (ok) done_bytes += util::MiB;
  }
  return util::ThroughputMBps(done_bytes, bed.engine.now() - start);
}

}  // namespace
}  // namespace nlss::bench

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  PrintHeader("ABLATIONS", "Design-choice sweeps (DESIGN.md section 4)",
              "page granularity, extent granularity, readahead depth, "
              "write-back aging");

  {
    util::Table t({"cache page", "MB/s (64 KiB mixed)", "p99 (ms)"});
    for (const std::uint32_t kib : {16u, 64u, 256u}) {
      auto [mbps, p99] = RunMixed([&](controller::SystemConfig& c) {
        c.cache.page_bytes = kib * util::KiB;
        // Hold per-blade cache capacity constant at 64 MiB.
        c.cache.node_capacity_pages = 64 * util::MiB / c.cache.page_bytes;
      });
      t.AddRow({util::Table::Cell(kib) + " KiB", util::Table::Cell(mbps, 1),
                util::Table::Cell(p99, 2)});
    }
    t.Print("A1: coherence page granularity (default 64 KiB):");
    std::printf("  small pages: more coherence traffic per byte; large pages:"
                "\n  false sharing + bigger miss fills. 64 KiB balances both.\n");
  }

  {
    util::Table t({"pool extent", "MB/s (64 KiB mixed)", "p99 (ms)"});
    for (const std::uint32_t kib : {256u, 1024u, 4096u}) {
      auto [mbps, p99] = RunMixed([&](controller::SystemConfig& c) {
        c.extent_blocks = kib * util::KiB / 4096;
      });
      t.AddRow({util::Table::Cell(kib) + " KiB", util::Table::Cell(mbps, 1),
                util::Table::Cell(p99, 2)});
    }
    t.Print("\nA2: DMSD extent granularity (default 1 MiB):");
    std::printf("  large extents: fewer mappings but 4 MiB zero-fill on first"
                "\n  touch; small extents: allocator overhead. Differences "
                "show on\n  first-write-heavy phases (preload), less in "
                "steady state.\n");
  }

  {
    util::Table t({"readahead pages", "sequential cold read MB/s"});
    for (const std::uint32_t ra : {0u, 4u, 16u, 64u}) {
      t.AddRow({util::Table::Cell(ra),
                util::Table::Cell(RunSequential(ra), 1)});
    }
    t.Print("\nA3: sequential readahead depth (paper 4 'storage prefetch'):");
  }

  {
    util::Table t({"flush delay", "MB/s (64 KiB mixed)", "p99 (ms)"});
    for (const sim::Tick ms : {0u, 20u, 200u, 1000u}) {
      auto [mbps, p99] = RunMixed([&](controller::SystemConfig& c) {
        c.cache.flush_delay_ns = ms * util::kNsPerMs;
      });
      t.AddRow({util::Table::Cell(ms) + " ms", util::Table::Cell(mbps, 1),
                util::Table::Cell(p99, 2)});
    }
    t.Print("\nA4: write-back aging window (default in experiments: 200 ms):");
    std::printf("  0 ms: every write races its own flush (rewrites stall on"
                "\n  invalidation behind queued RAID work); longer windows "
                "coalesce\n  rewrites at the cost of a larger N-way-protected"
                " dirty set.\n");
  }
  return 0;
}
