// E6 (paper §6.1): N-way replication of write data across controller
// caches allows N-1 failures without losing acknowledged writes, versus
// the active-active/active-passive state of the art that survives at most
// one.  Cost: write latency grows mildly with N (one more peer copy each).
#include "bench/common.h"

namespace nlss::bench {
namespace {

constexpr std::uint32_t kOpBytes = 64 * util::KiB;

struct LatencyResult {
  double mean_us;
  double p99_us;
};

LatencyResult WriteLatency(std::uint32_t replication) {
  controller::SystemConfig config;
  config.name = "e6";
  config.controllers = 8;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 32 * 1024;
  config.cache.replication = replication;
  config.cache.flush_delay_ns = 500 * util::kNsPerMs;
  TestBed bed(config, 4);
  const auto vol = bed.system->CreateVolume("e6", 128 * util::MiB);

  util::Rng rng(1);
  util::Histogram latency;
  for (int i = 0; i < 400; ++i) {
    util::Bytes data(kOpBytes);
    util::FillPattern(data, i);
    const std::uint64_t off = rng.Below(1024) * kOpBytes;
    const sim::Tick start = bed.engine.now();
    bool ok = false;
    sim::Tick acked = 0;
    bed.system->Write(bed.hosts[i % 4], vol, off, util::Payload::Copy(data),
                      [&](bool r) {
      ok = r;
      acked = bed.engine.now();
    });
    bed.engine.RunFor(20 * util::kNsPerMs);
    if (ok) latency.Record(acked - start);
  }
  return {latency.Mean() / 1000.0, latency.Percentile(0.99) / 1000.0};
}

/// Write with N-way replication, kill `kills` controllers holding the data,
/// recover, and check whether every acknowledged byte survived.
bool SurvivesFailures(std::uint32_t replication, std::uint32_t kills) {
  controller::SystemConfig config;
  config.name = "e6";
  config.controllers = 8;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 32 * 1024;
  config.cache.replication = replication;
  config.cache.flush_delay_ns = 10ull * util::kNsPerSec;  // no flush yet
  TestBed bed(config, 1);
  const auto vol = bed.system->CreateVolume("e6", 64 * util::MiB);

  // 32 acknowledged writes spread over pages (so different owners).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> written;  // off, seed
  for (int i = 0; i < 32; ++i) {
    util::Payload data(kOpBytes, [&](std::span<std::uint8_t> out) {
      util::FillPattern(out, 1000 + i);
    });
    const std::uint64_t off = static_cast<std::uint64_t>(i) * kOpBytes;
    bool ok = false;
    bed.system->Write(bed.hosts[0], vol, off, std::move(data),
                      [&](bool r) { ok = r; });
    bed.engine.RunFor(5 * util::kNsPerMs);
    if (!ok) return false;
    written.emplace_back(off, 1000 + i);
  }

  // Kill `kills` controllers while the dirty data is cache-resident.
  for (std::uint32_t k = 0; k < kills; ++k) {
    bed.system->FailController(k);
  }
  bed.system->RecoverCluster();
  bool flushed = false;
  bed.system->cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();

  for (const auto& [off, seed] : written) {
    bool ok = false;
    util::Bytes got;
    bed.system->Read(bed.hosts[0], vol, off, kOpBytes,
                     [&](bool r, util::Payload d) {
                       ok = r;
                       got = d.ToBytes();
                     });
    bed.engine.Run();
    if (!ok || !util::CheckPattern(got, seed)) return false;
  }
  return true;
}

}  // namespace
}  // namespace nlss::bench

int main() {
  using namespace nlss;
  using namespace nlss::bench;
  PrintHeader("E6", "N-way replication of write-back data (paper 6.1)",
              "N-way replication survives N-1 controller failures without "
              "data loss; Active-Active survives at most one");

  util::Table latency({"replication N", "mean write latency (us)",
                       "p99 (us)"});
  for (const std::uint32_t n : {1u, 2u, 3u, 4u}) {
    const auto r = WriteLatency(n);
    latency.AddRow({util::Table::Cell(n), util::Table::Cell(r.mean_us, 0),
                    util::Table::Cell(r.p99_us, 0)});
  }
  latency.Print("E6a: 64 KiB write latency vs replication factor:");

  util::Table survival({"replication N", "0 failures", "1 failure",
                        "2 failures", "3 failures"});
  for (const std::uint32_t n : {1u, 2u, 3u, 4u}) {
    std::vector<std::string> row{util::Table::Cell(n)};
    for (std::uint32_t kills = 0; kills <= 3; ++kills) {
      row.push_back(SurvivesFailures(n, kills) ? "survives" : "DATA LOSS");
    }
    survival.AddRow(std::move(row));
  }
  survival.Print(
      "E6b: acknowledged-write survival, dirty data in cache at crash time:");
  std::printf("\nExpected shape: N>=2 pays one parallel backplane page-copy "
              "over N=1\n(further replicas ship concurrently); survival is "
              "exactly N-1 failures —\nthe diagonal boundary above.\n");
  return 0;
}
