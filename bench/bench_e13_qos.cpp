// E13 (tenant-aware QoS): performance isolation under shared load.  A
// national-lab shared infrastructure serves many programs from one pool;
// without isolation a bulk scanner ruins an interactive workload's tail
// latency.  The qos::Scheduler (WFQ + token buckets + admission control)
// bounds the damage.
//
// Scenario A (noisy neighbor): a gold OLTP tenant (4 streams, 8 KiB random
// reads) runs alone, then alongside a bronze scanner (16 streams, 256 KiB
// sequential reads), with QoS off and on.  Metric: gold p99 latency
// degradation vs the solo baseline.
//
// Scenario B (weight sweep): two tenants with identical workloads and WFQ
// weights w:1; delivered throughput should track the weight ratio.
//
// Both scenarios are deterministic; the QoS-on contended run is executed
// twice and compared bit-for-bit.
#include "bench/common.h"

#include "qos/scheduler.h"
#include "qos/tenant.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kGoldData = 192 * util::MiB;
constexpr std::uint64_t kScanData = 256 * util::MiB;
constexpr std::uint32_t kGoldOp = 8 * util::KiB;
constexpr std::uint32_t kScanOp = 256 * util::KiB;
constexpr std::size_t kGoldStreams = 4;
std::size_t g_scan_streams = 32;  // --hosts overrides (CI scale knob)
constexpr sim::Tick kWindow = 2 * util::kNsPerSec;
constexpr std::uint64_t kBronzeRate = 64 * 1000 * 1000;  // 64 MB/s cap

controller::SystemConfig BedConfig() {
  controller::SystemConfig config;
  config.name = "e13";
  config.controllers = 4;
  config.raid_groups = 8;
  config.disk_profile.capacity_blocks = 64 * 1024;
  // Small cache (16 MiB/blade): the scanner cannot fit, the OLTP set only
  // partially — misses keep the disks in the picture.
  config.cache.node_capacity_pages = 256;
  config.cache.flush_delay_ns = 200 * util::kNsPerMs;
  return config;
}

struct TenantResult {
  double mbps = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t rejected = 0;
};

struct ContendedResult {
  TenantResult gold;
  TenantResult scan;
};

/// Scenario A runner.  `with_scan` adds the bronze scanner; `with_qos`
/// attaches the scheduler (gold weight 8 vs bronze 1, bronze rate-capped).
ContendedResult RunContended(bool with_scan, bool with_qos,
                             bool print_slo = false) {
  TestBed bed(BedConfig(), kGoldStreams + g_scan_streams);
  const auto gold_vol = bed.system->CreateVolume("oltp-lab", kGoldData);
  const auto scan_vol = bed.system->CreateVolume("scan-lab", kScanData);
  Preload(bed, gold_vol, kGoldData);
  if (with_scan) Preload(bed, scan_vol, kScanData);
  DropCaches(bed);

  qos::TenantRegistry registry;
  registry.Register("oltp-lab", qos::ServiceClass::kGold);
  registry.Register("scan-lab", qos::ServiceClass::kBronze);
  // Rate-cap the scanner and keep its burst to a couple of ops so capped
  // dispatches stay smooth; a small depth cap exercises admission control.
  qos::ClassSpec bronze = registry.spec(qos::ServiceClass::kBronze);
  bronze.rate_bytes_per_sec = kBronzeRate;
  bronze.burst_bytes = 2 * kScanOp;
  bronze.max_queue_depth = 16;
  registry.SetClassSpec(qos::ServiceClass::kBronze, bronze);
  // The noisy-neighbor isolation comes from the token bucket; a generous
  // concurrency gate keeps small gold ops from waiting out in-flight
  // 256 KiB scanner transfers.
  qos::Scheduler::Config cfg;
  cfg.max_in_service_per_blade = 8;
  qos::Scheduler qos(bed.engine, registry, bed.system->controller_count(),
                     cfg);
  if (with_qos) bed.system->AttachQos(&qos);

  util::Rng rng(13);
  util::Histogram gold_lat, scan_lat;
  std::uint64_t gold_bytes = 0, scan_bytes = 0;
  std::uint64_t gold_ops = 0, scan_ops = 0;
  std::vector<std::uint64_t> scan_pos(g_scan_streams);
  for (std::size_t s = 0; s < g_scan_streams; ++s) {
    scan_pos[s] = (s * kScanData / g_scan_streams) / kScanOp * kScanOp;
  }

  const std::size_t streams = kGoldStreams + (with_scan ? g_scan_streams : 0);
  const sim::Tick start = bed.engine.now();
  ClosedLoop::Run(
      bed.engine, streams, start + kWindow,
      [&](std::size_t s, std::function<void(bool, std::uint64_t)> done) {
        const sim::Tick issued = bed.engine.now();
        if (s < kGoldStreams) {
          const std::uint64_t off =
              rng.Below(kGoldData / kGoldOp) * kGoldOp;
          bed.system->Read(bed.hosts[s], gold_vol, off, kGoldOp,
                           [&, done = std::move(done), issued](bool ok,
                                                               util::Payload) {
                             if (ok) {
                               gold_bytes += kGoldOp;
                               ++gold_ops;
                               gold_lat.Record(bed.engine.now() - issued);
                             }
                             done(ok, 0);
                           });
        } else {
          const std::size_t i = s - kGoldStreams;
          const std::uint64_t off = scan_pos[i];
          scan_pos[i] = (off + kScanOp) % kScanData;
          bed.system->Read(bed.hosts[s], scan_vol, off, kScanOp,
                           [&, done = std::move(done), issued](bool ok,
                                                               util::Payload) {
                             if (ok) {
                               scan_bytes += kScanOp;
                               ++scan_ops;
                               scan_lat.Record(bed.engine.now() - issued);
                             }
                             done(ok, 0);
                           });
        }
      });

  ContendedResult r;
  r.gold = {util::ThroughputMBps(gold_bytes, kWindow),
            gold_lat.Percentile(0.99), gold_ops, 0};
  r.scan = {util::ThroughputMBps(scan_bytes, kWindow),
            scan_lat.Percentile(0.99), scan_ops, 0};
  if (with_qos) {
    const auto& registry_ref = qos.registry();
    if (const auto t = registry_ref.FindByName("oltp-lab")) {
      r.gold.rejected = qos.slo().stats(*t).rejected;
    }
    if (const auto t = registry_ref.FindByName("scan-lab")) {
      r.scan.rejected = qos.slo().stats(*t).rejected;
    }
    if (print_slo) {
      std::printf("\nper-tenant SLO snapshot (QoS on, contended):\n%s",
                  qos.slo().TableString(registry).c_str());
    }
  }
  return r;
}

/// Scenario B: identical 64 KiB random-read workloads, WFQ weights w:1.
std::pair<double, double> RunWeightPair(std::uint32_t weight) {
  constexpr std::uint64_t kData = 128 * util::MiB;
  constexpr std::uint32_t kOp = 64 * util::KiB;
  // Deep closed loops keep every blade's queue backlogged for both
  // tenants, so the WFQ share is purely weight-driven.
  constexpr std::size_t kStreams = 32;  // per tenant

  TestBed bed(BedConfig(), 2 * kStreams);
  const auto vol_a = bed.system->CreateVolume("lab-a", kData);
  const auto vol_b = bed.system->CreateVolume("lab-b", kData);
  Preload(bed, vol_a, kData);
  Preload(bed, vol_b, kData);
  DropCaches(bed);

  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  registry.Register("lab-b", qos::ServiceClass::kBronze);
  registry.SetClassWeight(qos::ServiceClass::kGold, weight);
  registry.SetClassWeight(qos::ServiceClass::kBronze, 1);
  // One dispatch slot per blade: the WFQ fully governs the service order,
  // so delivered share tracks the weights as long as both stay backlogged.
  qos::Scheduler::Config cfg;
  cfg.max_in_service_per_blade = 1;
  qos::Scheduler qos(bed.engine, registry, bed.system->controller_count(),
                     cfg);
  bed.system->AttachQos(&qos);

  const auto tenant_a = *registry.FindByName("lab-a");
  const auto tenant_b = *registry.FindByName("lab-b");

  // Each blade serves 8 streams of each tenant (pinned via BladeRead), so
  // every FairQueue sees both flows — a host-side balancer can phase-lock
  // with the lockstep closed loops and segregate the tenants instead.
  // Measure completions inside a steady-state window: the ramp-up fill and
  // the post-deadline queue drain would otherwise credit each tenant its
  // standing queue inventory, which skews the share toward the slow tenant.
  util::Rng rng(29);
  std::uint64_t bytes_a = 0, bytes_b = 0;
  const sim::Tick start = bed.engine.now();
  const sim::Tick measure_from = start + kWindow / 4;
  const sim::Tick until = start + kWindow;
  const std::uint32_t blades = bed.system->controller_count();
  ClosedLoop::Run(
      bed.engine, 2 * kStreams, until,
      [&](std::size_t s, std::function<void(bool, std::uint64_t)> done) {
        const bool is_a = s < kStreams;
        const std::uint64_t off = rng.Below(kData / kOp) * kOp;
        bed.system->BladeRead(
            static_cast<std::uint32_t>(s) % blades, is_a ? vol_a : vol_b, off,
            kOp, /*priority=*/0, is_a ? tenant_a : tenant_b,
            [&, is_a, done = std::move(done)](bool ok, util::Payload) {
              const sim::Tick now = bed.engine.now();
              if (ok && now >= measure_from && now < until) {
                (is_a ? bytes_a : bytes_b) += kOp;
              }
              done(ok, 0);
            });
      });
  const sim::Tick span = until - measure_from;
  return {util::ThroughputMBps(bytes_a, span),
          util::ThroughputMBps(bytes_b, span)};
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args = Args::Parse(argc, argv);
  g_scan_streams = args.HostsOr(32);
  PrintHeader("E13", "Performance isolation under shared load (QoS)",
              "one shared pool serves many programs; WFQ + token buckets "
              "keep a bulk scanner from ruining an interactive tenant's "
              "tail latency");

  // --- Scenario A: noisy neighbor -----------------------------------------
  const ContendedResult solo = RunContended(false, false);
  const ContendedResult off = RunContended(true, false);
  const ContendedResult on = RunContended(true, true, true);

  util::Table a({"scenario", "gold MB/s", "gold p99 (us)", "p99 vs solo",
                 "scan MB/s", "scan rejected"});
  auto row = [&](const char* name, const ContendedResult& r) {
    a.AddRow({name, util::Table::Cell(r.gold.mbps, 1),
              util::Table::Cell(r.gold.p99_ns / 1000.0, 0),
              util::Table::Cell(static_cast<double>(r.gold.p99_ns) /
                                    static_cast<double>(solo.gold.p99_ns),
                                2),
              util::Table::Cell(r.scan.mbps, 1),
              util::Table::Cell(static_cast<double>(r.scan.rejected), 0)});
  };
  row("gold solo", solo);
  row("gold + scanner, QoS off", off);
  row("gold + scanner, QoS on", on);
  a.Print("E13a noisy neighbor (gold: 4x8KiB random; scanner: 32x256KiB "
          "seq):");
  std::printf("\nExpected shape: QoS off inflates gold p99 by >=5x; QoS on"
              "\n(gold weight 8, bronze weight 1 + 64 MB/s cap) holds it"
              "\nunder 2x while the scanner still makes progress.\n");

  // --- Scenario B: weight sweep --------------------------------------------
  util::Table b({"WFQ weights (A:B)", "A MB/s", "B MB/s", "measured ratio",
                 "target"});
  for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
    const auto [mbps_a, mbps_b] = RunWeightPair(w);
    b.AddRow({std::to_string(w) + ":1", util::Table::Cell(mbps_a, 1),
              util::Table::Cell(mbps_b, 1),
              util::Table::Cell(mbps_b > 0 ? mbps_a / mbps_b : 0.0, 2),
              util::Table::Cell(static_cast<double>(w), 0)});
  }
  b.Print("E13b weight sweep (identical 32x64KiB random-read tenants):");
  std::printf("\nExpected shape: delivered throughput tracks the configured"
              "\nweight ratio within ~10%% while both tenants stay "
              "backlogged.\n");

  // --- Reproducibility -------------------------------------------------------
  const ContendedResult again = RunContended(true, true);
  const bool identical = again.gold.mbps == on.gold.mbps &&
                         again.gold.p99_ns == on.gold.p99_ns &&
                         again.gold.ops == on.gold.ops &&
                         again.scan.mbps == on.scan.mbps &&
                         again.scan.p99_ns == on.scan.p99_ns &&
                         again.scan.ops == on.scan.ops;
  std::printf("\nreproducibility: QoS-on contended run repeated -> %s\n",
              identical ? "bit-identical" : "MISMATCH");
  return identical ? 0 : 1;
}
