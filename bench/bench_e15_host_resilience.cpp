// E15: host initiator resilience — hedged reads vs a degraded blade, and
// multipath failover vs a blade crash.
//
// Two claims:
//  (1) Tail tolerance: with one blade intermittently stalling, hedged
//      reads (speculative duplicate to a second blade after the path's
//      tracked p90) cut read P99 by >= 2x while adding < 10% extra
//      requests.
//  (2) Availability: when a blade crashes mid-stream, the multipath host
//      re-drives in-flight ops and keeps the write stream going, while a
//      single-path (pinned) host drops to zero — the paper's "powerful
//      device drivers" argument, quantified.
// Both scenarios are seeded and DES-driven: a same-seed re-run must
// produce a bit-identical observability digest.
#include "bench/common.h"

#include "controller/heartbeat.h"
#include "host/initiator.h"
#include "obs/hub.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kDataset = 64 * util::MiB;
constexpr std::uint32_t kOpBytes = 16 * util::KiB;
constexpr std::size_t kTailStreams = 4;  // keep the shared host link unsaturated
constexpr sim::Tick kTailWindow = 1 * util::kNsPerSec;
constexpr sim::Tick kStallNs = 8 * util::kNsPerMs;
constexpr std::uint32_t kStallEvery = 16;  // every 16th msg via blade 0

struct TailResult {
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t extra_attempts = 0;  // beyond one per completed op
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  double extra_pct = 0;
  std::uint32_t digest = 0;
};

TailResult RunTail(std::uint64_t seed, bool hedged) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "e15";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  controller::StorageSystem system(engine, fabric, config);
  obs::Hub hub(engine);
  system.AttachObs(&hub);

  host::InitiatorConfig hc;
  hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = hedged;
  hc.hedge_quantile = 0.9;
  // The degraded path's own p90 is polluted by stall samples; clamp the
  // hedge delay to sit between the normal-mode latency and the 8 ms stall.
  hc.hedge_min_delay_ns = 1 * util::kNsPerMs;
  hc.hedge_max_delay_ns = 2 * util::kNsPerMs;
  hc.seed = seed;
  host::Initiator init(system, "e15h", hc);
  init.AttachObs(&hub);

  const auto vol = system.CreateVolume("e15", kDataset);
  {  // preload and make the dataset cache-resident
    util::Bytes buf(8 * util::MiB);
    for (std::uint64_t off = 0; off < kDataset; off += buf.size()) {
      util::FillPattern(buf, off);
      bool ok = false;
      init.Write(vol, off, buf, [&](bool r) { ok = r; });
      engine.Run();
      if (!ok) std::abort();
    }
  }
  // Warm every path's latency histogram past hedge_min_samples so hedge
  // delays come from tracked quantiles, not the cold-start maximum.
  for (int i = 0; i < 128; ++i) {
    init.Read(vol, (static_cast<std::uint64_t>(i) * kOpBytes) % kDataset,
              kOpBytes, [](bool, util::Payload) {});
    engine.Run();
  }

  // One blade develops an intermittent stall: every 16th message on its
  // switch link takes +8 ms.  Round-robin keeps sending it 1/4 of the
  // traffic, so ~1.6% of all requests hit the stall — exactly the tail
  // hedging is meant to absorb.
  fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0), 0,
                         kStallEvery, kStallNs);

  const std::uint64_t attempts_before = init.stats().attempts;
  util::Rng rng(seed);
  const std::uint64_t blocks = kDataset / kOpBytes;
  const sim::Tick start = engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      engine, kTailStreams, start + kTailWindow,
      [&](std::size_t, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t off = (rng.Next() % blocks) * kOpBytes;
        init.Read(vol, off, kOpBytes,
                  [done = std::move(done)](bool ok, util::Payload) {
                    done(ok, kOpBytes);
                  });
      });
  (void)bytes;

  TailResult r;
  r.ops = latency.count();
  r.p50_us = static_cast<double>(latency.Percentile(0.5)) / 1000.0;
  r.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
  r.extra_attempts = init.stats().attempts - attempts_before - r.ops;
  r.extra_pct = r.ops == 0 ? 0.0
                           : 100.0 * static_cast<double>(r.extra_attempts) /
                                 static_cast<double>(r.ops);
  r.hedges = init.stats().hedges;
  r.hedge_wins = init.stats().hedge_wins;
  r.digest = hub.Digest();
  return r;
}

struct FailoverResult {
  std::uint64_t pre_crash_ok = 0;    // completed writes before the crash
  std::uint64_t post_crash_ok = 0;   // completed in the steady post window
  std::uint64_t post_crash_fail = 0;
  std::uint64_t failovers = 0;
  std::uint64_t redrives = 0;
  std::uint64_t path_down_events = 0;
};

constexpr sim::Tick kCrashAt = 300 * util::kNsPerMs;
constexpr sim::Tick kPostFrom = 800 * util::kNsPerMs;
constexpr sim::Tick kFailWindow = 1500 * util::kNsPerMs;

/// One closed-loop write stream per host; blade 1 crashes at kCrashAt.
/// `pin` < 0 runs the full multipath stack, >= 0 pins to that blade.
FailoverResult RunFailover(std::uint64_t seed, int pin) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "e15f";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  controller::StorageSystem system(engine, fabric, config);

  host::InitiatorConfig hc;
  hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;
  hc.hedged_writes = false;  // retry/failover only; write speculation is E16
  hc.pin_path = pin;
  hc.seed = seed;
  hc.retry.max_attempts = 10;
  hc.heartbeat_interval_ns = 10 * util::kNsPerMs;
  hc.heartbeat_miss_threshold = 2;
  hc.probe_timeout_ns = 5 * util::kNsPerMs;
  host::Initiator init(system, "e15f", hc);
  init.Start();
  controller::HeartbeatMonitor::Config mc;
  mc.interval_ns = 10 * util::kNsPerMs;
  mc.miss_threshold = 2;
  controller::HeartbeatMonitor monitor(system, mc);
  monitor.Start();

  const auto vol = system.CreateVolume("e15", kDataset);
  FailoverResult r;
  util::Rng rng(seed);
  const std::uint64_t blocks = kDataset / kOpBytes;

  bool crashed = false;
  engine.Schedule(kCrashAt, [&] {
    system.CrashController(1);
    crashed = true;
  });

  std::function<void(std::size_t)> pump = [&](std::size_t s) {
    if (engine.now() >= kFailWindow) return;
    util::Bytes buf(kOpBytes);
    util::FillPattern(buf, rng.Next());
    const std::uint64_t off = (rng.Next() % blocks) * kOpBytes;
    init.Write(vol, off, buf, [&, s](bool ok) {
      const sim::Tick now = engine.now();
      if (ok && now < kCrashAt) ++r.pre_crash_ok;
      if (now >= kPostFrom) {
        if (ok) {
          ++r.post_crash_ok;
        } else {
          ++r.post_crash_fail;
        }
      }
      pump(s);
    });
  };
  for (std::size_t s = 0; s < 4; ++s) pump(s);
  engine.RunUntil(kFailWindow);
  init.Stop();
  monitor.Stop();
  engine.Run();
  if (!crashed) std::abort();

  r.failovers = init.stats().failovers;
  r.redrives = init.stats().path_down_redrives;
  r.path_down_events = init.stats().path_down_events;
  return r;
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args = Args::Parse(argc, argv);
  PrintHeader("E15", "Host initiator resilience: hedged reads + multipath",
              "host-side device drivers ride through degraded and failed "
              "blades: hedging absorbs the stall tail, multipath failover "
              "keeps I/O flowing where a single-path host goes dark");

  // --- (1) Tail: one intermittently-stalling blade --------------------------
  const TailResult plain = RunTail(args.seed, false);
  const TailResult hedge = RunTail(args.seed, true);
  util::Table tail({"mode", "ops", "P50 us", "P99 us", "hedges", "wins",
                    "extra req %"});
  tail.AddRow({"no hedging", util::Table::Cell(plain.ops),
               util::Table::Cell(plain.p50_us, 1),
               util::Table::Cell(plain.p99_us, 1),
               util::Table::Cell(plain.hedges),
               util::Table::Cell(plain.hedge_wins),
               util::Table::Cell(plain.extra_pct, 2)});
  tail.AddRow({"hedged reads", util::Table::Cell(hedge.ops),
               util::Table::Cell(hedge.p50_us, 1),
               util::Table::Cell(hedge.p99_us, 1),
               util::Table::Cell(hedge.hedges),
               util::Table::Cell(hedge.hedge_wins),
               util::Table::Cell(hedge.extra_pct, 2)});
  tail.Print("E15a 16 KiB reads, blade 0 stalls 8 ms on every 16th message "
             "(4 streams, 1 s):");
  const double p99_cut =
      hedge.p99_us == 0 ? 0.0 : plain.p99_us / hedge.p99_us;
  const bool tail_ok = p99_cut >= 2.0 && hedge.extra_pct < 10.0;
  std::printf("\nP99 cut: %.1fx (>= 2x required), extra requests %.2f%% "
              "(< 10%% required): %s\n",
              p99_cut, hedge.extra_pct, tail_ok ? "PASS" : "FAIL");

  // --- (2) Failover: blade 1 crashes mid-stream ----------------------------
  const FailoverResult multi = RunFailover(args.seed, -1);
  const FailoverResult single = RunFailover(args.seed, 1);
  util::Table fo({"host", "pre-crash ok", "post-crash ok", "post-crash fail",
                  "failovers", "redrives", "paths down"});
  fo.AddRow({"multipath", util::Table::Cell(multi.pre_crash_ok),
             util::Table::Cell(multi.post_crash_ok),
             util::Table::Cell(multi.post_crash_fail),
             util::Table::Cell(multi.failovers),
             util::Table::Cell(multi.redrives),
             util::Table::Cell(multi.path_down_events)});
  fo.AddRow({"pinned to blade 1", util::Table::Cell(single.pre_crash_ok),
             util::Table::Cell(single.post_crash_ok),
             util::Table::Cell(single.post_crash_fail),
             util::Table::Cell(single.failovers),
             util::Table::Cell(single.redrives),
             util::Table::Cell(single.path_down_events)});
  fo.Print("E15b 16 KiB write streams, blade 1 crashes at 300 ms "
           "(post window 800-1500 ms):");
  const bool failover_ok =
      multi.post_crash_ok > 0 && multi.post_crash_fail == 0 &&
      single.post_crash_ok == 0;
  std::printf("\nmultipath keeps writing (%llu ok post-crash, %llu failed), "
              "pinned host drops to zero (%llu ok): %s\n",
              (unsigned long long)multi.post_crash_ok,
              (unsigned long long)multi.post_crash_fail,
              (unsigned long long)single.post_crash_ok,
              failover_ok ? "PASS" : "FAIL");

  // --- (3) Determinism ------------------------------------------------------
  const TailResult again = RunTail(args.seed, true);
  const bool digest_ok = again.digest == hedge.digest;
  std::printf("same-seed digest match: %s (0x%08x)\n",
              digest_ok ? "PASS" : "FAIL", hedge.digest);

  if (args.json) {
    std::printf(
        "\nJSON: {\"experiment\":\"e15\",\"seed\":%llu,"
        "\"tail\":{\"p99_us_plain\":%.1f,\"p99_us_hedged\":%.1f,"
        "\"p99_cut\":%.2f,\"extra_req_pct\":%.2f,\"hedges\":%llu,"
        "\"hedge_wins\":%llu},"
        "\"failover\":{\"multi_post_ok\":%llu,\"multi_post_fail\":%llu,"
        "\"single_post_ok\":%llu,\"failovers\":%llu},"
        "\"digest_match\":%s}\n",
        (unsigned long long)args.seed, plain.p99_us, hedge.p99_us, p99_cut,
        hedge.extra_pct, (unsigned long long)hedge.hedges,
        (unsigned long long)hedge.hedge_wins,
        (unsigned long long)multi.post_crash_ok,
        (unsigned long long)multi.post_crash_fail,
        (unsigned long long)single.post_crash_ok,
        (unsigned long long)multi.failovers, digest_ok ? "true" : "false");
  }
  return tail_ok && failover_ok && digest_ok ? 0 : 1;
}
