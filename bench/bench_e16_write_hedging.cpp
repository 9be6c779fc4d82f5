// E16: exactly-once writes — write hedging over blade-side idempotency
// dedup, with per-tenant hedge budgets.
//
// Three claims:
//  (1) Write tail: with one blade intermittently stalling, hedged writes
//      (speculative duplicate to a second blade, first ack wins) cut write
//      P99 by >= 2x — and the blade-side dedup index absorbs every losing
//      copy: duplicate applications stay at zero while the dedup-hit
//      counter shows the losers actually reached the blades.
//  (2) Budgets: speculation is tenant-billed spend.  A bronze tenant's
//      hedge-rate token bucket caps its hedges at rate x window + burst
//      (the rest shed at the QoS gate) while a gold tenant on the same
//      degraded fabric hedges freely and keeps its write tail bounded.
//  (3) Determinism: a same-seed re-run of the hedged-write workload —
//      dedup races, cancels, and budget decisions included — produces a
//      bit-identical observability digest.
#include "bench/common.h"

#include "host/initiator.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "qos/slo.h"
#include "qos/tenant.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kDataset = 64 * util::MiB;
constexpr std::uint32_t kOpBytes = 16 * util::KiB;
constexpr std::size_t kStreams = 4;
constexpr sim::Tick kWindow = 1 * util::kNsPerSec;
constexpr sim::Tick kStallNs = 8 * util::kNsPerMs;
constexpr std::uint32_t kStallEvery = 16;  // every 16th msg via blade 0
/// The budget phase needs hedge demand above the bronze cap
/// (rate x window + burst = 58/s), so its blade stalls 4x as often.
constexpr std::uint32_t kBudgetStallEvery = 4;
/// Per-stream think time between writes.  Keeps the offered load well
/// below the flush path's throughput so the measured tail is the fabric
/// stall (what hedging can fix), not dirty-page throttling (what it
/// can't — both copies of a hedge land in the same throttled cache).
constexpr sim::Tick kThinkNs = 2 * util::kNsPerMs;
/// Write-back aging.  With flush_delay 0 every 16 KiB write immediately
/// flushes its whole 64 KiB page, so the partial-page rewrite stream
/// saturates the RAID layer and writes block behind in-flight flushes of
/// their own page — a multi-ms disk tail both hedge copies share.  Aging
/// batches the four sequential ops per page into one flush after the
/// stream has moved on, leaving the fabric stall as the only tail.
constexpr sim::Tick kFlushDelayNs = 20 * util::kNsPerMs;

/// Start a paced multi-stream write pump: each stream keeps one write
/// outstanding and waits kThinkNs after each completion, stopping at
/// `until`.  Only schedules work — the caller runs the engine, so several
/// pumps (one per tenant) can share a window.
template <typename IssueFn>
void StartPacedWrites(sim::Engine& engine, std::size_t streams,
                      sim::Tick until, util::Histogram& latency,
                      IssueFn issue) {
  // Every stream shares one `issue`.  Each pending completion holds the
  // pump, and nothing holds itself, so the pump dies with its last stream.
  const auto pump = [&engine, &latency, until,
                     issue = std::make_shared<IssueFn>(std::move(issue))](
                        const auto& self) -> void {
    if (engine.now() >= until) return;
    const sim::Tick t0 = engine.now();
    (*issue)([&engine, &latency, t0, self](bool ok) {
      if (ok) latency.Record(engine.now() - t0);
      engine.Schedule(kThinkNs, [self] { self(self); });
    });
  };
  for (std::size_t s = 0; s < streams; ++s) pump(pump);
}

/// Sequential per-stream offsets: issue n belongs to stream n % streams,
/// which strides through its own region of the volume.  A page is only
/// rewritten by the immediately following ops of the same stream — inside
/// the kFlushDelayNs aging window — so no write ever lands on a page whose
/// flush is in flight.
class StridedOffsets {
 public:
  StridedOffsets(std::uint64_t bytes, std::uint64_t streams)
      : region_(bytes / streams), streams_(streams) {}

  std::uint64_t Next() {
    const std::uint64_t s = n_ % streams_;
    const std::uint64_t i = n_ / streams_;
    ++n_;
    return s * region_ + (i * kOpBytes) % region_;
  }

 private:
  std::uint64_t region_;
  std::uint64_t streams_;
  std::uint64_t n_ = 0;
};

host::InitiatorConfig HedgeConfig(std::uint64_t seed, bool hedged) {
  host::InitiatorConfig hc;
  hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;  // isolate the write path
  hc.hedged_writes = hedged;
  hc.hedge_quantile = 0.9;
  // The degraded path's own p90 is polluted by stall samples; clamp the
  // hedge delay to sit between the normal-mode latency and the 8 ms stall.
  hc.hedge_min_delay_ns = 1 * util::kNsPerMs;
  hc.hedge_max_delay_ns = 2 * util::kNsPerMs;
  hc.seed = seed;
  return hc;
}

/// Allocate + warm a volume through `init` so the measured window hits
/// warm extents and tracked path quantiles, not cold-start artifacts.
void PreloadAndWarm(sim::Engine& engine, host::Initiator& init,
                    controller::VolumeId vol) {
  util::Bytes buf(8 * util::MiB);
  for (std::uint64_t off = 0; off < kDataset; off += buf.size()) {
    util::FillPattern(buf, off);
    bool ok = false;
    init.Write(vol, off, buf, [&](bool r) { ok = r; });
    engine.Run();
    if (!ok) std::abort();
  }
  for (int i = 0; i < 128; ++i) {
    bool ok = false;
    init.Write(vol, (static_cast<std::uint64_t>(i) * kOpBytes) % kDataset,
               util::Bytes(kOpBytes, 0x5A), [&](bool r) { ok = r; });
    engine.Run();
    if (!ok) std::abort();
  }
}

// --- (1) Write tail under a stalling blade ---------------------------------

struct TailResult {
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t double_applies = 0;
  std::uint64_t ghost_writes = 0;
  double extra_pct = 0;
  std::uint32_t digest = 0;
};

TailResult RunWriteTail(std::uint64_t seed, bool hedged) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "e16";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.flush_delay_ns = kFlushDelayNs;
  controller::StorageSystem system(engine, fabric, config);
  obs::Hub hub(engine);
  system.AttachObs(&hub);

  host::Initiator init(system, "e16h", HedgeConfig(seed, hedged));
  init.AttachObs(&hub);
  const auto vol = system.CreateVolume("e16", kDataset);
  PreloadAndWarm(engine, init, vol);

  fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0), 0,
                         kStallEvery, kStallNs);

  const std::uint64_t attempts_before = init.stats().attempts;
  auto offsets = std::make_shared<StridedOffsets>(kDataset, kStreams);
  util::Histogram latency;
  const sim::Tick until = engine.now() + kWindow;
  StartPacedWrites(engine, kStreams, until, latency,
                   [&, offsets](std::function<void(bool)> done) {
                     const std::uint64_t off = offsets->Next();
                     util::Bytes buf(kOpBytes);
                     util::FillPattern(buf, off ^ seed);
                     init.Write(vol, off, buf, std::move(done));
                   });
  engine.RunUntil(until);
  engine.Run();

  TailResult r;
  r.ops = latency.count();
  r.p50_us = static_cast<double>(latency.Percentile(0.5)) / 1000.0;
  r.p99_us = static_cast<double>(latency.Percentile(0.99)) / 1000.0;
  r.hedges = init.stats().hedges;
  r.hedge_wins = init.stats().hedge_wins;
  const auto& ds = system.write_dedup().stats();
  r.dedup_hits = ds.dedup_hits;
  r.double_applies = ds.double_applies;
  r.ghost_writes = ds.ghost_writes;
  const std::uint64_t extra = init.stats().attempts - attempts_before - r.ops;
  r.extra_pct = r.ops == 0 ? 0.0
                           : 100.0 * static_cast<double>(extra) /
                                 static_cast<double>(r.ops);
  r.digest = hub.Digest();
  return r;
}

// --- (2) Per-tenant hedge budgets ------------------------------------------

struct BudgetResult {
  std::uint64_t gold_ops = 0;
  std::uint64_t bronze_ops = 0;
  double gold_p99_us = 0;
  double bronze_p99_us = 0;
  std::uint64_t gold_hedges = 0;
  std::uint64_t bronze_hedges = 0;
  std::uint64_t bronze_denied = 0;
  std::uint64_t bronze_shed = 0;  // QoS-side view of the denials
  std::uint64_t bronze_cap = 0;   // rate x window + burst
};

BudgetResult RunBudget(std::uint64_t seed) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "e16b";
  config.controllers = 4;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.flush_delay_ns = kFlushDelayNs;
  controller::StorageSystem system(engine, fabric, config);

  qos::TenantRegistry registry;
  const auto gold = registry.Register("e16-gold", qos::ServiceClass::kGold);
  const auto bronze =
      registry.Register("e16-bronze", qos::ServiceClass::kBronze);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);
  const auto vg = system.CreateVolume("e16-gold", kDataset);
  const auto vb = system.CreateVolume("e16-bronze", kDataset);

  host::Initiator hg(system, "e16g", HedgeConfig(seed, true));
  host::Initiator hb(system, "e16b", HedgeConfig(seed + 1, true));
  PreloadAndWarm(engine, hg, vg);
  PreloadAndWarm(engine, hb, vb);

  fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0), 0,
                         kBudgetStallEvery, kStallNs);

  // Both tenants run the identical aggressive-hedging workload
  // concurrently; only their service class separates them.  Hedge counts
  // are window deltas — preload/warm speculation doesn't count against
  // the measured budget.
  const std::uint64_t gold_hedges0 = hg.stats().hedges;
  const std::uint64_t bronze_hedges0 = hb.stats().hedges;
  util::Histogram gold_lat, bronze_lat;
  const sim::Tick until = engine.now() + kWindow;
  auto issue_on = [&](host::Initiator& init, controller::VolumeId vol) {
    auto offsets = std::make_shared<StridedOffsets>(kDataset, 2);
    return [&init, offsets, vol, seed](std::function<void(bool)> done) {
      const std::uint64_t off = offsets->Next();
      util::Bytes buf(kOpBytes);
      util::FillPattern(buf, off ^ seed);
      init.Write(vol, off, buf, std::move(done));
    };
  };
  StartPacedWrites(engine, 2, until, gold_lat, issue_on(hg, vg));
  StartPacedWrites(engine, 2, until, bronze_lat, issue_on(hb, vb));
  engine.RunUntil(until);
  engine.Run();

  BudgetResult r;
  r.gold_ops = gold_lat.count();
  r.bronze_ops = bronze_lat.count();
  r.gold_p99_us = static_cast<double>(gold_lat.Percentile(0.99)) / 1000.0;
  r.bronze_p99_us =
      static_cast<double>(bronze_lat.Percentile(0.99)) / 1000.0;
  r.gold_hedges = hg.stats().hedges - gold_hedges0;
  r.bronze_hedges = hb.stats().hedges - bronze_hedges0;
  r.bronze_denied = hb.stats().hedges_denied;
  r.bronze_shed = qos.slo().stats(bronze).hedges_shed;
  // A bucket at most full at window start grants burst + rate x window.
  const auto& spec = registry.spec(qos::ServiceClass::kBronze);
  r.bronze_cap = spec.hedge_rate_per_sec * (kWindow / util::kNsPerSec) +
                 spec.hedge_burst;
  (void)gold;
  return r;
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args = Args::Parse(argc, argv);
  PrintHeader("E16", "Exactly-once writes: hedging over blade-side dedup",
              "retried and hedged writes are safe because the blades "
              "deduplicate on per-host write ids: hedging cuts the write "
              "tail without ever applying a byte twice, and speculative "
              "spend is budgeted per tenant");

  // --- (1) Write tail -------------------------------------------------------
  const TailResult plain = RunWriteTail(args.seed, false);
  const TailResult hedge = RunWriteTail(args.seed, true);
  util::Table tail({"mode", "ops", "P50 us", "P99 us", "hedges", "wins",
                    "dedup hits", "double applies", "extra req %"});
  tail.AddRow({"no hedging", util::Table::Cell(plain.ops),
               util::Table::Cell(plain.p50_us, 1),
               util::Table::Cell(plain.p99_us, 1),
               util::Table::Cell(plain.hedges),
               util::Table::Cell(plain.hedge_wins),
               util::Table::Cell(plain.dedup_hits),
               util::Table::Cell(plain.double_applies),
               util::Table::Cell(plain.extra_pct, 2)});
  tail.AddRow({"hedged writes", util::Table::Cell(hedge.ops),
               util::Table::Cell(hedge.p50_us, 1),
               util::Table::Cell(hedge.p99_us, 1),
               util::Table::Cell(hedge.hedges),
               util::Table::Cell(hedge.hedge_wins),
               util::Table::Cell(hedge.dedup_hits),
               util::Table::Cell(hedge.double_applies),
               util::Table::Cell(hedge.extra_pct, 2)});
  tail.Print("E16a 16 KiB writes, blade 0 stalls 8 ms on every 16th message "
             "(4 streams, 1 s):");
  const double p99_cut = hedge.p99_us == 0 ? 0.0 : plain.p99_us / hedge.p99_us;
  const bool tail_ok = p99_cut >= 2.0 && hedge.hedge_wins > 0;
  const bool dedup_ok = hedge.dedup_hits > 0 && hedge.double_applies == 0 &&
                        plain.double_applies == 0;
  std::printf("\nP99 cut: %.1fx (>= 2x required), hedge wins %llu: %s\n",
              p99_cut, (unsigned long long)hedge.hedge_wins,
              tail_ok ? "PASS" : "FAIL");
  std::printf("exactly-once: %llu losing copies absorbed by dedup, "
              "%llu double applications (0 required): %s\n",
              (unsigned long long)hedge.dedup_hits,
              (unsigned long long)hedge.double_applies,
              dedup_ok ? "PASS" : "FAIL");

  // --- (2) Per-tenant hedge budgets ----------------------------------------
  const BudgetResult b = RunBudget(args.seed);
  util::Table bt({"tenant", "ops", "P99 us", "hedges", "denied", "shed"});
  bt.AddRow({"gold", util::Table::Cell(b.gold_ops),
             util::Table::Cell(b.gold_p99_us, 1),
             util::Table::Cell(b.gold_hedges), util::Table::Cell(0),
             util::Table::Cell(0)});
  bt.AddRow({"bronze", util::Table::Cell(b.bronze_ops),
             util::Table::Cell(b.bronze_p99_us, 1),
             util::Table::Cell(b.bronze_hedges),
             util::Table::Cell(b.bronze_denied),
             util::Table::Cell(b.bronze_shed)});
  bt.Print("E16b identical hedging workloads, gold vs bronze budgets "
           "(2 streams each, 1 s):");
  const bool budget_ok = b.bronze_hedges <= b.bronze_cap &&
                         b.bronze_shed > 0 && b.gold_hedges > b.bronze_hedges &&
                         b.gold_p99_us < static_cast<double>(kStallNs) / 1000.0;
  std::printf("\nbronze hedges %llu <= cap %llu (rate x window + burst), "
              "%llu shed, gold hedges %llu with P99 %.1f us bounded: %s\n",
              (unsigned long long)b.bronze_hedges,
              (unsigned long long)b.bronze_cap,
              (unsigned long long)b.bronze_shed,
              (unsigned long long)b.gold_hedges, b.gold_p99_us,
              budget_ok ? "PASS" : "FAIL");

  // --- (3) Determinism ------------------------------------------------------
  const TailResult again = RunWriteTail(args.seed, true);
  const bool digest_ok = again.digest == hedge.digest;
  std::printf("same-seed digest match: %s (0x%08x)\n",
              digest_ok ? "PASS" : "FAIL", hedge.digest);

  if (args.json) {
    std::printf(
        "\nJSON: {\"experiment\":\"e16\",\"seed\":%llu,"
        "\"tail\":{\"p99_us_plain\":%.1f,\"p99_us_hedged\":%.1f,"
        "\"p99_cut\":%.2f,\"hedges\":%llu,\"hedge_wins\":%llu,"
        "\"dedup_hits\":%llu,\"double_applies\":%llu,\"ghost_writes\":%llu},"
        "\"budget\":{\"gold_hedges\":%llu,\"gold_p99_us\":%.1f,"
        "\"bronze_hedges\":%llu,\"bronze_cap\":%llu,\"bronze_shed\":%llu},"
        "\"digest_match\":%s}\n",
        (unsigned long long)args.seed, plain.p99_us, hedge.p99_us, p99_cut,
        (unsigned long long)hedge.hedges,
        (unsigned long long)hedge.hedge_wins,
        (unsigned long long)hedge.dedup_hits,
        (unsigned long long)hedge.double_applies,
        (unsigned long long)hedge.ghost_writes,
        (unsigned long long)b.gold_hedges, b.gold_p99_us,
        (unsigned long long)b.bronze_hedges,
        (unsigned long long)b.bronze_cap,
        (unsigned long long)b.bronze_shed, digest_ok ? "true" : "false");
  }
  return tail_ok && dedup_ok && budget_ok && digest_ok ? 0 : 1;
}
