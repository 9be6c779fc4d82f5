// Runtime invariant subsystem (src/check): macro semantics, registry
// accounting, violation capture, obs export, and an integration pass
// proving every instrumented subsystem family actually evaluates checks
// under a failure-heavy workload — with zero violations.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "check/invariant.h"
#include "controller/system.h"
#include "geo/geo.h"
#include "host/initiator.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/units.h"

namespace nlss::check {
namespace {

constexpr std::array<Subsystem, 5> kInstrumented = {
    Subsystem::kSim, Subsystem::kCache, Subsystem::kQos, Subsystem::kHost,
    Subsystem::kRaid};

util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::FillPattern(b, seed);
  return b;
}

TEST(Check, SubsystemNames) {
  EXPECT_STREQ(SubsystemName(Subsystem::kSim), "sim");
  EXPECT_STREQ(SubsystemName(Subsystem::kCache), "cache");
  EXPECT_STREQ(SubsystemName(Subsystem::kQos), "qos");
  EXPECT_STREQ(SubsystemName(Subsystem::kHost), "host");
  EXPECT_STREQ(SubsystemName(Subsystem::kRaid), "raid");
  EXPECT_STREQ(SubsystemName(Subsystem::kMeta), "meta");
  EXPECT_STREQ(SubsystemName(Subsystem::kOther), "other");
}

TEST(Check, MacroCountsEvaluationsWhenEnabled) {
  Registry& r = Registry::Instance();
  const std::uint64_t before = r.evaluations(Subsystem::kOther);
  NLSS_INVARIANT(kOther, 1 + 1 == 2);
  NLSS_INVARIANT(kOther, true, "with context %d", 7);
  const std::uint64_t delta = r.evaluations(Subsystem::kOther) - before;
  if (kEnabled) {
    EXPECT_EQ(delta, 2u);
  } else {
    EXPECT_EQ(delta, 0u);  // Release: the macro compiles to nothing
  }
}

TEST(Check, ViolationReachesHandlerWithContext) {
  if (!kEnabled) GTEST_SKIP() << "invariants compiled out in this build";
  Registry& r = Registry::Instance();
  const std::uint64_t before = r.violations(Subsystem::kOther);
  Violation got;
  int fired = 0;
  auto prev = r.SetHandler([&](const Violation& v) {
    got = v;
    ++fired;
  });
  const int answer = 43;
  (void)answer;  // referenced only through the macro, absent when disabled
  NLSS_INVARIANT(kOther, answer == 42, "ctx=%d", answer);
  r.SetHandler(std::move(prev));

  ASSERT_EQ(fired, 1);
  EXPECT_EQ(got.subsystem, Subsystem::kOther);
  EXPECT_NE(std::string(got.expr).find("answer == 42"), std::string::npos);
  EXPECT_EQ(got.message, "ctx=43");
  EXPECT_NE(std::string(got.file).find("check_test"), std::string::npos);
  EXPECT_GT(got.line, 0);
  EXPECT_EQ(r.violations(Subsystem::kOther) - before, 1u);
}

TEST(Check, FormatArgumentsOnlyEvaluatedOnFailure) {
  if (!kEnabled) GTEST_SKIP() << "invariants compiled out in this build";
  int calls = 0;
  auto expensive = [&calls] {
    ++calls;
    return 1;
  };
  (void)expensive;  // referenced only through the macro, absent when disabled
  NLSS_INVARIANT(kOther, true, "never formatted %d", expensive());
  EXPECT_EQ(calls, 0);
}

TEST(Check, HubExportsPerSubsystemDeltas) {
  // Burn some global evaluations BEFORE the hub exists; the hub must
  // baseline them away so exported values reflect only post-construction
  // work (two same-seed runs in one process stay digest-identical).
  NLSS_INVARIANT(kOther, true);
  NLSS_INVARIANT(kOther, true);

  sim::Engine engine;
  obs::Hub hub(engine);
  std::string text = hub.metrics().PrometheusText();
  for (int i = 0; i < kSubsystemCount; ++i) {
    const auto s = static_cast<Subsystem>(i);
    const std::string series = std::string("nlss_check_evaluations_total{") +
                               "subsystem=\"" + SubsystemName(s) + "\"} 0";
    EXPECT_NE(text.find(series), std::string::npos)
        << "missing zeroed series for " << SubsystemName(s) << " in:\n"
        << text;
  }

  NLSS_INVARIANT(kOther, true);
  text = hub.metrics().PrometheusText();
  const std::string other =
      "nlss_check_evaluations_total{subsystem=\"other\"} ";
  const auto pos = text.find(other);
  ASSERT_NE(pos, std::string::npos);
  const char after = text[pos + other.size()];
  if (kEnabled) {
    EXPECT_EQ(after, '1') << "expected a delta of exactly 1";
  } else {
    EXPECT_EQ(after, '0');
  }
}

// --- Integration: the whole stack evaluates invariants, violating none ---

struct StackResult {
  std::uint32_t digest = 0;
  std::string dump;
  std::string metrics;
  sim::Tick final_now = 0;
};

/// Failure-heavy seeded workload touching every instrumented subsystem:
/// host initiator traffic through qos admission into the coherent cache,
/// a forced path trip, FlushAll, a controller failure + recovery, and a
/// disk fail + distributed rebuild.
StackResult RunFailureWorkload(std::uint64_t seed) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.disk_profile.capacity_blocks = 16 * 1024;
  config.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, config);

  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  registry.Register("lab-b", qos::ServiceClass::kBronze);
  // Cap bronze so the token-bucket arithmetic (and its invariants) runs.
  qos::ClassSpec bronze = registry.spec(qos::ServiceClass::kBronze);
  bronze.rate_bytes_per_sec = 200 * util::MiB;
  bronze.burst_bytes = 1 * util::MiB;
  registry.SetClassSpec(qos::ServiceClass::kBronze, bronze);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);

  obs::Tracer::Config tcfg;
  tcfg.seed = seed ^ 0x0b5e7ace;
  obs::Hub hub(engine, tcfg);
  system.AttachObs(&hub);

  host::Initiator init(system, "h0");
  init.AttachObs(&hub);

  const auto vol_a = system.CreateVolume("lab-a", 8 * util::MiB);
  const auto vol_b = system.CreateVolume("lab-b", 8 * util::MiB);

  util::Rng rng(seed);
  util::Bytes buf(64 * util::KiB);
  for (int op = 0; op < 32; ++op) {
    const auto vol = (rng.Next() & 1) != 0 ? vol_a : vol_b;
    const std::uint64_t off =
        (rng.Next() % (8 * util::MiB / buf.size())) * buf.size();
    if ((rng.Next() % 2) == 0) {
      util::FillPattern(buf, off ^ seed);
      init.Write(vol, off, buf, [](bool) {});
    } else {
      init.Read(vol, off, static_cast<std::uint32_t>(buf.size()),
                [](bool, util::Payload) {});
    }
    if ((op % 4) == 3) engine.Run();
  }
  engine.Run();

  // Breaker trip + eventual reset through retried traffic.
  init.ForcePathDown(1);
  init.Write(vol_a, 0, Pattern(64 * util::KiB, 99), [](bool) {});
  engine.Run();

  // Flush everything, then lose a controller and recover coherence.
  system.cache().FlushAll([](bool) {});
  engine.Run();
  system.FailController(1);
  system.RecoverCluster();
  init.Read(vol_a, 0, 64 * util::KiB, [](bool, util::Payload) {});
  engine.Run();

  // Disk failure -> distributed rebuild across surviving controllers.
  bool rebuilt = false;
  system.FailAndRebuildDisk(0, 2, [&](bool ok) { rebuilt = ok; });
  engine.Run();
  EXPECT_TRUE(rebuilt);

  StackResult r;
  r.digest = hub.Digest();
  r.dump = hub.tracer().Dump();
  r.metrics = hub.metrics().PrometheusText();
  r.final_now = engine.now();
  return r;
}

TEST(CheckIntegration, EveryInstrumentedSubsystemEvaluatesWithNoViolations) {
  if (!kEnabled) GTEST_SKIP() << "invariants compiled out in this build";
  Registry& r = Registry::Instance();
  std::array<std::uint64_t, kSubsystemCount> eval_before{};
  std::array<std::uint64_t, kSubsystemCount> viol_before{};
  for (int i = 0; i < kSubsystemCount; ++i) {
    eval_before[i] = r.evaluations(static_cast<Subsystem>(i));
    viol_before[i] = r.violations(static_cast<Subsystem>(i));
  }

  RunFailureWorkload(7);

  for (const Subsystem s : kInstrumented) {
    const int i = static_cast<int>(s);
    EXPECT_GT(r.evaluations(s), eval_before[i])
        << "no invariant evaluated in subsystem " << SubsystemName(s);
    EXPECT_EQ(r.violations(s), viol_before[i])
        << "invariant violated in subsystem " << SubsystemName(s);
  }
}

TEST(CheckIntegration, FailureWorkloadDigestIsDeterministic) {
  // The invariant instrumentation (and its metric export) must not
  // introduce run-order dependence: two same-seed runs — including flush
  // write-backs, recovery promotion, and rebuild — digest identically.
  const StackResult a = RunFailureWorkload(11);
  const StackResult b = RunFailureWorkload(11);
  EXPECT_EQ(a.final_now, b.final_now) << "simulated time diverged";
  EXPECT_EQ(a.dump, b.dump);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(CheckIntegration, BackgroundWorkGetsRootTraces) {
  const StackResult r = RunFailureWorkload(13);
  EXPECT_NE(r.dump.find("cache.flush"), std::string::npos)
      << "flush write-backs should root their own spans";
  EXPECT_NE(r.dump.find("raid.rebuild"), std::string::npos)
      << "rebuild jobs should root their own spans";
}

TEST(CheckIntegration, GeoAsyncReplicationGetsRootTrace) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster cluster(engine, fabric, {});
  obs::Hub hub(engine);
  cluster.AttachObs(&hub.tracer());

  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  const auto west = cluster.AddSite("west", sc, geo::Location{0, 0});
  const auto east = cluster.AddSite("east", sc, geo::Location{4000, 0});
  cluster.ConnectSites(west, east,
                       net::LinkProfile::Wan(20 * util::kNsPerMs, 1.0));

  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sync = false;
  p.geo_sites = 2;
  ASSERT_EQ(cluster.Create("/log", west, p), fs::Status::kOk);
  bool wrote = false;
  cluster.Write(west, "/log", 0, util::Payload::Copy(Pattern(128 * util::KiB, 5)),
                [&](fs::Status st) { wrote = st == fs::Status::kOk; });
  engine.Run();
  ASSERT_TRUE(wrote);
  bool drained = false;
  cluster.DrainAsync([&] { drained = true; });
  engine.Run();
  ASSERT_TRUE(drained);

  EXPECT_NE(hub.tracer().Dump().find("geo.replicate"), std::string::npos)
      << "async geo shipments should root their own spans";
}

TEST(CheckIntegration, BreakerTransitionsAreTraced) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.disk_profile.capacity_blocks = 16 * 1024;
  controller::StorageSystem system(engine, fabric, config);
  obs::Hub hub(engine);
  system.AttachObs(&hub);
  host::Initiator init(system, "h0");
  init.AttachObs(&hub);

  init.ForcePathDown(0);
  engine.Run();

  // The trip is a zero-duration root trace; it lands in the recent ring.
  bool traced = false;
  for (const auto& t : hub.tracer().recent()) {
    if (t.name == "host.path" && !t.spans.empty() &&
        t.spans[0].note.find("event=trip") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced) << "breaker trip should emit a host.path trace";
}

}  // namespace
}  // namespace nlss::check
