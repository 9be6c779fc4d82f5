// Determinism regression: the observability digest (full trace dump +
// metrics exposition) must be bit-identical across two in-process runs of
// the same seeded workload.  Any nondeterminism anywhere in the DES —
// iteration order, un-seeded randomness, wall-clock leakage — shows up
// here as a digest mismatch.
#include <gtest/gtest.h>

#include <memory>

#include "controller/system.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/units.h"

namespace nlss::obs {
namespace {

struct RunResult {
  std::uint32_t digest = 0;
  std::string dump;
  std::string metrics;
  sim::Tick final_now = 0;
};

RunResult RunSeededWorkload(std::uint64_t seed, double sample_rate) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.disk_profile.capacity_blocks = 16 * 1024;
  controller::StorageSystem system(engine, fabric, config);
  const net::NodeId host = system.AttachHost("client");

  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  registry.Register("lab-b", qos::ServiceClass::kBronze);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);

  Tracer::Config tcfg;
  tcfg.sample_rate = sample_rate;
  tcfg.seed = seed ^ 0x0b5e7ace;
  Hub hub(engine, tcfg);
  system.AttachObs(&hub);

  const auto vol_a = system.CreateVolume("lab-a", 8 * util::MiB);
  const auto vol_b = system.CreateVolume("lab-b", 8 * util::MiB);

  util::Rng rng(seed);
  util::Bytes buf(64 * util::KiB);
  for (int op = 0; op < 64; ++op) {
    const auto vol = (rng.Next() & 1) != 0 ? vol_a : vol_b;
    const std::uint64_t off =
        (rng.Next() % (8 * util::MiB / buf.size())) * buf.size();
    if ((rng.Next() % 4) == 0) {
      util::FillPattern(buf, off ^ seed);
      system.Write(host, vol, off, util::Payload::Copy(buf), [](bool) {});
    } else {
      system.Read(host, vol, off, static_cast<std::uint32_t>(buf.size()),
                  [](bool, util::Payload) {});
    }
    // Interleave: let some ops overlap by only draining every few issues.
    if ((op % 4) == 3) engine.Run();
  }
  engine.Run();

  RunResult r;
  r.digest = hub.Digest();
  r.dump = hub.tracer().Dump();
  r.metrics = hub.metrics().PrometheusText();
  r.final_now = engine.now();
  return r;
}

TEST(ObsDeterminism, SameSeedSameDigest) {
  const RunResult a = RunSeededWorkload(7, 1.0);
  const RunResult b = RunSeededWorkload(7, 1.0);
  EXPECT_EQ(a.final_now, b.final_now) << "simulated time diverged";
  EXPECT_EQ(a.dump, b.dump);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.dump.size(), 0u);
}

TEST(ObsDeterminism, SamplingRateDoesNotPerturbSimulatedTiming) {
  // Tracing is pure bookkeeping: turning the sampler off (or fully on)
  // must not move a single simulated tick.
  const RunResult full = RunSeededWorkload(11, 1.0);
  const RunResult none = RunSeededWorkload(11, 0.0);
  const RunResult one_pct = RunSeededWorkload(11, 0.01);
  EXPECT_EQ(full.final_now, none.final_now);
  EXPECT_EQ(full.final_now, one_pct.final_now);
}

TEST(ObsDeterminism, DifferentSeedsDiverge) {
  // Not a strict requirement (digests could collide), but with a CRC over
  // the full dump two different workloads matching would be a red flag.
  const RunResult a = RunSeededWorkload(7, 1.0);
  const RunResult b = RunSeededWorkload(8, 1.0);
  EXPECT_NE(a.dump, b.dump);
}

}  // namespace
}  // namespace nlss::obs
