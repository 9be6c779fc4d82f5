// Host initiator stack: multipath selection, circuit breaker, deterministic
// retry/backoff, hedged reads, heartbeat failover, and the idempotency
// guard for re-driven writes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/heartbeat.h"
#include "controller/system.h"
#include "host/initiator.h"
#include "host/retry.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "qos/tenant.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::host {
namespace {

util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::FillPattern(b, seed);
  return b;
}

class HostInitiatorTest : public ::testing::Test {
 protected:
  void Build(InitiatorConfig hc = {}, controller::SystemConfig config = {}) {
    config.disk_profile.capacity_blocks = 16 * 1024;
    config.cache.replication = 2;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    init_ = std::make_unique<Initiator>(*system_, "h0", hc);
  }

  bool Write(controller::VolumeId vol, std::uint64_t off,
             const util::Bytes& data) {
    bool ok = false, fired = false;
    init_->Write(vol, off, data, [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(controller::VolumeId vol,
                                    std::uint64_t off, std::uint32_t len) {
    bool ok = false;
    util::Bytes out;
    init_->Read(vol, off, len, [&](bool r, util::Payload d) {
      ok = r;
      out = d.ToBytes();
    });
    engine_.Run();
    return {ok, std::move(out)};
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<Initiator> init_;
};

TEST_F(HostInitiatorTest, RoundtripThroughMultipath) {
  Build();
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  const auto data = Pattern(1 * util::MiB, 7);
  ASSERT_TRUE(Write(vol, 4096, data));
  auto [ok, got] = Read(vol, 4096, 1 * util::MiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
  EXPECT_EQ(init_->stats().ok, 2u);
  EXPECT_EQ(init_->stats().failed, 0u);
  EXPECT_EQ(init_->path_count(), system_->controller_count());
}

TEST_F(HostInitiatorTest, PayloadCopiedOnlyAtIngest) {
  InitiatorConfig hc;
  hc.pin_path = 0;  // enter through blade 0; no hedges
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  constexpr std::uint32_t kPage = 64 * util::KiB;
  const util::Bytes data = Pattern(2 * util::MiB, 1);
  const auto span = [&](std::uint64_t off, std::uint64_t len) {
    return std::span<const std::uint8_t>(data).subspan(off, len);
  };
  const auto read = [&](Initiator& init, std::uint64_t off,
                        std::uint32_t len) {
    util::Payload got;
    init.Read(vol, off, len, [&](bool r, util::Payload d) {
      ASSERT_TRUE(r);
      got = std::move(d);
    });
    engine_.Run();
    return got;
  };

  // A 2 MiB aligned write copies the host's bytes once, into 64 KiB
  // chunks: cache frames, replicas, flush, RAID units and disk extents
  // share them, and the RAID-5 parity stays a deferred XOR.
  auto before = util::Payload::materialized_bytes();
  ASSERT_TRUE(Write(vol, 0, data));
  EXPECT_EQ(util::Payload::materialized_bytes() - before, data.size());

  // A local hit on blade 0 hands out blade 0's frame.
  const auto local_hits = system_->cache().stats(0).local_hits;
  before = util::Payload::materialized_bytes();
  const util::Payload local = read(*init_, 2 * kPage, kPage);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u);
  EXPECT_EQ(system_->cache().stats(0).local_hits, local_hits + 1);
  EXPECT_EQ(local, span(2 * kPage, kPage));

  // A remote hit through blade 1 forwards blade 0's frame.
  InitiatorConfig hc1;
  hc1.pin_path = 1;
  Initiator other(*system_, "h1", hc1);
  before = util::Payload::materialized_bytes();
  const util::Payload remote = read(other, 2 * kPage, kPage);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u);
  EXPECT_EQ(system_->cache().stats(1).remote_hits, 1u);
  EXPECT_EQ(remote.data(), local.data());

  // A 1 MiB read joins 16 frames without gathering them.
  before = util::Payload::materialized_bytes();
  const util::Payload big = read(*init_, util::MiB, util::MiB);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u);
  EXPECT_EQ(big, span(util::MiB, util::MiB));
}

// Host I/O on a range that is empty or leaves the volume is refused on the
// next event: no attempt, retry or hedge, and no write id left unsettled.
TEST_F(HostInitiatorTest, WritePastTheVolumeEndIsRefused) {
  Build();
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  // Acking it would lose it: the blades drop pages past capacity when the
  // cache writes them back.
  EXPECT_FALSE(Write(vol, 8 * util::MiB, Pattern(64 * util::KiB, 1)));
  EXPECT_FALSE(Write(vol, 8 * util::MiB - 4096, Pattern(8192, 1)));
  EXPECT_EQ(init_->stats().attempts, 0u);
  // The system's own host entry refuses it too.
  bool ok = true;
  system_->Write(init_->node(), vol, 8 * util::MiB,
                 util::Payload::Copy(Pattern(64 * util::KiB, 1)),
                 [&](bool r) { ok = r; });
  engine_.Run();
  EXPECT_FALSE(ok);
}

TEST_F(HostInitiatorTest, ReadPastTheVolumeEndIsRefused) {
  Build();
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  EXPECT_FALSE(Read(vol, 8 * util::MiB, 64 * util::KiB).first);
  EXPECT_FALSE(Read(vol, ~0ull - 4096, 8192).first);
  EXPECT_TRUE(Read(vol, 8 * util::MiB - 4096, 4096).first);
  EXPECT_EQ(init_->stats().attempts, 1u);
  bool ok = true;
  system_->Read(init_->node(), vol, 8 * util::MiB, 4096,
                [&](bool r, util::Payload) { ok = r; });
  engine_.Run();
  EXPECT_FALSE(ok);
}

TEST_F(HostInitiatorTest, EmptyReadFailsWithoutAnAttempt) {
  Build();
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  const sim::Tick t0 = engine_.now();
  EXPECT_FALSE(Read(vol, 0, 0).first);
  EXPECT_EQ(engine_.now(), t0);
  EXPECT_EQ(init_->stats().attempts, 0u);
  EXPECT_EQ(init_->stats().retries, 0u);
  EXPECT_EQ(init_->stats().failed, 1u);
}

TEST_F(HostInitiatorTest, EmptyWriteFailsWithoutAnAttempt) {
  Build();
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  const sim::Tick t0 = engine_.now();
  EXPECT_FALSE(Write(vol, 0, {}));
  EXPECT_EQ(engine_.now(), t0);
  EXPECT_EQ(init_->stats().attempts, 0u);
  EXPECT_EQ(init_->stats().retries, 0u);
  // No write id was taken: later writes settle and prune as usual.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Write(vol, 0, Pattern(4096, i)));
  }
  EXPECT_EQ(system_->write_dedup().entries(), 1u);
}

TEST_F(HostInitiatorTest, RoundRobinSpreadsAttemptsAcrossPaths) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;  // keep attempt counts exact
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(256 * util::KiB, 1)));
  for (int i = 0; i < 7; ++i) {
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok);
  }
  // 8 ops round-robin over 4 paths: two successes each.
  for (std::size_t p = 0; p < init_->path_count(); ++p) {
    EXPECT_EQ(init_->path(p).samples(), 2u) << "path " << p;
  }
}

TEST_F(HostInitiatorTest, EwmaPolicySteersAwayFromSlowPath) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kEwmaWeighted;
  hc.hedged_reads = false;
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(256 * util::KiB, 1)));
  // Make every message to/from blade 0 carry +5 ms.
  fabric_->SetLinkDegraded(system_->switch_node(), system_->controller_node(0),
                           5 * util::kNsPerMs);
  for (int i = 0; i < 32; ++i) {
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok);
  }
  // Path 0 is warmed once (unmeasured paths score 0), then avoided.
  EXPECT_LE(init_->path(0).samples(), 3u);
  EXPECT_GT(init_->path(1).samples(), init_->path(0).samples());
  EXPECT_GT(init_->path(0).ewma_ns(), init_->path(1).ewma_ns());
}

TEST(HostRetry, BackoffIsSeedDeterministicAndBounded) {
  RetryPolicy policy;
  util::Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const sim::Tick da = BackoffDelay(policy, k, a);
    const sim::Tick db = BackoffDelay(policy, k, b);
    const sim::Tick dc = BackoffDelay(policy, k, c);
    EXPECT_EQ(da, db) << "same seed must give identical jitter at retry "
                      << k;
    any_diff = any_diff || da != dc;
    const double nominal = std::min(
        static_cast<double>(policy.backoff_max_ns),
        static_cast<double>(policy.backoff_base_ns) *
            std::pow(policy.backoff_multiplier, static_cast<double>(k - 1)));
    EXPECT_GE(static_cast<double>(da), nominal * (1.0 - policy.jitter) - 1.0);
    EXPECT_LE(static_cast<double>(da), nominal * (1.0 + policy.jitter) + 1.0);
  }
  EXPECT_TRUE(any_diff) << "different seeds should jitter differently";
}

TEST_F(HostInitiatorTest, BreakerTripsOnCrashedBladeAndRecovers) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;
  hc.heartbeat_interval_ns = 0;  // breaker only, no prober
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(512 * util::KiB, 3)));

  // Blade 2 vanishes; the cluster notices (directory remap) but the host
  // does not — its breaker has to learn from failed attempts.
  system_->CrashController(2);
  system_->RecoverCluster();
  for (int i = 0; i < 12; ++i) {
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok) << "multipath must absorb the dead blade (op " << i
                    << ")";
  }
  EXPECT_EQ(init_->path(2).state(), PathState::kDown);
  EXPECT_GT(init_->stats().failovers, 0u);
  EXPECT_EQ(init_->stats().failed, 0u);

  // Blade returns; once breaker_reset_ns elapses the next round-robin pass
  // sends a half-open trial, and the first success closes the breaker.
  system_->ReviveController(2);
  engine_.RunFor(init_->config().path.breaker_reset_ns + util::kNsPerMs);
  for (int i = 0; i < 8; ++i) {
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok);
  }
  EXPECT_EQ(init_->path(2).state(), PathState::kUp);
}

TEST_F(HostInitiatorTest, HedgedReadBeatsDegradedPrimary) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;  // keep using slow path
  hc.hedge_min_samples = 4;
  hc.hedge_min_delay_ns = 50 * util::kNsPerUs;
  hc.hedge_max_delay_ns = 4 * util::kNsPerMs;
  controller::SystemConfig sc;
  sc.controllers = 2;
  Build(hc, sc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(256 * util::KiB, 5)));
  for (int i = 0; i < 8; ++i) {  // warm both paths' latency histograms
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok);
  }
  // Every message via blade 0 now takes +20 ms: reads landing there only
  // finish fast because the hedge (fired at ~p90 of the path's history)
  // wins on blade 1.
  fabric_->SetLinkDegraded(system_->switch_node(), system_->controller_node(0),
                           20 * util::kNsPerMs);
  for (int i = 0; i < 8; ++i) {
    const sim::Tick t0 = engine_.now();
    bool ok = false;
    sim::Tick done = 0;
    util::Bytes got;
    init_->Read(vol, 0, 64 * util::KiB, [&](bool r, util::Payload d) {
      ok = r;
      got = d.ToBytes();
      done = engine_.now();
    });
    engine_.Run();  // drains loser attempts too; latency is at the callback
    ASSERT_TRUE(ok);
    EXPECT_TRUE(util::CheckPattern(got, 5));
    // The degraded RTT alone is 40 ms; the hedge must finish ops far below
    // it no matter which path the primary landed on.
    EXPECT_LT(done - t0, 20 * util::kNsPerMs) << "read " << i;
  }
  EXPECT_GT(init_->stats().hedges, 0u);
  EXPECT_GT(init_->stats().hedge_wins, 0u);
  EXPECT_EQ(init_->stats().failed, 0u);
}

TEST_F(HostInitiatorTest, LateAckCompletesOpExactlyOnce) {
  InitiatorConfig hc;
  hc.hedged_reads = false;
  // Timeout far below the real service time: every op times out, re-drives
  // after backoff, and the original ack lands late.
  hc.retry.request_timeout_ns = 100 * util::kNsPerUs;
  hc.retry.max_attempts = 12;  // window must outlast the true service time
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);

  const int kOps = 8;
  std::vector<int> fired(kOps, 0);
  std::vector<int> ok(kOps, 0);
  auto token = std::make_shared<int>(0);  // held by every op's callback
  for (int i = 0; i < kOps; ++i) {
    const auto data = Pattern(64 * util::KiB, 100 + i);
    init_->Write(vol, static_cast<std::uint64_t>(i) * 64 * util::KiB, data,
                 [&fired, &ok, i, token](bool r) {
                   ++fired[i];
                   ok[i] += r ? 1 : 0;
                 });
    engine_.Run();
  }
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(fired[i], 1) << "op " << i << " must complete exactly once";
    EXPECT_EQ(ok[i], 1) << "op " << i;
  }
  EXPECT_GT(init_->stats().timeouts, 0u);
  EXPECT_GT(init_->stats().late_acks, 0u);
  EXPECT_EQ(token.use_count(), 1)
      << "re-driven ops and their late acks must release the callback";

  // Verify the data landed intact through a second, sanely-configured host.
  Initiator verify(*system_, "h1");
  for (int i = 0; i < kOps; ++i) {
    bool rok = false;
    util::Bytes got;
    verify.Read(vol, static_cast<std::uint64_t>(i) * 64 * util::KiB,
                64 * util::KiB, [&](bool r, util::Payload d) {
                  rok = r;
                  got = d.ToBytes();
                });
    engine_.Run();
    ASSERT_TRUE(rok);
    EXPECT_TRUE(util::CheckPattern(got, 100 + static_cast<std::uint64_t>(i)));
  }
}

// Acceptance: a blade crashes mid-stream.  The multipath host keeps the
// write stream going with zero lost and zero duplicated completions, while
// a single-path (pinned) host sees its op fail.
TEST_F(HostInitiatorTest, FailoverKeepsWriteStreamIntactAcrossBladeCrash) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;
  hc.retry.max_attempts = 10;
  hc.heartbeat_interval_ns = 10 * util::kNsPerMs;
  hc.heartbeat_miss_threshold = 2;
  hc.probe_timeout_ns = 5 * util::kNsPerMs;
  Build(hc);
  init_->Start();
  controller::HeartbeatMonitor::Config mc;
  mc.interval_ns = 10 * util::kNsPerMs;
  mc.miss_threshold = 2;
  controller::HeartbeatMonitor monitor(*system_, mc);
  monitor.Start();

  const auto vol = system_->CreateVolume("physics", 64 * util::MiB);
  const int kOps = 48;
  const std::uint32_t kLen = 64 * util::KiB;
  std::vector<int> fired(kOps, 0);
  std::vector<int> ok(kOps, 0);

  // Closed loop: next write issues when the previous completes.  Blade 1
  // crashes just before op 16 goes out, guaranteeing the crash lands
  // mid-stream regardless of per-op latency; nobody calls RecoverCluster —
  // the monitor must notice cluster-side and the initiator host-side.
  std::function<void(int)> issue = [&](int i) {
    if (i >= kOps) return;
    if (i == 16) system_->CrashController(1);
    init_->Write(vol, static_cast<std::uint64_t>(i) * kLen,
                 Pattern(kLen, 200 + i), [&, i](bool r) {
                   ++fired[i];
                   ok[i] += r ? 1 : 0;
                   issue(i + 1);
                 });
  };
  issue(0);

  engine_.RunFor(5 * util::kNsPerSec);
  init_->Stop();
  monitor.Stop();
  engine_.Run();

  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(fired[i], 1) << "write " << i << " must complete exactly once";
    EXPECT_EQ(ok[i], 1) << "write " << i << " must succeed via failover";
  }
  EXPECT_EQ(init_->path(1).state(), PathState::kDown);
  EXPECT_GT(init_->stats().path_down_events, 0u);
  EXPECT_GT(init_->stats().failovers + init_->stats().path_down_redrives, 0u);
  EXPECT_EQ(monitor.detections(), 1u);

  // Every byte is readable and exact afterwards.
  Initiator verify(*system_, "h1");
  for (int i = 0; i < kOps; ++i) {
    bool rok = false;
    util::Bytes got;
    verify.Read(vol, static_cast<std::uint64_t>(i) * kLen, kLen,
                [&](bool r, util::Payload d) {
                  rok = r;
                  got = d.ToBytes();
                });
    engine_.Run();
    ASSERT_TRUE(rok) << "write " << i << " lost";
    EXPECT_TRUE(util::CheckPattern(got, 200 + static_cast<std::uint64_t>(i)));
  }

  // Single-path baseline: pinned to the dead blade, no failover possible.
  InitiatorConfig pinned;
  pinned.pin_path = 1;
  pinned.hedged_reads = false;
  pinned.retry.max_attempts = 2;
  Initiator single(*system_, "h2", pinned);
  bool sfired = false, sok = true;
  single.Write(vol, 0, Pattern(kLen, 999), [&](bool r) {
    sfired = true;
    sok = r;
  });
  engine_.Run();
  ASSERT_TRUE(sfired);
  EXPECT_FALSE(sok) << "pinned host has no path to fail over to";
}

// Same seed, same workload (including hedge races, timeouts, and jittered
// backoff) must produce a bit-identical observability digest.
TEST(HostDeterminism, TwoRunDigestIdentical) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    net::Fabric fabric(engine);
    controller::SystemConfig sc;
    sc.disk_profile.capacity_blocks = 16 * 1024;
    sc.cache.replication = 2;
    controller::StorageSystem system(engine, fabric, sc);
    obs::Hub hub(engine);
    system.AttachObs(&hub);

    InitiatorConfig hc;
    hc.policy = InitiatorConfig::Policy::kRoundRobin;
    hc.seed = seed;
    hc.hedge_min_samples = 4;
    hc.hedge_max_delay_ns = 4 * util::kNsPerMs;
    // Tight timeout so some attempts re-drive with jittered backoff.
    hc.retry.request_timeout_ns = 3 * util::kNsPerMs;
    hc.retry.max_attempts = 8;
    Initiator init(system, "h0", hc);
    init.AttachObs(&hub);

    const auto vol = system.CreateVolume("physics", 32 * util::MiB);
    // Every 8th message via blade 0 stalls 8 ms: a tail that triggers both
    // hedging and timeouts.
    fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0),
                           0, 8, 8 * util::kNsPerMs);

    std::uint64_t done = 0;
    for (int i = 0; i < 12; ++i) {
      init.Write(vol, static_cast<std::uint64_t>(i) * 64 * util::KiB,
                 Pattern(64 * util::KiB, i), [&](bool) { ++done; });
      engine.Run();
    }
    for (int i = 0; i < 24; ++i) {
      init.Read(vol, static_cast<std::uint64_t>(i % 12) * 64 * util::KiB,
                64 * util::KiB, [&](bool, util::Payload) { ++done; });
      engine.Run();
    }
    EXPECT_EQ(done, 36u);
    return hub.Digest();
  };
  const std::uint32_t d1 = run(1234);
  const std::uint32_t d2 = run(1234);
  EXPECT_EQ(d1, d2) << "same-seed runs must be bit-identical";
}

// Regression (ghost write): a write whose retries are exhausted is reported
// failed, but 1 MiB payloads are still crossing the fabric when the failure
// fires.  Without blade-side cancellation those stale copies would apply
// *after* the failure report — a write that "failed" yet mutated the volume.
// The failed outcome must stick: read-back matches the pre-failure data.
TEST_F(HostInitiatorTest, FailedWriteNeverAppliesLate) {
  Build();  // sane host for seeding and read-back
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  const auto before = Pattern(1 * util::MiB, 41);
  ASSERT_TRUE(Write(vol, 0, before));

  // Doomed host: timeout far below the ~4 ms fabric transfer of a 1 MiB
  // payload, so both attempts time out and the op fails while both copies
  // are still in flight toward the blades.
  InitiatorConfig hc;
  hc.hedged_reads = false;
  hc.hedged_writes = false;
  hc.heartbeat_interval_ns = 0;
  hc.retry.request_timeout_ns = 100 * util::kNsPerUs;
  hc.retry.max_attempts = 2;
  Initiator doomed(*system_, "h1", hc);
  bool fired = false, ok = true;
  doomed.Write(vol, 0, Pattern(1 * util::MiB, 666), [&](bool r) {
    fired = true;
    ok = r;
  });
  engine_.Run();
  ASSERT_TRUE(fired);
  EXPECT_FALSE(ok) << "both attempts must exhaust before any payload lands";
  EXPECT_GT(doomed.stats().write_cancels, 0u);

  // The late arrivals hit the cancel tombstone and are dropped, counted.
  const auto& ds = system_->write_dedup().stats();
  EXPECT_GT(ds.ghost_writes, 0u) << "stale payloads must be detected";
  EXPECT_EQ(ds.double_applies, 0u);

  // The failed outcome is the truth: the volume still holds `before`.
  auto [rok, got] = Read(vol, 0, 1 * util::MiB);
  ASSERT_TRUE(rok);
  EXPECT_EQ(got, before) << "a write reported failed must never apply";
}

// Regression (no-path retries): a transient blackout of every path used to
// burn through op->failures in a few microseconds of backoff loops — the op
// died without a single attempt reaching a wire.  No-path rounds are now
// accounted separately; with a deadline the op rides out the blackout and
// completes once the breakers go half-open.
TEST_F(HostInitiatorTest, BlackoutThenRecoveryCompletesWithinDeadline) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedged_reads = false;
  hc.hedged_writes = false;
  hc.heartbeat_interval_ns = 0;
  hc.retry.op_deadline_ns = 2 * util::kNsPerSec;
  Build(hc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);

  for (std::size_t p = 0; p < init_->path_count(); ++p) init_->ForcePathDown(p);
  ASSERT_EQ(init_->UpPaths(), 0u);

  // The blades themselves are healthy — only the host's view is dark.  The
  // op must retry through the blackout (more rounds than max_attempts would
  // ever have allowed) and succeed at the ~100 ms breaker half-open.
  const sim::Tick t0 = engine_.now();
  ASSERT_TRUE(Write(vol, 0, Pattern(64 * util::KiB, 9)));
  EXPECT_GE(engine_.now() - t0, init_->config().path.breaker_reset_ns);
  EXPECT_GT(init_->stats().no_path_failures,
            static_cast<std::uint64_t>(init_->config().retry.max_attempts))
      << "blackout rounds must not be capped by max_attempts";
  EXPECT_EQ(init_->stats().failed, 0u);
}

// Regression (hedge-loss accounting): hedges abandoned by a path-down used
// to vanish without a loss mark, and late failure replies returned early —
// the books never balanced.  Every hedge now terminates exactly once:
// hedges == hedge_wins + hedge_losses after the fabric drains.
TEST_F(HostInitiatorTest, HedgeAccountingBalancesAcrossPathDown) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedge_min_samples = 32;  // stay cold: hedge fires at max_delay
  hc.hedge_max_delay_ns = 2 * util::kNsPerMs;
  hc.retry.request_timeout_ns = 300 * util::kNsPerMs;
  hc.retry.op_deadline_ns = 2 * util::kNsPerSec;
  hc.heartbeat_interval_ns = 0;
  controller::SystemConfig sc;
  sc.controllers = 2;
  Build(hc, sc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(256 * util::KiB, 5)));
  for (int i = 0; i < 4; ++i) {
    auto [ok, got] = Read(vol, 0, 64 * util::KiB);
    ASSERT_TRUE(ok);
  }

  // Both links turn to molasses: the next read stalls, its 2 ms hedge fires
  // onto the other (equally slow) path, and we yank both paths while the
  // pair is in flight.  The abandoned hedge must be booked as a loss.
  fabric_->SetLinkDegraded(system_->switch_node(), system_->controller_node(0),
                           20 * util::kNsPerMs);
  fabric_->SetLinkDegraded(system_->switch_node(), system_->controller_node(1),
                           20 * util::kNsPerMs);
  bool fired = false, ok = false;
  init_->Read(vol, 0, 64 * util::KiB, [&](bool r, util::Payload) {
    fired = true;
    ok = r;
  });
  engine_.RunFor(5 * util::kNsPerMs);
  EXPECT_GT(init_->stats().hedges, 0u) << "cold hedge must fire at 2 ms";
  init_->ForcePathDown(0);
  init_->ForcePathDown(1);
  engine_.Run();  // breaker half-open ~100 ms later; deadline is 2 s
  ASSERT_TRUE(fired);
  EXPECT_TRUE(ok);
  EXPECT_GT(init_->stats().hedge_losses, 0u)
      << "the path-down abandoned hedge must count as a loss";
  EXPECT_EQ(init_->stats().hedges,
            init_->stats().hedge_wins + init_->stats().hedge_losses)
      << "every hedge terminates exactly once, win or loss";
}

// Writes hedge too now: a stalled primary write is beaten by a speculative
// duplicate on another blade, and the blade-side dedup absorbs whichever
// copy loses — never applying a byte twice.
TEST_F(HostInitiatorTest, HedgedWriteBeatsDegradedPrimaryExactlyOnce) {
  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;  // keep using slow path
  hc.hedge_min_samples = 4;
  hc.hedge_min_delay_ns = 50 * util::kNsPerUs;
  hc.hedge_max_delay_ns = 4 * util::kNsPerMs;
  controller::SystemConfig sc;
  sc.controllers = 2;
  Build(hc, sc);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  for (int i = 0; i < 8; ++i) {  // warm both paths' latency histograms
    ASSERT_TRUE(Write(vol, 0, Pattern(64 * util::KiB, i)));
  }
  fabric_->SetLinkDegraded(system_->switch_node(), system_->controller_node(0),
                           20 * util::kNsPerMs);
  for (int i = 0; i < 8; ++i) {
    const sim::Tick t0 = engine_.now();
    bool ok = false;
    sim::Tick done = 0;
    init_->Write(vol, 0, Pattern(64 * util::KiB, 100 + i), [&](bool r) {
      ok = r;
      done = engine_.now();
    });
    engine_.Run();  // drains loser attempts too; latency is at the callback
    ASSERT_TRUE(ok);
    EXPECT_LT(done - t0, 20 * util::kNsPerMs) << "write " << i;
  }
  EXPECT_GT(init_->stats().hedges, 0u);
  EXPECT_GT(init_->stats().hedge_wins, 0u);
  EXPECT_EQ(init_->stats().failed, 0u);

  // The losing copies reached the blades and were absorbed, not re-applied.
  const auto& ds = system_->write_dedup().stats();
  EXPECT_GT(ds.dedup_hits, 0u) << "hedge losers must hit the dedup index";
  EXPECT_EQ(ds.double_applies, 0u);

  // Last write wins and is intact.
  auto [rok, got] = Read(vol, 0, 64 * util::KiB);
  ASSERT_TRUE(rok);
  EXPECT_TRUE(util::CheckPattern(got, 107));
}

// Per-tenant hedge budgets: a tenant whose class grants no hedge rate gets
// its speculation shed at the QoS gate (and still completes un-hedged),
// while a gold tenant on the same degraded fabric hedges freely.
TEST(HostQosHedge, BronzeHedgeBudgetShedsWhileGoldHedges) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  sc.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, sc);

  qos::TenantRegistry registry;
  const auto gold = registry.Register("gold-lab", qos::ServiceClass::kGold);
  const auto bronze =
      registry.Register("bronze-lab", qos::ServiceClass::kBronze);
  qos::ClassSpec spec = registry.spec(qos::ServiceClass::kBronze);
  spec.hedge_rate_per_sec = 0;  // bronze may not speculate at all
  registry.SetClassSpec(qos::ServiceClass::kBronze, spec);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);

  const auto vg = system.CreateVolume("gold-lab", 16 * util::MiB);
  const auto vb = system.CreateVolume("bronze-lab", 16 * util::MiB);

  InitiatorConfig hc;
  hc.policy = InitiatorConfig::Policy::kRoundRobin;
  hc.hedge_min_samples = 64;              // cold: hedge at max_delay...
  hc.hedge_max_delay_ns = util::kNsPerMs; // ...1 ms, well under the stall
  hc.heartbeat_interval_ns = 0;
  Initiator hg(system, "hg", hc);
  Initiator hb(system, "hb", hc);

  auto write = [&](Initiator& h, controller::VolumeId vol, int i) {
    bool ok = false;
    h.Write(vol, 0, Pattern(64 * util::KiB, i), [&](bool r) { ok = r; });
    engine.Run();
    ASSERT_TRUE(ok);
  };
  write(hg, vg, 0);  // allocate backing state before the stall
  write(hb, vb, 0);
  fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0),
                         8 * util::kNsPerMs);
  for (int i = 1; i <= 8; ++i) {
    write(hg, vg, i);
    write(hb, vb, i);
  }

  EXPECT_GT(hg.stats().hedges, 0u);
  EXPECT_EQ(hg.stats().hedges_denied, 0u);
  EXPECT_EQ(hb.stats().hedges, 0u) << "zero hedge rate must gate every hedge";
  EXPECT_GT(hb.stats().hedges_denied, 0u);
  EXPECT_GT(qos.slo().stats(gold).hedges, 0u);
  EXPECT_GT(qos.slo().stats(bronze).hedges_shed, 0u);
  EXPECT_EQ(qos.slo().stats(bronze).hedges, 0u);
}

// Same seed, same write-hedging + dedup workload — including a blade crash
// mid-stream, re-drives racing their own cancelled copies, and the settled
// cursor pruning the index — must produce a bit-identical digest, and every
// acked write must read back intact afterwards.
TEST(HostDeterminism, WriteHedgingDedupDigestIdentical) {
  auto run = [](std::uint64_t seed) {
    sim::Engine engine;
    net::Fabric fabric(engine);
    controller::SystemConfig sc;
    sc.disk_profile.capacity_blocks = 16 * 1024;
    sc.cache.replication = 2;
    controller::StorageSystem system(engine, fabric, sc);

    qos::TenantRegistry registry;
    registry.Register("physics", qos::ServiceClass::kGold);
    qos::Scheduler qos(engine, registry, system.controller_count());
    system.AttachQos(&qos);
    obs::Hub hub(engine);
    system.AttachObs(&hub);

    InitiatorConfig hc;
    hc.policy = InitiatorConfig::Policy::kRoundRobin;
    hc.seed = seed;
    hc.hedge_min_samples = 4;
    hc.hedge_max_delay_ns = 4 * util::kNsPerMs;
    hc.retry.request_timeout_ns = 3 * util::kNsPerMs;
    hc.retry.max_attempts = 8;
    hc.heartbeat_interval_ns = 0;
    Initiator init(system, "h0", hc);
    init.AttachObs(&hub);

    const auto vol = system.CreateVolume("physics", 32 * util::MiB);
    // Every 8th message via blade 0 stalls 8 ms: hedges, timeouts, and
    // dedup-absorbed duplicates all fire.
    fabric.SetLinkDegraded(system.switch_node(), system.controller_node(0),
                           0, 8, 8 * util::kNsPerMs);

    const int kOps = 16;
    std::vector<int> ok(kOps, 0);
    for (int i = 0; i < kOps; ++i) {
      if (i == 8) {  // blade dies mid-stream: the cluster remaps homes off
        system.FailController(1);  // it; the host learns path-down the hard
        system.RecoverCluster();   // way, from its own failed attempts
      }
      init.Write(vol, static_cast<std::uint64_t>(i) * 64 * util::KiB,
                 Pattern(64 * util::KiB, 300 + i),
                 [&ok, i](bool r) { ok[i] += r ? 1 : 0; });
      engine.Run();
    }
    // Every acked write reads back exactly once-applied.
    for (int i = 0; i < kOps; ++i) {
      EXPECT_EQ(ok[i], 1) << "write " << i;
      bool rok = false;
      util::Bytes got;
      init.Read(vol, static_cast<std::uint64_t>(i) * 64 * util::KiB,
                64 * util::KiB, [&](bool r, util::Payload d) {
                  rok = r;
                  got = d.ToBytes();
                });
      engine.Run();
      EXPECT_TRUE(rok) << "write " << i;
      EXPECT_TRUE(util::CheckPattern(got, 300 + static_cast<std::uint64_t>(i)));
    }
    EXPECT_EQ(system.write_dedup().stats().double_applies, 0u);
    return hub.Digest();
  };
  const std::uint32_t d1 = run(4242);
  const std::uint32_t d2 = run(4242);
  EXPECT_EQ(d1, d2) << "same-seed hedged-write runs must be bit-identical";
}

TEST_F(HostInitiatorTest, MetricsExportLabelledPerHostAndPath) {
  Build();
  obs::Hub hub(engine_);
  system_->AttachObs(&hub);
  init_->AttachObs(&hub);
  const auto vol = system_->CreateVolume("physics", 32 * util::MiB);
  ASSERT_TRUE(Write(vol, 0, Pattern(128 * util::KiB, 1)));
  auto [ok, got] = Read(vol, 0, 128 * util::KiB);
  ASSERT_TRUE(ok);

  const std::string text = hub.metrics().PrometheusText();
  EXPECT_NE(text.find("nlss_host_reads_total{host=\"h0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nlss_host_writes_total{host=\"h0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("nlss_host_path_state{host=\"h0\",path=\"0\"}"),
            std::string::npos);
  // Host ops appear as kHost root traces.
  EXPECT_NE(hub.tracer().Dump().find("host.write"), std::string::npos);
}

}  // namespace
}  // namespace nlss::host
