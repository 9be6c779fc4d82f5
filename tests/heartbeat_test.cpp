#include <gtest/gtest.h>

#include <memory>

#include "controller/heartbeat.h"
#include "controller/system.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::controller {
namespace {

class HeartbeatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig config;
    config.controllers = 4;
    config.raid_groups = 2;
    config.disk_profile.capacity_blocks = 16 * 1024;
    config.cache.replication = 2;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<StorageSystem>(engine_, *fabric_, config);
    host_ = system_->AttachHost("h");
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<StorageSystem> system_;
  net::NodeId host_ = net::kInvalidNode;
};

TEST_F(HeartbeatTest, DetectsSilentCrashAndRecovers) {
  HeartbeatMonitor monitor(*system_);
  monitor.Start();
  // Keep the engine alive with a periodic no-op so probes keep firing.
  std::function<void()> keepalive = [&] {
    if (engine_.now() > 2 * util::kNsPerSec) return;
    engine_.Schedule(100 * util::kNsPerMs, keepalive);
  };
  keepalive();

  // Blade 2 vanishes without telling anyone.
  engine_.RunFor(100 * util::kNsPerMs);
  system_->CrashController(2);
  EXPECT_TRUE(system_->cache().IsAlive(2)) << "cluster unaware at first";

  engine_.RunFor(500 * util::kNsPerMs);
  EXPECT_FALSE(system_->cache().IsAlive(2)) << "monitor must detect death";
  EXPECT_EQ(monitor.detections(), 1u);
  monitor.Stop();
  engine_.Run();
}

TEST_F(HeartbeatTest, NoFalsePositivesOnHealthyCluster) {
  HeartbeatMonitor monitor(*system_);
  monitor.Start();
  std::function<void()> keepalive = [&] {
    if (engine_.now() > util::kNsPerSec) return;
    engine_.Schedule(100 * util::kNsPerMs, keepalive);
  };
  keepalive();
  engine_.RunUntil(util::kNsPerSec);
  monitor.Stop();
  engine_.Run();
  EXPECT_EQ(monitor.detections(), 0u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(system_->cache().IsAlive(c));
  }
}

TEST_F(HeartbeatTest, IoContinuesThroughUndetectedCrashViaRetry) {
  // The paper's "powerful device drivers": host retries ride out the window
  // between a crash and its detection.
  const auto vol = system_->CreateVolume("t", 16 * util::MiB);
  const auto data = Pattern(512 * util::KiB, 1);
  bool ok = false;
  system_->Write(host_, vol, 0, util::Payload::Copy(data),
                 [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);

  HeartbeatMonitor::Config hc;
  hc.interval_ns = 20 * util::kNsPerMs;
  HeartbeatMonitor monitor(*system_, hc);
  monitor.Start();

  system_->CrashController(1);
  // Issue reads immediately; some will route to the dead blade and must
  // succeed via retry once the monitor fails it out.
  int reads_ok = 0;
  constexpr int kReads = 8;
  for (int i = 0; i < kReads; ++i) {
    system_->Read(host_, vol, 0, 64 * util::KiB,
                  [&](bool r, util::Payload) { reads_ok += r ? 1 : 0; });
  }
  engine_.RunUntil(util::kNsPerSec);
  monitor.Stop();
  engine_.Run();
  EXPECT_EQ(reads_ok, kReads)
      << "every read must complete despite the silent crash";
  EXPECT_GE(monitor.detections(), 1u);
}

TEST_F(HeartbeatTest, MonitorRoleFailsOverWhenMonitorDies) {
  HeartbeatMonitor::Config hc;
  hc.interval_ns = 20 * util::kNsPerMs;
  HeartbeatMonitor monitor(*system_, hc);
  monitor.Start();
  std::function<void()> keepalive = [&] {
    if (engine_.now() > 2 * util::kNsPerSec) return;
    engine_.Schedule(50 * util::kNsPerMs, keepalive);
  };
  keepalive();

  // Kill blade 0 — the monitor itself.  Blade 1 must take over probing and
  // still detect a second crash later.
  engine_.RunFor(50 * util::kNsPerMs);
  system_->FailController(0);
  system_->RecoverCluster();
  engine_.RunFor(200 * util::kNsPerMs);
  system_->CrashController(3);
  engine_.RunFor(600 * util::kNsPerMs);
  EXPECT_FALSE(system_->cache().IsAlive(3))
      << "the surviving monitor must detect the crash";
  monitor.Stop();
  engine_.Run();
}

}  // namespace
}  // namespace nlss::controller
