#include <gtest/gtest.h>

#include <memory>

#include "controller/highspeed.h"
#include "controller/system.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nlss::controller {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  void Build(SystemConfig config = {}) {
    // Small disks keep rebuild-related tests fast.
    config.disk_profile.capacity_blocks = 16 * 1024;  // 64 MiB per disk
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<StorageSystem>(engine_, *fabric_, config);
    host_ = system_->AttachHost("host0");
  }

  bool Write(VolumeId vol, std::uint64_t off, const util::Bytes& data) {
    bool ok = false, fired = false;
    system_->Write(host_, vol, off, util::Payload::Copy(data), [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(VolumeId vol, std::uint64_t off,
                                    std::uint32_t len) {
    bool ok = false;
    util::Bytes out;
    system_->Read(host_, vol, off, len, [&](bool r, util::Payload d) {
      ok = r;
      out = d.ToBytes();
    });
    engine_.Run();
    return {ok, std::move(out)};
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

TEST_F(SystemTest, EndToEndRoundtrip) {
  Build();
  const VolumeId vol = system_->CreateVolume("physics", 64 * util::MiB);
  const auto data = Pattern(1 * util::MiB, 1);
  ASSERT_TRUE(Write(vol, 12345, data));
  auto [ok, got] = Read(vol, 12345, 1 * util::MiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(SystemTest, FinishedOpsReleaseTheirCallbacks) {
  SystemConfig config;
  config.balancing = Balancing::kStaticByVolume;  // volume 0 enters blade 0
  Build(config);
  const VolumeId vol = system_->CreateVolume("physics", 16 * util::MiB);
  ASSERT_EQ(vol, 0u);
  // The retry loops of Write and Read must not keep themselves (and with
  // them the caller's callback and the payload) alive once the op is done.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  system_->Write(host_, vol, 0, util::Payload::Copy(Pattern(4096, 1)),
                 [token](bool) {});
  system_->Read(host_, vol, 0, 4096,
                [token = std::move(token)](bool, util::Payload) {});
  engine_.Run();
  EXPECT_TRUE(watch.expired());

  // The same once the first attempt fails on a crashed blade and a retry
  // completes the op after the failover.
  const auto crash_then_retry = [&](const auto& issue) {
    system_->CrashController(0);
    engine_.Schedule(config.retry_delay_ns / 2, [&] {
      system_->FailController(0);
      system_->RecoverCluster();
    });
    auto held = std::make_shared<int>(0);
    const sim::Tick t0 = engine_.now();
    bool ok = false;
    sim::Tick took = 0;
    issue([&, held](bool r) {
      ok = r;
      took = engine_.now() - t0;
    });
    engine_.Run();
    EXPECT_TRUE(ok);
    EXPECT_GE(took, config.retry_delay_ns) << "the first attempt must fail";
    EXPECT_EQ(held.use_count(), 1);
    system_->ReviveController(0);
    system_->RecoverCluster();
  };
  crash_then_retry([&](auto cb) {
    system_->Write(host_, vol, 0, util::Payload::Copy(Pattern(4096, 2)),
                   std::move(cb));
  });
  crash_then_retry([&](auto cb) {
    system_->Read(host_, vol, 0, 4096,
                  [cb = std::move(cb)](bool r, util::Payload d) {
                    cb(r && util::CheckPattern(d.ToBytes(), 2));
                  });
  });
}

TEST_F(SystemTest, MultipleVolumesIsolated) {
  Build();
  const VolumeId a = system_->CreateVolume("physics", 16 * util::MiB);
  const VolumeId b = system_->CreateVolume("biology", 16 * util::MiB);
  ASSERT_TRUE(Write(a, 0, Pattern(100000, 1)));
  ASSERT_TRUE(Write(b, 0, Pattern(100000, 2)));
  auto [ok_a, got_a] = Read(a, 0, 100000);
  auto [ok_b, got_b] = Read(b, 0, 100000);
  ASSERT_TRUE(ok_a && ok_b);
  EXPECT_TRUE(util::CheckPattern(got_a, 1));
  EXPECT_TRUE(util::CheckPattern(got_b, 2));
}

TEST_F(SystemTest, RoundRobinSpreadsLoad) {
  SystemConfig config;
  config.controllers = 4;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 64 * util::MiB);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Write(vol, i * 64 * util::KiB, Pattern(64 * util::KiB, i)));
  }
  std::uint64_t min_ops = ~0ull, max_ops = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto ops = system_->cache().stats(c).ops;
    min_ops = std::min(min_ops, ops);
    max_ops = std::max(max_ops, ops);
  }
  EXPECT_GT(min_ops, 0u);
  EXPECT_LE(max_ops, min_ops + 12) << "round robin must spread entry load";
}

TEST_F(SystemTest, StaticBalancingConcentratesLoad) {
  SystemConfig config;
  config.controllers = 4;
  config.balancing = Balancing::kStaticByVolume;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 64 * util::MiB);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Write(vol, i * 64 * util::KiB, Pattern(64 * util::KiB, i)));
  }
  // All entry ops land on the volume's owner blade.
  int with_ops = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (system_->cache().stats(c).ops > 0) ++with_ops;
  }
  EXPECT_EQ(with_ops, 1);
}

TEST_F(SystemTest, SurvivesControllerFailure) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.replication = 2;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  const auto data = Pattern(256 * util::KiB, 5);
  ASSERT_TRUE(Write(vol, 0, data));
  system_->FailController(1);
  system_->RecoverCluster();
  auto [ok, got] = Read(vol, 0, 256 * util::KiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(SystemTest, DiskFailureTransparentAndRebuilds) {
  Build();
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  const auto data = Pattern(2 * util::MiB, 7);
  ASSERT_TRUE(Write(vol, 0, data));

  bool rebuilt = false;
  system_->FailAndRebuildDisk(0, 2, [&](bool ok) { rebuilt = ok; });
  // Reads continue during the rebuild.
  auto [ok, got] = Read(vol, 0, 2 * util::MiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
  engine_.Run();
  EXPECT_TRUE(rebuilt);
}

TEST_F(SystemTest, WritePolicyReplicationOverride) {
  SystemConfig config;
  config.cache.replication = 2;
  config.cache.flush_delay_ns = 500 * util::kNsPerMs;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  // Critical file: 3-way; scratch file: 1-way (no copies).
  bool ok = false;
  system_->WriteReplicated(host_, vol, 0,
                           util::Payload::Copy(Pattern(64 * util::KiB, 1)), 3,
                           [&](bool r) { ok = r; });
  // Run past the ack but not past the delayed write-back flush.
  engine_.RunFor(100 * util::kNsPerMs);
  ASSERT_TRUE(ok);
  std::size_t replicas = 0;
  for (std::uint32_t c = 0; c < system_->controller_count(); ++c) {
    system_->cache().node(c).ForEach(
        [&](const cache::PageKey&, const cache::CacheNode::Frame& f) {
          if (f.is_replica) ++replicas;
        });
  }
  EXPECT_EQ(replicas, 2u);
}

TEST_F(SystemTest, ChargebackIntegration) {
  Build();
  const VolumeId vol = system_->CreateVolume("physics", 64 * util::MiB);
  (void)vol;
  system_->chargeback().Sample();
  ASSERT_TRUE(Write(vol, 0, Pattern(4 * util::MiB, 1)));
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);
  engine_.RunFor(util::kNsPerSec);
  system_->chargeback().Sample();
  EXPECT_GT(system_->chargeback().ByteSeconds("physics"), 0.0);
}

TEST_F(SystemTest, HighSpeedPortStreamsInOrderAtFullRate) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.node_capacity_pages = 4096;
  Build(config);
  const VolumeId vol = system_->CreateVolume("media", 128 * util::MiB);
  // Preload 32 MiB so the stream reads from cache (tests the port path,
  // not the disks).
  const std::uint64_t len = 32 * util::MiB;
  for (std::uint64_t off = 0; off < len; off += 4 * util::MiB) {
    ASSERT_TRUE(Write(vol, off, Pattern(4 * util::MiB, off)));
  }

  HighSpeedPort::Config pc;
  HighSpeedPort port(*system_, {0, 1, 2, 3}, pc);
  HighSpeedPort::StreamResult result;
  bool fired = false;
  port.Stream(vol, 0, len, [&](HighSpeedPort::StreamResult r) {
    result = r;
    fired = true;
  });
  engine_.Run();
  ASSERT_TRUE(fired);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, len);
  // Egress is 10 GbE; with 4 cached blades the stream should come close.
  EXPECT_GT(result.Gbps(), 7.0);
  EXPECT_LE(result.Gbps(), 10.5);
}

TEST_F(SystemTest, HighSpeedPortSingleBladeIsSlower) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.node_capacity_pages = 4096;
  // Enable the FC feed model: ~4 Gb/s per blade.
  config.cache.fc_ns_per_byte = 1.0 / util::GbpsToBytesPerNs(4.0);
  Build(config);
  const VolumeId vol = system_->CreateVolume("media", 64 * util::MiB);
  const std::uint64_t len = 8 * util::MiB;
  ASSERT_TRUE(Write(vol, 0, Pattern(len, 3)));
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);

  auto run_stream = [&](std::vector<cache::ControllerId> blades) {
    HighSpeedPort port(*system_, blades, {});
    HighSpeedPort::StreamResult result;
    port.Stream(vol, 0, len, [&](HighSpeedPort::StreamResult r) {
      result = r;
    });
    engine_.Run();
    return result;
  };
  // Note: after the first stream the data is cache-resident, so use cold
  // volumes per measurement would be ideal; here relative ordering of a
  // cached stream through 1 vs 4 blades still shows the compute/FC limits.
  const auto r4 = run_stream({0, 1, 2, 3});
  const auto r1 = run_stream({0});
  ASSERT_TRUE(r4.ok);
  ASSERT_TRUE(r1.ok);
  EXPECT_GT(r4.Gbps(), r1.Gbps()) << "striping over blades must be faster";
}

TEST_F(SystemTest, RandomizedEndToEnd) {
  SystemConfig config;
  config.controllers = 3;
  Build(config);
  const std::uint64_t size = 16 * util::MiB;
  const VolumeId vol = system_->CreateVolume("t", size);
  util::Rng rng(4242);
  util::Bytes model(size, 0);
  for (int op = 0; op < 60; ++op) {
    const std::uint64_t off = rng.Below(size - 1);
    const std::uint32_t len = static_cast<std::uint32_t>(
        rng.Range(1, std::min<std::uint64_t>(size - off, 300000)));
    if (rng.Chance(0.5)) {
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      ASSERT_TRUE(Write(vol, off, data));
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
    } else {
      auto [ok, got] = Read(vol, off, len);
      ASSERT_TRUE(ok);
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "mismatch at op " << op;
    }
  }
}

}  // namespace
}  // namespace nlss::controller
