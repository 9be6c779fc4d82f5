#include <gtest/gtest.h>

#include <memory>

#include "baseline/mirror_split.h"
#include "baseline/traditional_array.h"
#include "cache/backing.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/stats.h"

namespace nlss::baseline {
namespace {

class ArrayTest : public ::testing::Test {
 protected:
  void Build(TraditionalArray::Config config = {}) {
    fabric_ = std::make_unique<net::Fabric>(engine_);
    array_ = std::make_unique<TraditionalArray>(engine_, *fabric_, config);
    host_ = array_->AttachHost("host");
    for (int i = 0; i < 4; ++i) {
      backings_.push_back(std::make_unique<cache::MemBacking>(engine_, 8192));
      array_->AddLun(backings_.back().get());
    }
  }

  bool Write(std::uint32_t lun, std::uint64_t off, const util::Bytes& data) {
    bool ok = false;
    array_->Write(host_, lun, off, util::Payload::Copy(data),
                  [&](bool r) { ok = r; });
    engine_.Run();
    return ok;
  }

  std::pair<bool, util::Bytes> Read(std::uint32_t lun, std::uint64_t off,
                                    std::uint32_t len) {
    bool ok = false;
    util::Bytes out;
    array_->Read(host_, lun, off, len, [&](bool r, util::Payload d) {
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
  std::unique_ptr<TraditionalArray> array_;
  std::vector<std::unique_ptr<cache::MemBacking>> backings_;
  net::NodeId host_ = net::kInvalidNode;
};

TEST_F(ArrayTest, RoundtripThroughOwnedController) {
  Build();
  const auto data = Pattern(300000, 1);
  ASSERT_TRUE(Write(0, 1000, data));
  auto [ok, got] = Read(0, 1000, 300000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ArrayTest, StaticOwnershipConcentratesHotLunLoad) {
  Build();
  // Hammer LUN 0: all load lands on its owner.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(Write(0, i * 64 * util::KiB, Pattern(64 * util::KiB, i)));
  }
  const auto loads = array_->LoadByController();
  const auto imbalance = util::ComputeImbalance(loads);
  EXPECT_GT(imbalance.peak_to_mean, 1.8)
      << "the partner controller must have idled";
}

TEST_F(ArrayTest, WriteBackCachesAndHits) {
  Build();
  ASSERT_TRUE(Write(0, 0, Pattern(64 * util::KiB, 2)));
  const auto misses_before = array_->misses();
  auto [ok, got] = Read(0, 0, 64 * util::KiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(array_->misses(), misses_before) << "read must hit the cache";
  EXPECT_GT(array_->hits(), 0u);
}

TEST_F(ArrayTest, FailoverPreservesMirroredDirtyData) {
  Build();
  // Slow the backing so dirty data stays cached.
  for (auto& b : backings_) b->set_latency(200 * util::kNsPerMs);
  const auto data = Pattern(64 * util::KiB, 3);
  bool acked = false;
  array_->Write(host_, 0, 0, util::Payload::Copy(data),
                [&](bool ok) { acked = ok; });
  engine_.RunFor(50 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  const std::uint32_t owner = array_->OwnerOf(0);
  array_->FailController(owner);
  for (auto& b : backings_) b->set_latency(0);
  engine_.Run();
  EXPECT_NE(array_->OwnerOf(0), owner) << "partner takes over";
  auto [ok, got] = Read(0, 0, 64 * util::KiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data) << "mirrored dirty page must survive one failure";
}

TEST_F(ArrayTest, DoubleFailureLosesService) {
  Build();
  ASSERT_TRUE(Write(0, 0, Pattern(4096, 4)));
  array_->FailController(0);
  array_->FailController(1);
  auto [ok, got] = Read(0, 0, 4096);
  EXPECT_FALSE(ok) << "dual-controller array cannot survive two failures";
}

TEST(MirrorSplit, PeriodicCopiesAndRpo) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  const auto src = fabric.AddNode("src-gw");
  const auto dst = fabric.AddNode("dst-gw");
  fabric.Connect(src, dst, net::LinkProfile::Wan(10 * util::kNsPerMs, 1.0));

  std::uint64_t volume_bytes = 100 * util::MiB;
  MirrorSplitReplicator::Config config;
  config.interval_ns = 1000 * util::kNsPerMs;  // 1 s cycles
  MirrorSplitReplicator repl(engine, fabric, src, dst,
                             [&] { return volume_bytes; }, config);
  repl.Start();
  // 100 MiB over 1 Gb/s is ~0.84 s per copy + 1 s interval.
  engine.RunFor(5ull * 1000 * util::kNsPerMs);
  EXPECT_GE(repl.copies_completed(), 2u);
  // Every cycle ships the full image even if nothing changed.
  EXPECT_GE(repl.wan_bytes_shipped(),
            repl.copies_completed() * volume_bytes);
  // RPO is bounded by a full cycle, not by zero.
  EXPECT_GT(repl.RecoveryPointAge(), 0u);
}

TEST(MirrorSplit, WanFailureStopsCycles) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  const auto src = fabric.AddNode("src-gw");
  const auto dst = fabric.AddNode("dst-gw");
  fabric.Connect(src, dst, net::LinkProfile::Wan(util::kNsPerMs, 1.0));
  MirrorSplitReplicator::Config config;
  config.interval_ns = 100 * util::kNsPerMs;
  MirrorSplitReplicator repl(engine, fabric, src, dst,
                             [] { return std::uint64_t{util::MiB}; }, config);
  repl.Start();
  engine.RunFor(500 * util::kNsPerMs);
  const auto copies = repl.copies_completed();
  EXPECT_GE(copies, 1u);
  fabric.SetLinkUp(src, dst, false);
  engine.RunFor(1000 * util::kNsPerMs);
  EXPECT_EQ(repl.copies_completed(), copies);
}

}  // namespace
}  // namespace nlss::baseline
