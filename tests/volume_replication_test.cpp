#include <gtest/gtest.h>

#include "cache/backing.h"
#include "geo/volume_replication.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::geo {
namespace {

class VolumeReplicationTest : public ::testing::Test {
 protected:
  void Build(bool synchronous, double wan_gbps = 1.0,
             sim::Tick one_way = 10 * util::kNsPerMs) {
    local_gw_ = fabric_.AddNode("local-gw");
    remote_gw_ = fabric_.AddNode("remote-gw");
    fabric_.Connect(local_gw_, remote_gw_,
                    net::LinkProfile::Wan(one_way, wan_gbps));
    local_ = std::make_unique<cache::MemBacking>(engine_, 4096);
    remote_ = std::make_unique<cache::MemBacking>(engine_, 8192);  // bigger!
    ReplicatedBacking::Config config;
    config.synchronous = synchronous;
    repl_ = std::make_unique<ReplicatedBacking>(
        engine_, fabric_, *local_, local_gw_, *remote_, remote_gw_, config);
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  net::Fabric fabric_{engine_};
  net::NodeId local_gw_ = 0, remote_gw_ = 0;
  std::unique_ptr<cache::MemBacking> local_, remote_;
  std::unique_ptr<ReplicatedBacking> repl_;
};

TEST_F(VolumeReplicationTest, SyncWritesLandBothSidesBeforeAck) {
  Build(/*synchronous=*/true);
  const auto data = Pattern(64 * 1024, 1);
  bool acked = false;
  repl_->WriteBlocks(16, util::Payload::Copy(data),
                     [&](bool ok) { acked = ok; });
  engine_.Run();
  ASSERT_TRUE(acked);
  // Both media hold the data.
  EXPECT_TRUE(std::equal(data.begin(), data.end(),
                         local_->raw().begin() + 16 * 4096));
  EXPECT_TRUE(std::equal(data.begin(), data.end(),
                         remote_->raw().begin() + 16 * 4096));
  EXPECT_EQ(repl_->PendingBytes(), 0u);
}

TEST_F(VolumeReplicationTest, SyncAckPaysWanRoundTrip) {
  Build(/*synchronous=*/true, 1.0, 10 * util::kNsPerMs);
  sim::Tick acked = 0;
  repl_->WriteBlocks(0, util::Payload::Copy(Pattern(4096, 2)), [&](bool) {
    acked = engine_.now();
  });
  engine_.Run();
  EXPECT_GE(acked, 20 * util::kNsPerMs) << "must wait out the round trip";
}

TEST_F(VolumeReplicationTest, AsyncAcksLocallyThenConverges) {
  Build(/*synchronous=*/false);
  const auto data = Pattern(256 * 1024, 3);
  bool acked = false;
  sim::Tick acked_at = 0;
  repl_->WriteBlocks(0, util::Payload::Copy(data), [&](bool) {
    acked = true;
    acked_at = engine_.now();
  });
  engine_.RunFor(5 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  EXPECT_LT(acked_at, 5 * util::kNsPerMs) << "async ack must not wait the WAN";
  EXPECT_GT(repl_->PendingBytes(), 0u);
  bool drained = false;
  repl_->Drain([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);
  EXPECT_EQ(repl_->PendingBytes(), 0u);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), remote_->raw().begin()));
}

TEST_F(VolumeReplicationTest, AsyncAppliesInOrder) {
  Build(/*synchronous=*/false);
  // Two overlapping writes: the remote must end at the second version.
  const auto v1 = Pattern(64 * 1024, 4);
  const auto v2 = Pattern(64 * 1024, 5);
  repl_->WriteBlocks(0, util::Payload::Copy(v1), [](bool) {});
  repl_->WriteBlocks(0, util::Payload::Copy(v2), [](bool) {});
  bool drained = false;
  repl_->Drain([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);
  EXPECT_TRUE(std::equal(v2.begin(), v2.end(), remote_->raw().begin()));
  EXPECT_EQ(repl_->replicated_writes(), 2u);
}

TEST_F(VolumeReplicationTest, PrimaryFailureLosesOnlyQueuedTail) {
  Build(/*synchronous=*/false, /*wan_gbps=*/0.1);  // slow WAN
  const auto a = Pattern(512 * 1024, 6);
  const auto b = Pattern(512 * 1024, 7);
  repl_->WriteBlocks(0, util::Payload::Copy(a), [](bool) {});
  bool drained = false;
  repl_->Drain([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);  // first write fully shipped
  repl_->WriteBlocks(256, util::Payload::Copy(b), [](bool) {});
  engine_.RunFor(util::kNsPerMs);  // b still (mostly) queued
  const std::uint64_t lost = repl_->FailPrimary();
  EXPECT_GT(lost, 0u) << "the async tail is the RPO";
  engine_.Run();
  // The remote still has the first write intact — bounded loss.
  EXPECT_TRUE(std::equal(a.begin(), a.end(), remote_->raw().begin()));
}

TEST_F(VolumeReplicationTest, ReadsAreLocalOnly) {
  Build(/*synchronous=*/false);
  const auto data = Pattern(64 * 1024, 8);
  repl_->WriteBlocks(0, util::Payload::Copy(data), [](bool) {});
  bool drained = false;
  repl_->Drain([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);
  const auto wan_before = fabric_.StatsFor(local_gw_, remote_gw_).bytes;
  util::Bytes got;
  bool ok = false;
  repl_->ReadBlocks(0, 16, [&](bool r, util::Payload d) {
    ok = r;
    got = d.ToBytes();
  });
  engine_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
  EXPECT_EQ(fabric_.StatsFor(local_gw_, remote_gw_).bytes, wan_before)
      << "reads must not touch the WAN";
}

TEST_F(VolumeReplicationTest, WanFlapRetriesUntilDelivered) {
  Build(/*synchronous=*/false);
  fabric_.SetLinkUp(local_gw_, remote_gw_, false);
  const auto data = Pattern(128 * 1024, 9);
  bool acked = false;
  repl_->WriteBlocks(0, util::Payload::Copy(data),
                     [&](bool ok) { acked = ok; });
  engine_.RunFor(100 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  EXPECT_GT(repl_->PendingBytes(), 0u) << "stuck behind the dead WAN";
  fabric_.SetLinkUp(local_gw_, remote_gw_, true);
  bool drained = false;
  repl_->Drain([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), remote_->raw().begin()));
}

TEST_F(VolumeReplicationTest, DifferentSizedRemotePoolWorks) {
  // Paper §7.2: "remove the restriction of copies being the same size".
  Build(/*synchronous=*/true);
  EXPECT_GT(remote_->CapacityBlocks(), local_->CapacityBlocks());
  const auto data = Pattern(4096, 10);
  bool ok = false;
  repl_->WriteBlocks(local_->CapacityBlocks() - 1, util::Payload::Copy(data),
                     [&](bool r) { ok = r; });
  engine_.Run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nlss::geo
