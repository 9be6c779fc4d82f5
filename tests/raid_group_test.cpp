#include <gtest/gtest.h>

#include <memory>

#include "disk/disk.h"
#include "raid/group.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::raid {
namespace {

struct GroupCase {
  RaidLevel level;
  std::uint32_t width;
};

class RaidGroupTest : public ::testing::TestWithParam<GroupCase> {
 protected:
  void SetUp() override {
    const auto [level, width] = GetParam();
    profile_.capacity_blocks = 4096;  // 16 MiB per disk: fast tests
    farm_ = std::make_unique<disk::DiskFarm>(engine_, profile_, width);
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farm_->size(); ++i) {
      disks.push_back(&farm_->at(i));
    }
    RaidGroup::Config config;
    config.level = level;
    config.unit_blocks = 8;
    group_ = std::make_unique<RaidGroup>(engine_, std::move(disks), config);
  }

  util::Bytes MakeData(std::uint32_t blocks, std::uint64_t seed) {
    util::Bytes b(static_cast<std::size_t>(blocks) * profile_.block_size);
    util::FillPattern(b, seed);
    return b;
  }

  /// Synchronous wrappers driving the engine.
  bool Write(std::uint64_t block, const util::Bytes& data) {
    bool ok = false;
    bool fired = false;
    group_->WriteBlocks(block, util::Payload::Copy(data), [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(std::uint64_t block, std::uint32_t count) {
    bool ok = false;
    util::Bytes out;
    bool fired = false;
    group_->ReadBlocks(block, count, [&](bool r, util::Payload d) {
      ok = r;
      out = d.ToBytes();
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return {ok, std::move(out)};
  }

  sim::Engine engine_;
  disk::DiskProfile profile_;
  std::unique_ptr<disk::DiskFarm> farm_;
  std::unique_ptr<RaidGroup> group_;
};

TEST_P(RaidGroupTest, SmallWriteReadRoundtrip) {
  const auto data = MakeData(3, 42);
  ASSERT_TRUE(Write(5, data));
  auto [ok, got] = Read(5, 3);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_P(RaidGroupTest, LargeMultiStripeRoundtrip) {
  const std::uint32_t blocks = 5 * group_->layout().DataBlocksPerStripe() + 7;
  const auto data = MakeData(blocks, 7);
  ASSERT_TRUE(Write(11, data));
  auto [ok, got] = Read(11, blocks);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_P(RaidGroupTest, OverwritePartialStripe) {
  const std::uint32_t dbs = group_->layout().DataBlocksPerStripe();
  const auto base = MakeData(2 * dbs, 1);
  ASSERT_TRUE(Write(0, base));
  const auto patch = MakeData(3, 2);
  ASSERT_TRUE(Write(dbs / 2, patch));
  auto [ok, got] = Read(0, 2 * dbs);
  ASSERT_TRUE(ok);
  util::Bytes expect = base;
  std::copy(patch.begin(), patch.end(),
            expect.begin() + static_cast<std::ptrdiff_t>(dbs / 2) *
                                 profile_.block_size);
  EXPECT_EQ(got, expect);
}

TEST_P(RaidGroupTest, UnwrittenReadsZero) {
  auto [ok, got] = Read(100, 2);
  ASSERT_TRUE(ok);
  for (auto b : got) EXPECT_EQ(b, 0);
}

TEST_P(RaidGroupTest, RandomizedOpSequenceMatchesModel) {
  // Property test: the group must behave exactly like a flat byte array.
  util::Rng rng(GetParam().width * 17 + static_cast<int>(GetParam().level));
  const std::uint64_t capacity = std::min<std::uint64_t>(
      group_->DataCapacityBlocks(), 512);
  util::Bytes model(capacity * profile_.block_size, 0);
  for (int op = 0; op < 60; ++op) {
    const std::uint64_t blk = rng.Below(capacity);
    const std::uint32_t n = static_cast<std::uint32_t>(
        rng.Range(1, std::min<std::uint64_t>(capacity - blk, 40)));
    if (rng.Chance(0.5)) {
      const auto data = MakeData(n, rng.Next());
      ASSERT_TRUE(Write(blk, data));
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(
                                    blk * profile_.block_size));
    } else {
      auto [ok, got] = Read(blk, n);
      ASSERT_TRUE(ok);
      EXPECT_TRUE(std::equal(
          got.begin(), got.end(),
          model.begin() + static_cast<std::ptrdiff_t>(blk * profile_.block_size)))
          << "op " << op << " read mismatch at block " << blk;
    }
  }
}

TEST_P(RaidGroupTest, SurvivesToleratedFailures) {
  const auto [level, width] = GetParam();
  const unsigned tolerance = FaultTolerance(level, width);
  if (tolerance == 0) return;

  const std::uint32_t blocks = 3 * group_->layout().DataBlocksPerStripe();
  const auto data = MakeData(blocks, 99);
  ASSERT_TRUE(Write(0, data));

  // Kill `tolerance` disks and verify all data still reads back.
  for (unsigned f = 0; f < tolerance; ++f) {
    group_->disk(f).Fail();
  }
  auto [ok, got] = Read(0, blocks);
  ASSERT_TRUE(ok) << "degraded read failed";
  EXPECT_EQ(got, data);
  EXPECT_TRUE(group_->Operational());
}

TEST_P(RaidGroupTest, DegradedWritesStillReadable) {
  const auto [level, width] = GetParam();
  const unsigned tolerance = FaultTolerance(level, width);
  if (tolerance == 0) return;

  group_->disk(1).Fail();
  const std::uint32_t blocks = 2 * group_->layout().DataBlocksPerStripe() + 3;
  const auto data = MakeData(blocks, 5);
  ASSERT_TRUE(Write(4, data)) << "degraded write failed";
  auto [ok, got] = Read(4, blocks);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_P(RaidGroupTest, ExcessFailuresFailReads) {
  const auto [level, width] = GetParam();
  const unsigned tolerance = FaultTolerance(level, width);
  if (tolerance + 1 > width) return;

  const auto data = MakeData(4, 1);
  ASSERT_TRUE(Write(0, data));
  for (unsigned f = 0; f <= tolerance; ++f) {
    group_->disk(f).Fail();
  }
  group_->RefreshMemberStates();
  EXPECT_FALSE(group_->Operational());
  // RAID-0 with one data disk down may still serve blocks on other disks,
  // so only check the parity levels where any stripe needs the dead set.
  if (level == RaidLevel::kRaid5 || level == RaidLevel::kRaid6) {
    auto [ok, got] = Read(0, group_->layout().DataBlocksPerStripe());
    EXPECT_FALSE(ok);
  }
}

TEST_P(RaidGroupTest, RebuildRestoresRedundancy) {
  const auto [level, width] = GetParam();
  const unsigned tolerance = FaultTolerance(level, width);
  if (tolerance == 0) return;

  const std::uint32_t blocks = 4 * group_->layout().DataBlocksPerStripe();
  const auto data = MakeData(blocks, 31);
  ASSERT_TRUE(Write(0, data));

  // Fail disk 0, replace it, rebuild every stripe.
  group_->disk(0).Fail();
  group_->RefreshMemberStates();
  group_->disk(0).Replace();
  group_->BeginRebuild(0);
  for (std::uint64_t s = 0; s < group_->StripeCount(); ++s) {
    bool ok = false;
    group_->RebuildStripe(s, 0, [&](bool r) { ok = r; });
    engine_.Run();
    ASSERT_TRUE(ok) << "rebuild of stripe " << s << " failed";
  }
  group_->FinishRebuild(0);

  // Now fail a *different* tolerated set: data must still be intact, which
  // proves the rebuilt disk holds correct content.
  group_->disk(width - 1).Fail();
  auto [ok2, got] = Read(0, blocks);
  ASSERT_TRUE(ok2);
  EXPECT_EQ(got, data);
}

TEST_P(RaidGroupTest, WritesDuringRebuildLand) {
  const auto [level, width] = GetParam();
  if (FaultTolerance(level, width) == 0) return;

  const std::uint32_t dbs = group_->layout().DataBlocksPerStripe();
  ASSERT_TRUE(Write(0, MakeData(4 * dbs, 8)));
  group_->disk(0).Fail();
  group_->RefreshMemberStates();
  group_->disk(0).Replace();
  group_->BeginRebuild(0);

  // Foreground write racing the rebuild.
  const auto fresh = MakeData(dbs, 77);
  bool write_ok = false;
  group_->WriteBlocks(dbs, util::Payload::Copy(fresh),
                      [&](bool ok) { write_ok = ok; });
  for (std::uint64_t s = 0; s < group_->StripeCount(); ++s) {
    group_->RebuildStripe(s, 0, [](bool) {});
  }
  engine_.Run();
  EXPECT_TRUE(write_ok);
  group_->FinishRebuild(0);

  auto [ok, got] = Read(dbs, dbs);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, fresh);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RaidGroupTest,
    ::testing::Values(GroupCase{RaidLevel::kRaid0, 4},
                      GroupCase{RaidLevel::kRaid1, 2},
                      GroupCase{RaidLevel::kRaid1, 3},
                      GroupCase{RaidLevel::kRaid5, 3},
                      GroupCase{RaidLevel::kRaid5, 5},
                      GroupCase{RaidLevel::kRaid6, 4},
                      GroupCase{RaidLevel::kRaid6, 6}),
    [](const ::testing::TestParamInfo<GroupCase>& info) {
      return std::string(RaidLevelName(info.param.level) + 5) + "w" +
             std::to_string(info.param.width);
    });

TEST(RaidGroupCompute, ParityComputeChargesResource) {
  sim::Engine engine;
  disk::DiskProfile profile;
  profile.capacity_blocks = 1024;
  disk::DiskFarm farm(engine, profile, 5);
  std::vector<disk::Disk*> disks;
  for (std::size_t i = 0; i < farm.size(); ++i) disks.push_back(&farm.at(i));
  sim::Resource compute(engine);
  RaidGroup::Config config;
  config.level = RaidLevel::kRaid5;
  config.unit_blocks = 8;
  config.compute = &compute;
  RaidGroup group(engine, std::move(disks), config);

  util::Bytes data(group.layout().DataBlocksPerStripe() * 4096ull);
  util::FillPattern(data, 3);
  bool ok = false;
  group.WriteBlocks(0, util::Payload::Copy(data), [&](bool r) { ok = r; });
  engine.Run();
  EXPECT_TRUE(ok);
  EXPECT_GT(compute.busy_total(), 0u);
  EXPECT_GT(group.compute_bytes(), 0u);
}

TEST(RaidGroupRaid6, DoubleDegradedDataPlusParity) {
  // Kill one data disk and the P disk of a stripe; Q-based reconstruction
  // must still return correct data.
  sim::Engine engine;
  disk::DiskProfile profile;
  profile.capacity_blocks = 1024;
  disk::DiskFarm farm(engine, profile, 5);
  std::vector<disk::Disk*> disks;
  for (std::size_t i = 0; i < farm.size(); ++i) disks.push_back(&farm.at(i));
  RaidGroup::Config config;
  config.level = RaidLevel::kRaid6;
  config.unit_blocks = 8;
  RaidGroup group(engine, std::move(disks), config);

  const std::uint32_t dbs = group.layout().DataBlocksPerStripe();
  util::Bytes data(static_cast<std::size_t>(dbs) * 4096);
  util::FillPattern(data, 1234);
  bool ok = false;
  group.WriteBlocks(0, util::Payload::Copy(data), [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);

  // Stripe 0: kill the P disk and one data disk.
  const std::uint32_t p = group.layout().PDisk(0);
  const std::uint32_t d0 = group.layout().DiskForData(0, 0);
  group.disk(p).Fail();
  group.disk(d0).Fail();

  util::Bytes got;
  group.ReadBlocks(0, dbs, [&](bool r, util::Payload b) {
    ok = r;
    got = b.ToBytes();
  });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace nlss::raid
