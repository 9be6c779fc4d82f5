#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "disk/disk.h"
#include "raid/group.h"
#include "raid/rebuild.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::raid {
namespace {

class RebuildTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kWidth = 5;

  void SetUp() override {
    profile_.capacity_blocks = 2048;
    farm_ = std::make_unique<disk::DiskFarm>(engine_, profile_, kWidth);
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farm_->size(); ++i) {
      disks.push_back(&farm_->at(i));
    }
    RaidGroup::Config config;
    config.level = RaidLevel::kRaid5;
    config.unit_blocks = 8;
    group_ = std::make_unique<RaidGroup>(engine_, std::move(disks), config);

    // Seed data across the whole group.
    data_.resize(group_->DataCapacityBlocks() * 4096ull);
    util::FillPattern(data_, 2024);
    bool ok = false;
    group_->WriteBlocks(0, util::Payload::Copy(data_), [&](bool r) { ok = r; });
    engine_.Run();
    ASSERT_TRUE(ok);
  }

  void FailAndReplace(std::uint32_t disk) {
    group_->disk(disk).Fail();
    group_->RefreshMemberStates();
    group_->disk(disk).Replace();
  }

  bool VerifyAllData() {
    bool ok = false;
    util::Bytes got;
    group_->ReadBlocks(0, static_cast<std::uint32_t>(group_->DataCapacityBlocks()),
                       [&](bool r, util::Payload b) {
                         ok = r;
                         got = b.ToBytes();
                       });
    engine_.Run();
    return ok && got == data_;
  }

  sim::Engine engine_;
  disk::DiskProfile profile_;
  std::unique_ptr<disk::DiskFarm> farm_;
  std::unique_ptr<RaidGroup> group_;
  util::Bytes data_;
};

TEST_F(RebuildTest, SingleWorkerRebuildCompletes) {
  FailAndReplace(2);
  RebuildEngine rebuild(engine_);
  rebuild.AddWorker(nullptr);
  bool done = false, ok = false;
  rebuild.Rebuild(*group_, 2, [&](bool r) {
    done = true;
    ok = r;
  });
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(group_->member_state(2), RaidGroup::MemberState::kLive);
  EXPECT_TRUE(VerifyAllData());
}

TEST_F(RebuildTest, RebuiltDiskSurvivesSubsequentFailure) {
  FailAndReplace(0);
  RebuildEngine rebuild(engine_);
  rebuild.AddWorker(nullptr);
  bool ok = false;
  rebuild.Rebuild(*group_, 0, [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  // Kill another disk: redundancy must have been fully restored.
  group_->disk(4).Fail();
  EXPECT_TRUE(VerifyAllData());
}

TEST_F(RebuildTest, WorkDistributesAcrossWorkers) {
  FailAndReplace(1);
  RebuildEngine rebuild(engine_, RebuildConfig{.chunk_stripes = 16,
                                               .xor_ns_per_byte = 0.5});
  std::vector<sim::Resource> computes;
  computes.reserve(4);
  for (int i = 0; i < 4; ++i) computes.emplace_back(engine_);
  for (int i = 0; i < 4; ++i) rebuild.AddWorker(&computes[i]);
  bool ok = false;
  rebuild.Rebuild(*group_, 1, [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  const auto chunks = rebuild.ChunksByWorker();
  const std::uint64_t total =
      std::accumulate(chunks.begin(), chunks.end(), std::uint64_t{0});
  EXPECT_EQ(total, group_->StripeCount() / 16);
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(chunks[i], 0u) << "worker " << i << " did no rebuild work";
  }
  EXPECT_TRUE(VerifyAllData());
}

TEST_F(RebuildTest, WorkerFailureMidRebuildContinuesOnOthers) {
  FailAndReplace(3);
  RebuildEngine rebuild(engine_, RebuildConfig{.chunk_stripes = 8,
                                               .xor_ns_per_byte = 0.5});
  sim::Resource c0(engine_), c1(engine_);
  const int w0 = rebuild.AddWorker(&c0);
  rebuild.AddWorker(&c1);
  bool done = false, ok = false;
  rebuild.Rebuild(*group_, 3, [&](bool r) {
    done = true;
    ok = r;
  });
  // Let the rebuild get partway, then kill worker 0.
  engine_.RunFor(50 * util::kNsPerMs);
  EXPECT_FALSE(done);
  rebuild.SetWorkerAlive(w0, false);
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(VerifyAllData());
  // The dead worker must not have completed everything.
  const auto chunks = rebuild.ChunksByWorker();
  EXPECT_GT(chunks[1], 0u);
}

TEST_F(RebuildTest, AllWorkersDeadPausesUntilRevival) {
  FailAndReplace(2);
  RebuildEngine rebuild(engine_, RebuildConfig{.chunk_stripes = 8});
  sim::Resource c0(engine_);
  const int w0 = rebuild.AddWorker(&c0);
  bool done = false;
  rebuild.Rebuild(*group_, 2, [&](bool) { done = true; });
  engine_.RunFor(10 * util::kNsPerMs);
  rebuild.SetWorkerAlive(w0, false);
  engine_.Run();
  EXPECT_FALSE(done) << "rebuild cannot finish with no live workers";
  rebuild.SetWorkerAlive(w0, true);
  engine_.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(VerifyAllData());
}

// The paper's distribution claim is about spreading rebuild load across the
// cluster: with several groups rebuilding at once, more controller workers
// finish the whole batch faster.  (Within a *single* group, extra workers
// mostly add disk seek thrash — the member disks are the bottleneck.)
TEST(RebuildScaling, MoreWorkersFinishMultipleGroupsFaster) {
  auto run_with_workers = [](int n_workers) -> sim::Tick {
    sim::Engine engine;
    disk::DiskProfile profile;
    profile.capacity_blocks = 2048;
    constexpr int kGroups = 4;
    std::vector<std::unique_ptr<disk::DiskFarm>> farms;
    std::vector<std::unique_ptr<RaidGroup>> groups;
    for (int g = 0; g < kGroups; ++g) {
      farms.push_back(std::make_unique<disk::DiskFarm>(engine, profile, 5));
      std::vector<disk::Disk*> disks;
      for (std::size_t i = 0; i < farms[g]->size(); ++i) {
        disks.push_back(&farms[g]->at(i));
      }
      RaidGroup::Config config;
      config.level = RaidLevel::kRaid5;
      config.unit_blocks = 8;
      groups.push_back(
          std::make_unique<RaidGroup>(engine, std::move(disks), config));
      util::Bytes data(groups[g]->DataCapacityBlocks() * 4096ull);
      util::FillPattern(data, g);
      bool ok = false;
      groups[g]->WriteBlocks(0, util::Payload::Copy(data),
                             [&](bool r) { ok = r; });
      engine.Run();
      EXPECT_TRUE(ok);
      groups[g]->disk(0).Fail();
      groups[g]->RefreshMemberStates();
      groups[g]->disk(0).Replace();
    }
    const sim::Tick start = engine.now();
    RebuildEngine rebuild(engine, RebuildConfig{.chunk_stripes = 8,
                                                .xor_ns_per_byte = 2.0});
    std::vector<std::unique_ptr<sim::Resource>> computes;
    for (int i = 0; i < n_workers; ++i) {
      computes.push_back(std::make_unique<sim::Resource>(engine));
      rebuild.AddWorker(computes.back().get());
    }
    int done = 0;
    for (int g = 0; g < kGroups; ++g) {
      rebuild.Rebuild(*groups[g], 0, [&](bool ok) { done += ok ? 1 : 0; });
    }
    engine.Run();
    EXPECT_EQ(done, kGroups);
    return engine.now() - start;
  };
  const sim::Tick t1 = run_with_workers(1);
  const sim::Tick t4 = run_with_workers(4);
  EXPECT_LT(t4, t1) << "distributed rebuild across groups must be faster";
  EXPECT_LT(static_cast<double>(t4), 0.6 * static_cast<double>(t1));
}

TEST_F(RebuildTest, ConcurrentJobsShareWorkers) {
  // Build a second group and rebuild both at once.
  disk::DiskFarm farm2(engine_, profile_, kWidth);
  std::vector<disk::Disk*> disks2;
  for (std::size_t i = 0; i < farm2.size(); ++i) disks2.push_back(&farm2.at(i));
  RaidGroup::Config config;
  config.level = RaidLevel::kRaid5;
  config.unit_blocks = 8;
  RaidGroup group2(engine_, std::move(disks2), config);
  util::Bytes d2(group2.DataCapacityBlocks() * 4096ull);
  util::FillPattern(d2, 5);
  bool seeded = false;
  group2.WriteBlocks(0, util::Payload::Copy(d2), [&](bool r) { seeded = r; });
  engine_.Run();
  ASSERT_TRUE(seeded);

  FailAndReplace(1);
  group2.disk(2).Fail();
  group2.RefreshMemberStates();
  group2.disk(2).Replace();

  RebuildEngine rebuild(engine_, RebuildConfig{.chunk_stripes = 16});
  sim::Resource c0(engine_), c1(engine_);
  rebuild.AddWorker(&c0);
  rebuild.AddWorker(&c1);
  int done = 0;
  rebuild.Rebuild(*group_, 1, [&](bool ok) { done += ok ? 1 : 0; });
  rebuild.Rebuild(group2, 2, [&](bool ok) { done += ok ? 1 : 0; });
  EXPECT_EQ(rebuild.ActiveJobs(), 2u);
  engine_.Run();
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(VerifyAllData());
}

}  // namespace
}  // namespace nlss::raid
