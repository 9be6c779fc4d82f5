#include <gtest/gtest.h>

#include <memory>

#include "disk/disk.h"
#include "raid/gf256.h"
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

/// A parity group of small disks with a flat model of its data, driven
/// one step at a time, whose scrub checks every unit on disk against it.
class ParityGroup {
 public:
  ParityGroup(RaidLevel level, std::uint32_t width) {
    profile_.capacity_blocks = 256;  // 32 stripes of 8-block units
    farm_ = std::make_unique<disk::DiskFarm>(engine_, profile_, width);
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farm_->size(); ++i) {
      disks.push_back(&farm_->at(i));
    }
    RaidGroup::Config config;
    config.level = level;
    config.unit_blocks = 8;
    group_ = std::make_unique<RaidGroup>(engine_, std::move(disks), config);
    model_.assign(group_->DataCapacityBlocks() * bs(), 0);
  }

  std::uint32_t bs() const { return profile_.block_size; }
  std::uint32_t ub() const { return group_->layout().unit_blocks(); }
  std::uint32_t dbs() const { return group_->layout().DataBlocksPerStripe(); }
  RaidGroup& group() { return *group_; }
  sim::Engine& engine() { return engine_; }

  /// Start a write of `data` at `block`; the model takes it on success.
  void WriteAsync(std::uint64_t block, util::Payload data, bool* ok) {
    group_->WriteBlocks(block, data, [this, block, data, ok](bool r) {
      *ok = r;
      if (r) {
        std::copy(data.begin(), data.end(),
                  model_.begin() +
                      static_cast<std::ptrdiff_t>(block * bs()));
      }
    });
  }

  /// A seeded write: a full stripe, whole units, or part of one unit.
  void RandomWriteAsync(util::Rng& rng, bool* ok) {
    const std::uint64_t stripe = rng.Below(group_->StripeCount());
    const std::uint32_t du = group_->layout().DataUnitsPerStripe();
    std::uint64_t block = stripe * dbs();
    std::uint32_t count = dbs();
    switch (rng.Below(3)) {
      case 0:
        break;
      case 1: {
        const std::uint32_t u = static_cast<std::uint32_t>(rng.Below(du));
        block += u * ub();
        count = static_cast<std::uint32_t>(rng.Range(1, du - u)) * ub();
        break;
      }
      default:
        block += rng.Below(dbs());
        count = static_cast<std::uint32_t>(rng.Range(
            1, std::min<std::uint64_t>(ub() - 1, stripe * dbs() + dbs() -
                                                     block)));
        break;
    }
    util::Payload data(static_cast<std::size_t>(count) * bs(),
                       [&](std::span<std::uint8_t> out) {
                         util::FillPattern(out, rng.Next());
                       });
    WriteAsync(block, std::move(data), ok);
  }

  /// Compare every unit on every disk except `skip` with the model: data
  /// units byte for byte, P and Q with XorInto/GfMulInto over the model's
  /// data units of the stripe.
  void Scrub(const std::string& step, int skip = -1) {
    const Layout& layout = group_->layout();
    const std::size_t unit = static_cast<std::size_t>(ub()) * bs();
    for (std::uint64_t s = 0; s < group_->StripeCount(); ++s) {
      util::Bytes p(unit, 0), q(unit, 0);
      for (std::uint32_t u = 0; u < layout.DataUnitsPerStripe(); ++u) {
        const std::span<const std::uint8_t> data(
            model_.data() + (s * dbs() + u * ub()) * bs(), unit);
        util::XorInto(p, data);
        GfMulInto(q, data, Gf256::Exp(u));
      }
      for (std::uint32_t d = 0; d < layout.width(); ++d) {
        if (static_cast<int>(d) == skip) continue;
        const UnitRole role = layout.RoleOf(s, d);
        const util::Payload got =
            group_->disk(d).store().Read(layout.StripeLba(s), ub());
        if (role.kind == UnitRole::kData) {
          ASSERT_EQ(got, std::span<const std::uint8_t>(
                             model_.data() +
                                 (s * dbs() + role.data_index * ub()) * bs(),
                             unit))
              << step << ": data unit of stripe " << s << " on disk " << d;
        } else {
          ASSERT_EQ(got, role.kind == UnitRole::kParityP ? p : q)
              << step << ": parity unit of stripe " << s << " on disk " << d;
        }
      }
    }
  }

  const util::Bytes& model() const { return model_; }

 private:
  sim::Engine engine_;
  disk::DiskProfile profile_;
  std::unique_ptr<disk::DiskFarm> farm_;
  std::unique_ptr<RaidGroup> group_;
  util::Bytes model_;
};

TEST(RaidParityScrub, ParityMatchesDataThroughFailureRebuildAndWrites) {
  for (const GroupCase c : {GroupCase{RaidLevel::kRaid5, 3},
                            GroupCase{RaidLevel::kRaid5, 5},
                            GroupCase{RaidLevel::kRaid6, 6}}) {
    SCOPED_TRACE(RaidLevelName(c.level) + std::string(" w") +
                 std::to_string(c.width));
    ParityGroup g(c.level, c.width);
    util::Rng rng(c.width * 31 + static_cast<int>(c.level));
    auto write = [&](const std::string& step, int skip) {
      bool ok = false;
      g.RandomWriteAsync(rng, &ok);
      g.engine().Run();
      ASSERT_TRUE(ok) << step;
      g.Scrub(step, skip);
    };
    for (int op = 0; op < 24; ++op) write("healthy " + std::to_string(op), -1);

    const std::uint32_t failed =
        static_cast<std::uint32_t>(rng.Below(c.width));
    g.group().disk(failed).Fail();
    g.group().RefreshMemberStates();
    for (int op = 0; op < 12; ++op) {
      write("degraded " + std::to_string(op), static_cast<int>(failed));
    }

    // Rebuild stripe by stripe with a write racing every other one.
    g.group().disk(failed).Replace();
    g.group().BeginRebuild(failed);
    for (std::uint64_t s = 0; s < g.group().StripeCount(); ++s) {
      bool rebuilt = false, wrote = true;
      g.group().RebuildStripe(s, failed, [&](bool r) { rebuilt = r; });
      if (s % 2 == 0) g.RandomWriteAsync(rng, &wrote);
      g.engine().Run();
      ASSERT_TRUE(rebuilt) << "stripe " << s;
      ASSERT_TRUE(wrote) << "write racing the rebuild of stripe " << s;
      g.Scrub("rebuilding stripe " + std::to_string(s),
              static_cast<int>(failed));
    }
    g.group().FinishRebuild(failed);
    g.Scrub("rebuilt");
    for (int op = 0; op < 12; ++op) write("after " + std::to_string(op), -1);

    bool ok = false;
    util::Bytes got;
    g.group().ReadBlocks(0, static_cast<std::uint32_t>(
                                g.group().DataCapacityBlocks()),
                         [&](bool r, util::Payload d) {
                           ok = r;
                           got = d.ToBytes();
                         });
    g.engine().Run();
    ASSERT_TRUE(ok);
    EXPECT_EQ(got, g.model());
  }
}

TEST(RaidDeferredParity, FaultFreeRaid5WriteComputesNoParity) {
  ParityGroup g(RaidLevel::kRaid5, 5);
  const std::size_t unit = static_cast<std::size_t>(g.ub()) * g.bs();
  const util::Payload stripe(g.dbs() * g.bs(), [](std::span<std::uint8_t> out) {
    util::FillPattern(out, 1);
  });
  const util::Payload one_unit(unit, [](std::span<std::uint8_t> out) {
    util::FillPattern(out, 2);
  });

  // Full stripe: the four data units are copied out of the stripe-sized
  // buffer, so no stored unit pins it; parity adds nothing.
  std::uint64_t before = util::Payload::materialized_bytes();
  bool ok = false;
  g.WriteAsync(0, stripe, &ok);
  g.engine().Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, stripe.size());

  // One whole unit: the other units are views of what the disks hold and
  // the new unit is the caller's buffer, so nothing is written at all.
  before = util::Payload::materialized_bytes();
  g.WriteAsync(g.ub(), one_unit, &ok);
  g.engine().Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u);

  // Reading the parity unit computes it, once.
  const Layout& layout = g.group().layout();
  const util::Payload parity = g.group().disk(layout.PDisk(0)).store().Read(
      layout.StripeLba(0), g.ub());
  before = util::Payload::materialized_bytes();
  for (int read = 0; read < 2; ++read) (void)parity.data();
  EXPECT_EQ(util::Payload::materialized_bytes() - before, unit);
  g.Scrub("after the unit write");
}

TEST(RaidDeferredParity, RebuildOfUnchangedStripesReturnsTheWrittenUnits) {
  ParityGroup g(RaidLevel::kRaid5, 4);
  RaidGroup& group = g.group();
  const Layout& layout = group.layout();
  bool ok = false;
  g.WriteAsync(0,
               util::Payload(g.model().size(),
                             [](std::span<std::uint8_t> out) {
                               util::FillPattern(out, 5);
                             }),
               &ok);
  g.engine().Run();
  ASSERT_TRUE(ok);

  // The unit buffers disk 0 holds for its data units.
  constexpr std::uint32_t kLost = 0;
  std::vector<const std::uint8_t*> held(group.StripeCount(), nullptr);
  for (std::uint64_t s = 0; s < group.StripeCount(); ++s) {
    if (layout.RoleOf(s, kLost).kind != UnitRole::kData) continue;
    held[s] = group.disk(kLost).store().Read(layout.StripeLba(s), g.ub()).data();
  }

  group.disk(kLost).Fail();
  group.RefreshMemberStates();
  group.disk(kLost).Replace();
  group.BeginRebuild(kLost);
  const std::uint64_t before = util::Payload::materialized_bytes();
  for (std::uint64_t s = 0; s < group.StripeCount(); ++s) {
    bool rebuilt = false;
    group.RebuildStripe(s, kLost, [&](bool r) { rebuilt = r; });
    g.engine().Run();
    ASSERT_TRUE(rebuilt) << "stripe " << s;
  }
  group.FinishRebuild(kLost);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u)
      << "reconstruction from unread parity cancels down to the lost units";
  for (std::uint64_t s = 0; s < group.StripeCount(); ++s) {
    if (held[s] == nullptr) continue;
    EXPECT_EQ(
        group.disk(kLost).store().Read(layout.StripeLba(s), g.ub()).data(),
        held[s])
        << "stripe " << s;
  }
  g.Scrub("rebuilt");
}

}  // namespace
}  // namespace nlss::raid
