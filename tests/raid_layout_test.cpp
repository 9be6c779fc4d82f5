#include <gtest/gtest.h>

#include <set>

#include "raid/gf256.h"
#include "raid/layout.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::raid {
namespace {

TEST(Gf256, MulBasics) {
  EXPECT_EQ(Gf256::Mul(0, 77), 0);
  EXPECT_EQ(Gf256::Mul(77, 0), 0);
  EXPECT_EQ(Gf256::Mul(1, 77), 77);
  EXPECT_EQ(Gf256::Mul(2, 0x80), 0x1D);  // overflow reduces by 0x11D
}

TEST(Gf256, MulCommutativeAssociative) {
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.Below(256));
    const auto b = static_cast<std::uint8_t>(rng.Below(256));
    const auto c = static_cast<std::uint8_t>(rng.Below(256));
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
    EXPECT_EQ(Gf256::Mul(Gf256::Mul(a, b), c), Gf256::Mul(a, Gf256::Mul(b, c)));
    // Distributivity over XOR (field addition).
    EXPECT_EQ(Gf256::Mul(a, static_cast<std::uint8_t>(b ^ c)),
              Gf256::Mul(a, b) ^ Gf256::Mul(a, c));
  }
}

TEST(Gf256, InverseProperty) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = Gf256::Inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Gf256::Mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256, DivInvertsMul) {
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.Below(256));
    const auto b = static_cast<std::uint8_t>(rng.Range(1, 255));
    EXPECT_EQ(Gf256::Div(Gf256::Mul(a, b), b), a);
  }
}

TEST(Gf256, GeneratorHasFullOrder) {
  std::set<std::uint8_t> seen;
  for (unsigned i = 0; i < 255; ++i) seen.insert(Gf256::Exp(i));
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(Gf256::Exp(0), 1);
  EXPECT_EQ(Gf256::Exp(255), 1);  // wraps
}

TEST(Gf256, BufferKernels) {
  util::Bytes a(1000), b(1000);
  util::FillPattern(a, 1);
  util::FillPattern(b, 2);
  util::Bytes x = a;
  util::XorInto(x, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i], a[i] ^ b[i]);
  }
  // GfMulInto with coeff 1 == XorInto.
  util::Bytes y = a;
  GfMulInto(y, b, 1);
  EXPECT_EQ(y, x);
  // GfMulInto general case, element-wise check.
  util::Bytes z = a;
  GfMulInto(z, b, 0x53);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_EQ(z[i], a[i] ^ Gf256::Mul(b[i], 0x53));
  }
  // GfScale.
  util::Bytes w = a;
  GfScale(w, 0x7);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], Gf256::Mul(a[i], 0x7));
  }
}

// --- Layout property tests ---------------------------------------------

struct LayoutCase {
  RaidLevel level;
  std::uint32_t width;
};

class LayoutPropertyTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutPropertyTest, RolesPartitionEveryStripe) {
  const auto [level, width] = GetParam();
  const Layout layout(level, width, 16);
  for (std::uint64_t s = 0; s < 4 * width; ++s) {
    std::set<std::uint32_t> data_indices;
    unsigned p_count = 0, q_count = 0;
    for (std::uint32_t d = 0; d < width; ++d) {
      const UnitRole role = layout.RoleOf(s, d);
      switch (role.kind) {
        case UnitRole::kData:
          EXPECT_LT(role.data_index, layout.DataUnitsPerStripe());
          if (level != RaidLevel::kRaid1) {
            EXPECT_TRUE(data_indices.insert(role.data_index).second)
                << "duplicate data index in stripe " << s;
          }
          break;
        case UnitRole::kParityP: ++p_count; break;
        case UnitRole::kParityQ: ++q_count; break;
      }
    }
    switch (level) {
      case RaidLevel::kRaid0:
      case RaidLevel::kRaid1:
        EXPECT_EQ(p_count, 0u);
        EXPECT_EQ(q_count, 0u);
        break;
      case RaidLevel::kRaid5:
        EXPECT_EQ(p_count, 1u);
        EXPECT_EQ(q_count, 0u);
        EXPECT_EQ(data_indices.size(), width - 1);
        break;
      case RaidLevel::kRaid6:
        EXPECT_EQ(p_count, 1u);
        EXPECT_EQ(q_count, 1u);
        EXPECT_EQ(data_indices.size(), width - 2);
        break;
    }
  }
}

TEST_P(LayoutPropertyTest, DiskForDataMatchesRoleOf) {
  const auto [level, width] = GetParam();
  const Layout layout(level, width, 8);
  if (level == RaidLevel::kRaid1) return;  // mirrors: all disks hold unit 0
  for (std::uint64_t s = 0; s < 3 * width; ++s) {
    for (std::uint32_t u = 0; u < layout.DataUnitsPerStripe(); ++u) {
      const std::uint32_t d = layout.DiskForData(s, u);
      const UnitRole role = layout.RoleOf(s, d);
      EXPECT_EQ(role.kind, UnitRole::kData);
      EXPECT_EQ(role.data_index, u);
    }
  }
}

TEST_P(LayoutPropertyTest, SplitRoundtrips) {
  const auto [level, width] = GetParam();
  const Layout layout(level, width, 8);
  const std::uint32_t dbs = layout.DataBlocksPerStripe();
  for (std::uint64_t blk = 0; blk < 10 * dbs; blk += 3) {
    const auto a = layout.Split(blk);
    EXPECT_EQ(a.stripe * dbs + a.data_unit * layout.unit_blocks() +
                  a.offset_blocks,
              blk);
    EXPECT_LT(a.data_unit, layout.DataUnitsPerStripe());
    EXPECT_LT(a.offset_blocks, layout.unit_blocks());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, LayoutPropertyTest,
    ::testing::Values(LayoutCase{RaidLevel::kRaid0, 1},
                      LayoutCase{RaidLevel::kRaid0, 4},
                      LayoutCase{RaidLevel::kRaid1, 2},
                      LayoutCase{RaidLevel::kRaid1, 3},
                      LayoutCase{RaidLevel::kRaid5, 3},
                      LayoutCase{RaidLevel::kRaid5, 5},
                      LayoutCase{RaidLevel::kRaid5, 8},
                      LayoutCase{RaidLevel::kRaid6, 4},
                      LayoutCase{RaidLevel::kRaid6, 6},
                      LayoutCase{RaidLevel::kRaid6, 10}),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return std::string(RaidLevelName(info.param.level) + 5) + "w" +
             std::to_string(info.param.width);
    });

TEST(Layout, ParityRotatesAcrossAllDisks) {
  const Layout layout(RaidLevel::kRaid5, 5, 16);
  std::set<std::uint32_t> parity_disks;
  for (std::uint64_t s = 0; s < 5; ++s) parity_disks.insert(layout.PDisk(s));
  EXPECT_EQ(parity_disks.size(), 5u) << "parity must rotate over every disk";
}

TEST(Layout, Raid6PAndQDistinct) {
  const Layout layout(RaidLevel::kRaid6, 6, 16);
  for (std::uint64_t s = 0; s < 12; ++s) {
    EXPECT_NE(layout.PDisk(s), layout.QDisk(s));
  }
}

TEST(Layout, CapacityMath) {
  const Layout r5(RaidLevel::kRaid5, 5, 16);
  // 1024 blocks/disk, 16-block units -> 64 stripes * 4 data units * 16.
  EXPECT_EQ(r5.DataCapacityBlocks(1024), 64u * 4 * 16);
  const Layout r1(RaidLevel::kRaid1, 3, 16);
  EXPECT_EQ(r1.DataCapacityBlocks(1024), 1024u);
  const Layout r0(RaidLevel::kRaid0, 4, 16);
  EXPECT_EQ(r0.DataCapacityBlocks(1024), 4096u);
}

TEST(Layout, FaultToleranceValues) {
  EXPECT_EQ(FaultTolerance(RaidLevel::kRaid0, 4), 0u);
  EXPECT_EQ(FaultTolerance(RaidLevel::kRaid1, 3), 2u);
  EXPECT_EQ(FaultTolerance(RaidLevel::kRaid5, 5), 1u);
  EXPECT_EQ(FaultTolerance(RaidLevel::kRaid6, 8), 2u);
}

}  // namespace
}  // namespace nlss::raid
