#include <gtest/gtest.h>

#include "disk/disk.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::disk {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  DiskProfile profile;  // defaults

  std::unique_ptr<Disk> MakeDisk() {
    return std::make_unique<Disk>(engine, profile, "d0");
  }

  util::Bytes Pattern(std::uint32_t blocks, std::uint64_t seed) const {
    util::Bytes b(static_cast<std::size_t>(blocks) * profile.block_size);
    util::FillPattern(b, seed);
    return b;
  }
};

TEST_F(DiskTest, UnwrittenBlocksReadZero) {
  auto d = MakeDisk();
  util::Bytes got;
  d->Read(10, 2, [&](bool ok, util::Payload data) {
    EXPECT_TRUE(ok);
    got = data.ToBytes();
  });
  engine.Run();
  ASSERT_EQ(got.size(), 2u * profile.block_size);
  for (auto b : got) EXPECT_EQ(b, 0);
}

TEST_F(DiskTest, WriteThenReadRoundtrip) {
  auto d = MakeDisk();
  util::Bytes data(3 * profile.block_size);
  util::FillPattern(data, 5);
  bool wrote = false;
  d->Write(100, util::Payload::Copy(data), [&](bool ok) { wrote = ok; });
  engine.Run();
  EXPECT_TRUE(wrote);
  util::Bytes got;
  d->Read(100, 3, [&](bool, util::Payload b) { got = b.ToBytes(); });
  engine.Run();
  EXPECT_EQ(got, data);
}

TEST_F(DiskTest, PartialOverlapReads) {
  auto d = MakeDisk();
  util::Bytes data(2 * profile.block_size);
  util::FillPattern(data, 7);
  d->Write(50, util::Payload::Copy(data), [](bool) {});
  engine.Run();
  util::Bytes got;
  d->Read(51, 1, [&](bool, util::Payload b) { got = b.ToBytes(); });
  engine.Run();
  EXPECT_TRUE(std::equal(got.begin(), got.end(),
                         data.begin() + profile.block_size));
}

TEST_F(DiskTest, RandomAccessPaysSeek) {
  auto d = MakeDisk();
  sim::Tick t_random = 0;
  // A full-stroke seek costs well above the average seek time.
  d->Read(profile.capacity_blocks - 1, 1,
          [&](bool, util::Payload) { t_random = engine.now(); });
  engine.Run();
  EXPECT_GE(t_random, profile.avg_seek_ns + profile.half_rotation_ns);
}

TEST_F(DiskTest, SeekCostScalesWithDistance) {
  // Short strides (slightly out-of-order streaming) must cost far less
  // than full-stroke seeks: the a + b*sqrt(d) curve.
  auto measure = [&](std::uint64_t from, std::uint64_t to) {
    auto d = MakeDisk();
    sim::Engine& e = engine;
    sim::Tick t0 = 0, t1 = 0;
    d->Read(from, 1, [&](bool, util::Payload) { t0 = e.now(); });
    engine.Run();
    d->Read(to, 1, [&](bool, util::Payload) { t1 = e.now(); });
    engine.Run();
    return t1 - t0;
  };
  const sim::Tick near = measure(0, 32);  // skip 31 blocks
  const sim::Tick far = measure(0, profile.capacity_blocks - 2);
  EXPECT_LT(near, 3 * util::kNsPerMs);
  EXPECT_GT(far, 6 * util::kNsPerMs);
  EXPECT_LT(4 * near, far);
}

TEST_F(DiskTest, SequentialAccessSkipsSeek) {
  auto d = MakeDisk();
  // First access seeks; the follow-on at the next LBA is sequential.
  sim::Tick t1 = 0, t2 = 0;
  d->Read(0, 1, [&](bool, util::Payload) { t1 = engine.now(); });
  engine.Run();
  d->Read(1, 1, [&](bool, util::Payload) { t2 = engine.now(); });
  engine.Run();
  const sim::Tick transfer_only = t2 - t1;
  EXPECT_LT(transfer_only, profile.avg_seek_ns)
      << "sequential access must not pay the seek penalty";
}

TEST_F(DiskTest, FifoQueueing) {
  auto d = MakeDisk();
  sim::Tick t1 = 0, t2 = 0;
  d->Read(0, 1, [&](bool, util::Payload) { t1 = engine.now(); });
  d->Read(1, 1, [&](bool, util::Payload) { t2 = engine.now(); });
  engine.Run();
  EXPECT_GT(t2, t1);
}

TEST_F(DiskTest, FailedDiskRejectsIo) {
  auto d = MakeDisk();
  d->Fail();
  bool read_ok = true, write_ok = true;
  d->Read(0, 1, [&](bool ok, util::Payload) { read_ok = ok; });
  util::Bytes data(profile.block_size);
  d->Write(0, util::Payload::Copy(data), [&](bool ok) { write_ok = ok; });
  engine.Run();
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
}

TEST_F(DiskTest, FailureMidFlightFailsOutstandingIo) {
  auto d = MakeDisk();
  bool ok = true;
  d->Read(0, 1, [&](bool r, util::Payload) { ok = r; });
  d->Fail();  // before the simulated completion
  engine.Run();
  EXPECT_FALSE(ok);
}

TEST_F(DiskTest, FailReplaceMidFlightFailsOutstandingIo) {
  auto d = MakeDisk();
  d->Write(0, util::Payload::Copy(Pattern(1, 3)), [](bool) {});
  engine.Run();
  bool read_ok = true, write_ok = true;
  d->Read(0, 1, [&](bool r, util::Payload) { read_ok = r; });
  d->Write(5, util::Payload::Copy(Pattern(1, 4)),
           [&](bool r) { write_ok = r; });
  // Swap the drive in the same tick, as StorageSystem::FailAndRebuildDisk
  // does: requests issued to the old drive must not complete against the
  // fresh one (the read would return its zeros, the write would land).
  d->Fail();
  d->Replace();
  engine.Run();
  EXPECT_FALSE(read_ok);
  EXPECT_FALSE(write_ok);
  EXPECT_EQ(d->store().allocated_blocks(), 0u);
  bool ok = false;
  d->Write(5, util::Payload::Copy(Pattern(1, 5)), [&](bool r) { ok = r; });
  engine.Run();
  EXPECT_TRUE(ok) << "the replacement serves requests issued to it";
}

TEST_F(DiskTest, ReplaceGivesFreshZeroedDrive) {
  auto d = MakeDisk();
  util::Bytes data(profile.block_size);
  util::FillPattern(data, 1);
  d->Write(0, util::Payload::Copy(data), [](bool) {});
  engine.Run();
  d->Fail();
  d->Replace();
  EXPECT_FALSE(d->failed());
  util::Bytes got;
  d->Read(0, 1, [&](bool ok, util::Payload b) {
    EXPECT_TRUE(ok);
    got = b.ToBytes();
  });
  engine.Run();
  for (auto b : got) EXPECT_EQ(b, 0);
}

TEST_F(DiskTest, TrimZeroesBlocks) {
  auto d = MakeDisk();
  util::Bytes data(profile.block_size);
  util::FillPattern(data, 2);
  d->Write(7, util::Payload::Copy(data), [](bool) {});
  engine.Run();
  EXPECT_EQ(d->store().allocated_blocks(), 1u);
  d->Trim(7, 1);
  EXPECT_EQ(d->store().allocated_blocks(), 0u);
}

TEST_F(DiskTest, StatsTracked) {
  auto d = MakeDisk();
  util::Bytes data(profile.block_size);
  d->Write(0, util::Payload::Copy(data), [](bool) {});
  d->Read(0, 1, [](bool, util::Payload) {});
  engine.Run();
  EXPECT_EQ(d->stats().writes, 1u);
  EXPECT_EQ(d->stats().reads, 1u);
  EXPECT_EQ(d->stats().bytes_written, profile.block_size);
  EXPECT_EQ(d->stats().bytes_read, profile.block_size);
  EXPECT_GT(d->stats().busy_ns, 0u);
}

TEST_F(DiskTest, SequentialThroughputNearMediaRate) {
  auto d = MakeDisk();
  const std::uint32_t blocks_per_io = 256;  // 1 MiB
  std::uint64_t done_bytes = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    d->Read(i * blocks_per_io, blocks_per_io, [&](bool ok, util::Payload b) {
      EXPECT_TRUE(ok);
      done_bytes += b.size();
    });
  }
  engine.Run();
  const double mbps = util::ThroughputMBps(done_bytes, engine.now());
  // Media rate is 60 MB/s; sequential stream should get close (one seek).
  EXPECT_GT(mbps, 55.0);
  EXPECT_LE(mbps, 61.0);
}

TEST_F(DiskTest, RewriteLeavesReadPayloadUntouched) {
  auto d = MakeDisk();
  const util::Bytes v1 = Pattern(4, 11);
  d->Write(0, util::Payload::Copy(v1), [](bool) {});
  engine.Run();
  util::Payload held;
  d->Read(0, 4, [&](bool, util::Payload p) { held = std::move(p); });
  engine.Run();
  // A whole-extent rewrite and a partial one that trims the new extent.
  d->Write(0, util::Payload::Copy(Pattern(4, 12)), [](bool) {});
  d->Write(1, util::Payload::Copy(Pattern(1, 13)), [](bool) {});
  engine.Run();
  EXPECT_EQ(held, v1);
}

TEST(BlockStore, OverlappingWritesTrimOlderExtents) {
  constexpr std::uint32_t kBs = 512;
  BlockStore store(kBs);
  auto pattern = [](std::uint32_t blocks, std::uint64_t seed) {
    util::Bytes b(blocks * kBs);
    util::FillPattern(b, seed);
    return b;
  };
  const util::Bytes a = pattern(8, 1), b = pattern(2, 2), c = pattern(4, 3);
  store.Write(0, util::Payload::Copy(a));   // [0, 8)
  store.Write(2, util::Payload::Copy(b));   // [2, 4) splits it
  store.Write(6, util::Payload::Copy(c));   // [6, 10) trims its tail
  EXPECT_EQ(store.allocated_blocks(), 10u);
  util::Bytes expect = a;
  expect.resize(10 * kBs);
  std::copy(b.begin(), b.end(), expect.begin() + 2 * kBs);
  std::copy(c.begin(), c.end(), expect.begin() + 6 * kBs);
  EXPECT_EQ(store.Read(0, 10), expect);

  // A range inside one extent is a view of it: nothing is copied.
  const std::uint64_t before = util::Payload::materialized_bytes();
  const util::Payload inside = store.Read(4, 2);  // tail of the split `a`
  EXPECT_EQ(util::Payload::materialized_bytes(), before);
  EXPECT_EQ(inside, std::span<const std::uint8_t>(a).subspan(4 * kBs, 2 * kBs));
}

TEST(BlockStore, UnwrittenAndTrimmedRangesReadZero) {
  constexpr std::uint32_t kBs = 512;
  BlockStore store(kBs);
  util::Bytes data(4 * kBs);
  util::FillPattern(data, 6);
  store.Write(0, util::Payload::Copy(data));
  store.Trim(1, 2);
  EXPECT_EQ(store.allocated_blocks(), 2u);
  const util::Payload got = store.Read(0, 6);
  util::Bytes expect(6 * kBs, 0);
  std::copy(data.begin(), data.begin() + kBs, expect.begin());
  std::copy(data.begin() + 3 * kBs, data.end(), expect.begin() + 3 * kBs);
  EXPECT_EQ(got, expect);
  store.Clear();
  EXPECT_EQ(store.allocated_blocks(), 0u);
  EXPECT_EQ(store.Read(0, 1), util::Bytes(kBs, 0));
}

TEST(BlockStore, PartialOverwriteOfADeferredExtentKeepsBothSides) {
  constexpr std::uint32_t kBs = 512;
  BlockStore store(kBs);
  util::Bytes a(8 * kBs), b(8 * kBs), patch(2 * kBs);
  util::FillPattern(a, 1);
  util::FillPattern(b, 2);
  util::FillPattern(patch, 3);
  const util::Payload terms[] = {util::Payload::Copy(a),
                                 util::Payload::Copy(b)};
  store.Write(0, util::Payload::Xor(terms));  // [0, 8), not yet computed
  store.Write(3, util::Payload::Copy(patch));  // [3, 5) cuts it in two

  util::Bytes expect = a;
  util::XorInto(expect, b);
  std::copy(patch.begin(), patch.end(), expect.begin() + 3 * kBs);
  EXPECT_EQ(store.Read(5, 3),
            std::span<const std::uint8_t>(expect).subspan(5 * kBs, 3 * kBs));
  EXPECT_EQ(store.Read(0, 3),
            std::span<const std::uint8_t>(expect).subspan(0, 3 * kBs));
  EXPECT_EQ(store.Read(0, 8), expect);
}

TEST(DiskFarm, CapacityAndIdentity) {
  sim::Engine engine;
  DiskProfile p;
  DiskFarm farm(engine, p, 8, "shelf0-");
  EXPECT_EQ(farm.size(), 8u);
  EXPECT_EQ(farm.TotalCapacityBytes(), 8 * p.capacity_bytes());
  EXPECT_EQ(farm.at(3).name(), "shelf0-3");
}

}  // namespace
}  // namespace nlss::disk
