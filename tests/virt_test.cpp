#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "disk/disk.h"
#include "raid/group.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "virt/chargeback.h"
#include "virt/pool.h"
#include "virt/volume.h"

namespace nlss::virt {
namespace {

class VirtTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kExtentBlocks = 64;  // 256 KiB extents

  void SetUp() override {
    disk::DiskProfile profile;
    profile.capacity_blocks = 8192;  // 32 MiB per disk
    for (int g = 0; g < 2; ++g) {
      farms_.push_back(std::make_unique<disk::DiskFarm>(engine_, profile, 4,
                                                        "g" + std::to_string(g)));
      std::vector<disk::Disk*> disks;
      for (std::size_t i = 0; i < farms_[g]->size(); ++i) {
        disks.push_back(&farms_[g]->at(i));
      }
      raid::RaidGroup::Config config;
      config.level = raid::RaidLevel::kRaid5;
      config.unit_blocks = 8;
      groups_.push_back(std::make_unique<raid::RaidGroup>(
          engine_, std::move(disks), config));
    }
    pool_ = std::make_unique<StoragePool>(
        std::vector<raid::RaidGroup*>{groups_[0].get(), groups_[1].get()},
        kExtentBlocks);
  }

  std::unique_ptr<DemandMappedVolume> MakeVolume(std::uint64_t blocks,
                                                 const std::string& tenant = "t") {
    return std::make_unique<DemandMappedVolume>(engine_, *pool_, blocks,
                                                tenant, next_id_++);
  }

  bool Write(DemandMappedVolume& v, std::uint64_t block,
             const util::Bytes& data) {
    bool ok = false, fired = false;
    v.WriteBlocks(block, util::Payload::Copy(data), [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(DemandMappedVolume& v, std::uint64_t block,
                                    std::uint32_t count) {
    bool ok = false;
    util::Bytes out;
    v.ReadBlocks(block, count, [&](bool r, util::Payload d) {
      ok = r;
      out = d.ToBytes();
    });
    engine_.Run();
    return {ok, std::move(out)};
  }

  util::Bytes Pattern(std::uint32_t blocks, std::uint64_t seed) {
    util::Bytes b(static_cast<std::size_t>(blocks) * 4096);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  std::vector<std::unique_ptr<disk::DiskFarm>> farms_;
  std::vector<std::unique_ptr<raid::RaidGroup>> groups_;
  std::unique_ptr<StoragePool> pool_;
  std::uint64_t next_id_ = 1;
};

TEST_F(VirtTest, PoolAllocateFreeCycle) {
  const auto total = pool_->TotalExtents();
  EXPECT_GT(total, 0u);
  auto e = pool_->Allocate();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(pool_->FreeExtents(), total - 1);
  pool_->Free(*e);
  EXPECT_EQ(pool_->FreeExtents(), total);
}

TEST_F(VirtTest, PoolExhaustion) {
  std::vector<PhysExtent> held;
  while (auto e = pool_->Allocate()) held.push_back(*e);
  EXPECT_EQ(held.size(), pool_->TotalExtents());
  EXPECT_FALSE(pool_->Allocate().has_value());
  for (const auto& e : held) pool_->Free(e);
}

TEST_F(VirtTest, PoolNeverDoubleAllocates) {
  // Property: random alloc/free sequences never hand out an extent twice.
  util::Rng rng(123);
  std::set<std::pair<std::uint32_t, std::uint64_t>> held;
  std::vector<PhysExtent> held_list;
  for (int op = 0; op < 5000; ++op) {
    if (held_list.empty() || rng.Chance(0.55)) {
      const auto e = pool_->Allocate();
      if (!e) continue;
      ASSERT_TRUE(held.insert({e->group, e->extent}).second)
          << "double allocation of group " << e->group << " extent "
          << e->extent;
      held_list.push_back(*e);
    } else {
      const std::size_t i = rng.Below(held_list.size());
      pool_->Free(held_list[i]);
      held.erase({held_list[i].group, held_list[i].extent});
      held_list[i] = held_list.back();
      held_list.pop_back();
    }
    ASSERT_EQ(pool_->AllocatedExtents(), held.size());
  }
}

TEST_F(VirtTest, FreshAllocationsInterleaveGroups) {
  // Consecutive allocations must rotate across RAID groups so sequential
  // volume traffic stripes over every group's disks.
  const auto a = pool_->Allocate();
  const auto b = pool_->Allocate();
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->group, b->group);
}

TEST_F(VirtTest, UnwrittenVolumeReadsZeroWithoutAllocating) {
  auto v = MakeVolume(10000);
  auto [ok, data] = Read(*v, 1234, 10);
  ASSERT_TRUE(ok);
  for (auto b : data) EXPECT_EQ(b, 0);
  EXPECT_EQ(v->MappedExtents(), 0u);
  EXPECT_EQ(v->AllocatedBytes(), 0u);
}

TEST_F(VirtTest, WriteAllocatesOnDemandOnly) {
  auto v = MakeVolume(10000);
  ASSERT_TRUE(Write(*v, 0, Pattern(4, 1)));
  EXPECT_EQ(v->MappedExtents(), 1u);
  // Another write in the same extent: no new allocation.
  ASSERT_TRUE(Write(*v, 10, Pattern(4, 2)));
  EXPECT_EQ(v->MappedExtents(), 1u);
  // A write in a distant extent: one more.
  ASSERT_TRUE(Write(*v, 5000, Pattern(4, 3)));
  EXPECT_EQ(v->MappedExtents(), 2u);
}

TEST_F(VirtTest, RoundtripAcrossExtents) {
  auto v = MakeVolume(10000);
  const auto data = Pattern(3 * kExtentBlocks + 7, 42);
  ASSERT_TRUE(Write(*v, 50, data));
  auto [ok, got] = Read(*v, 50, 3 * kExtentBlocks + 7);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(VirtTest, FirstTouchDoesNotLeakStaleData) {
  // Write data into extent, trim it (freeing the extent), then allocate it
  // again via another volume: unwritten parts must read zero.
  auto v1 = MakeVolume(kExtentBlocks);
  ASSERT_TRUE(Write(*v1, 0, Pattern(kExtentBlocks, 9)));
  bool trimmed = false;
  v1->Trim(0, kExtentBlocks, [&](bool ok) { trimmed = ok; });
  engine_.Run();
  ASSERT_TRUE(trimmed);

  auto v2 = MakeVolume(kExtentBlocks);
  ASSERT_TRUE(Write(*v2, 0, Pattern(1, 10)));  // 1 block only
  auto [ok, got] = Read(*v2, 1, kExtentBlocks - 1);
  ASSERT_TRUE(ok);
  for (auto b : got) EXPECT_EQ(b, 0) << "stale data leaked from freed extent";
}

TEST_F(VirtTest, PartialFirstTouchCopiesOnlyThePatch) {
  // The first write to an extent patches it into shared zeros: the RAID
  // units, their deferred parity and the disk extents all share the write's
  // own buffer, so nothing past the host's copy is materialized.
  auto v = MakeVolume(kExtentBlocks);
  const auto patch = Pattern(3, 11);
  const std::uint64_t before = util::Payload::materialized_bytes();
  ASSERT_TRUE(Write(*v, 20, patch));
  EXPECT_EQ(util::Payload::materialized_bytes() - before, patch.size());
  auto [ok, got] = Read(*v, 0, kExtentBlocks);
  ASSERT_TRUE(ok);
  util::Bytes expect(static_cast<std::size_t>(kExtentBlocks) * 4096, 0);
  std::copy(patch.begin(), patch.end(), expect.begin() + 20 * 4096);
  EXPECT_EQ(got, expect);
}

TEST_F(VirtTest, TrimFreesFullExtentsAndZeroesPartials) {
  auto v = MakeVolume(4 * kExtentBlocks);
  ASSERT_TRUE(Write(*v, 0, Pattern(4 * kExtentBlocks, 5)));
  EXPECT_EQ(v->MappedExtents(), 4u);
  const auto free_before = pool_->FreeExtents();
  // Trim extent 1 entirely plus half of extent 2.
  bool ok = false;
  v->Trim(kExtentBlocks, kExtentBlocks + kExtentBlocks / 2,
          [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(v->MappedExtents(), 3u);
  EXPECT_EQ(pool_->FreeExtents(), free_before + 1);
  // Extent 1 reads zeros; extent 2's first half zeros, second half intact.
  auto [ok1, e1] = Read(*v, kExtentBlocks, kExtentBlocks);
  ASSERT_TRUE(ok1);
  for (auto b : e1) EXPECT_EQ(b, 0);
  auto [ok2, e2] = Read(*v, 0, 4 * kExtentBlocks);
  ASSERT_TRUE(ok2);
  const auto full = Pattern(4 * kExtentBlocks, 5);
  // Second half of extent 2 must still match.
  const std::size_t tail_start =
      (2 * kExtentBlocks + kExtentBlocks / 2) * 4096ull;
  EXPECT_TRUE(std::equal(e2.begin() + tail_start, e2.end(),
                         full.begin() + tail_start));
}

TEST_F(VirtTest, OutOfSpaceFailsWrite) {
  // One volume eats the whole pool; the next write fails.
  auto hog = MakeVolume(pool_->TotalExtents() * kExtentBlocks);
  ASSERT_TRUE(hog->Preallocate());
  auto v = MakeVolume(1000);
  EXPECT_FALSE(Write(*v, 0, Pattern(1, 1)));
}

TEST_F(VirtTest, PreallocateMapsEverything) {
  auto v = MakeVolume(10 * kExtentBlocks);
  ASSERT_TRUE(v->Preallocate());
  EXPECT_EQ(v->MappedExtents(), 10u);
  EXPECT_EQ(v->AllocatedBytes(), 10ull * kExtentBlocks * 4096);
}

TEST_F(VirtTest, ThinBeatsFatProvisioning) {
  // The E5 story in miniature: 8 thin volumes at 10% fill fit where fat
  // provisioning would exhaust the pool.
  const std::uint64_t volume_blocks = pool_->TotalExtents() * kExtentBlocks / 4;
  std::vector<std::unique_ptr<DemandMappedVolume>> thin;
  for (int i = 0; i < 8; ++i) {
    thin.push_back(MakeVolume(volume_blocks, "tenant" + std::to_string(i)));
    // Fill 10%.
    ASSERT_TRUE(Write(*thin.back(), 0,
                      Pattern(static_cast<std::uint32_t>(volume_blocks / 10),
                              i)));
  }
  // 8 thin volumes of total virtual size 2x the pool fit comfortably.
  EXPECT_LT(pool_->AllocatedExtents(), pool_->TotalExtents() / 2);
}

TEST_F(VirtTest, ResizeIsFree) {
  auto v = MakeVolume(100);
  ASSERT_TRUE(Write(*v, 0, Pattern(1, 1)));
  const auto allocated = v->AllocatedBytes();
  v->Resize(1'000'000);
  EXPECT_EQ(v->AllocatedBytes(), allocated);
  ASSERT_TRUE(Write(*v, 999'000, Pattern(1, 2)));
  auto [ok, got] = Read(*v, 999'000, 1);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(util::CheckPattern(got, 2));
}

TEST_F(VirtTest, SnapshotPreservesPointInTime) {
  auto v = MakeVolume(4 * kExtentBlocks);
  const auto original = Pattern(2 * kExtentBlocks, 11);
  ASSERT_TRUE(Write(*v, 0, original));
  const SnapshotId snap = v->CreateSnapshot();

  const auto updated = Pattern(kExtentBlocks, 12);
  ASSERT_TRUE(Write(*v, 0, updated));

  // Volume sees new data; snapshot sees old.
  auto [ok_live, live] = Read(*v, 0, kExtentBlocks);
  ASSERT_TRUE(ok_live);
  EXPECT_TRUE(std::equal(live.begin(), live.end(), updated.begin()));

  bool ok_snap = false;
  util::Bytes snap_data;
  v->ReadSnapshotBlocks(snap, 0, 2 * kExtentBlocks,
                        [&](bool r, util::Payload d) {
                          ok_snap = r;
                          snap_data = d.ToBytes();
                        });
  engine_.Run();
  ASSERT_TRUE(ok_snap);
  EXPECT_EQ(snap_data, original);
}

TEST_F(VirtTest, SnapshotSharesUntouchedExtents) {
  auto v = MakeVolume(8 * kExtentBlocks);
  ASSERT_TRUE(Write(*v, 0, Pattern(8 * kExtentBlocks, 13)));
  const auto allocated_before = pool_->AllocatedExtents();
  const SnapshotId snap = v->CreateSnapshot();
  // Snapshot itself costs nothing.
  EXPECT_EQ(pool_->AllocatedExtents(), allocated_before);
  // Touch one extent: exactly one COW copy.
  ASSERT_TRUE(Write(*v, 0, Pattern(1, 14)));
  EXPECT_EQ(pool_->AllocatedExtents(), allocated_before + 1);
  EXPECT_EQ(v->cow_copies(), 1u);
  v->DeleteSnapshot(snap);
  // Old extent of the COW'd pair is freed; shared ones return to single-ref.
  EXPECT_EQ(pool_->AllocatedExtents(), allocated_before);
}

TEST_F(VirtTest, DeleteSnapshotReleasesExtents) {
  auto v = MakeVolume(4 * kExtentBlocks);
  ASSERT_TRUE(Write(*v, 0, Pattern(4 * kExtentBlocks, 15)));
  const SnapshotId snap = v->CreateSnapshot();
  // Rewrite everything: 4 COW copies, doubling allocation.
  ASSERT_TRUE(Write(*v, 0, Pattern(4 * kExtentBlocks, 16)));
  const auto with_snap = pool_->AllocatedExtents();
  v->DeleteSnapshot(snap);
  EXPECT_EQ(pool_->AllocatedExtents(), with_snap - 4);
}

TEST_F(VirtTest, MultipleSnapshotsIndependent) {
  auto v = MakeVolume(kExtentBlocks);
  ASSERT_TRUE(Write(*v, 0, Pattern(kExtentBlocks, 20)));
  const SnapshotId s1 = v->CreateSnapshot();
  ASSERT_TRUE(Write(*v, 0, Pattern(kExtentBlocks, 21)));
  const SnapshotId s2 = v->CreateSnapshot();
  ASSERT_TRUE(Write(*v, 0, Pattern(kExtentBlocks, 22)));

  auto read_snap = [&](SnapshotId id) {
    util::Bytes out;
    v->ReadSnapshotBlocks(id, 0, kExtentBlocks,
                          [&](bool, util::Payload d) { out = d.ToBytes(); });
    engine_.Run();
    return out;
  };
  EXPECT_TRUE(util::CheckPattern(read_snap(s1), 20));
  EXPECT_TRUE(util::CheckPattern(read_snap(s2), 21));
  auto [ok, live] = Read(*v, 0, kExtentBlocks);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(util::CheckPattern(live, 22));
}

TEST_F(VirtTest, RandomizedVolumeMatchesModel) {
  auto v = MakeVolume(6 * kExtentBlocks);
  util::Rng rng(99);
  util::Bytes model(6 * kExtentBlocks * 4096ull, 0);
  for (int op = 0; op < 80; ++op) {
    const std::uint64_t blk = rng.Below(6 * kExtentBlocks - 1);
    const std::uint32_t n = static_cast<std::uint32_t>(
        rng.Range(1, std::min<std::uint64_t>(6 * kExtentBlocks - blk, 96)));
    if (rng.Chance(0.45)) {
      const auto data = Pattern(n, rng.Next());
      ASSERT_TRUE(Write(*v, blk, data));
      std::copy(data.begin(), data.end(), model.begin() + blk * 4096);
    } else if (rng.Chance(0.15)) {
      bool ok = false;
      v->Trim(blk, n, [&](bool r) { ok = r; });
      engine_.Run();
      ASSERT_TRUE(ok);
      std::fill(model.begin() + blk * 4096, model.begin() + (blk + n) * 4096,
                0);
    } else {
      auto [ok, got] = Read(*v, blk, n);
      ASSERT_TRUE(ok);
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + blk * 4096))
          << "mismatch at op " << op;
    }
  }
}

TEST_F(VirtTest, ChargeBackBillsActualUsage) {
  ChargeBack cb(engine_);
  auto thin = MakeVolume(1000 * kExtentBlocks, "thin-tenant");
  auto fat = MakeVolume(100 * kExtentBlocks, "fat-tenant");
  ASSERT_TRUE(fat->Preallocate());
  cb.Track(thin.get());
  cb.Track(fat.get());
  cb.Sample();
  ASSERT_TRUE(Write(*thin, 0, Pattern(kExtentBlocks, 1)));  // 1 extent
  engine_.RunFor(10 * util::kNsPerSec);
  cb.Sample();
  const double thin_bill = cb.ByteSeconds("thin-tenant");
  const double fat_bill = cb.ByteSeconds("fat-tenant");
  EXPECT_GT(fat_bill, thin_bill * 50)
      << "fat provisioning pays for its slack";
  const auto report = cb.Report();
  EXPECT_EQ(report.size(), 2u);
}

}  // namespace
}  // namespace nlss::virt
