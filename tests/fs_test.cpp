#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fs/filesystem.h"
#include "meta/service.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    fs_ = std::make_unique<FileSystem>(*system_);
  }

  Status Write(const std::string& path, std::uint64_t off,
               const util::Bytes& data) {
    Status st = Status::kIoError;
    fs_->Write(path, off, util::Payload::Copy(data), [&](Status s) { st = s; });
    engine_.Run();
    return st;
  }

  std::pair<Status, util::Bytes> Read(const std::string& path,
                                      std::uint64_t off, std::uint64_t len) {
    Status st = Status::kIoError;
    util::Bytes out;
    fs_->Read(path, off, len, [&](Status s, util::Payload d) {
      st = s;
      out = d.ToBytes();
    });
    engine_.Run();
    return {st, std::move(out)};
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<FileSystem> fs_;
};

TEST_F(FsTest, CreateWriteReadRoundtrip) {
  ASSERT_EQ(fs_->Create("/data.bin"), Status::kOk);
  const auto data = Pattern(3 * util::MiB + 12345, 1);
  ASSERT_EQ(Write("/data.bin", 0, data), Status::kOk);
  auto [st, got] = Read("/data.bin", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);
  EXPECT_EQ(fs_->Stat("/data.bin")->size, data.size());
}

TEST_F(FsTest, DirectoryTreeOperations) {
  EXPECT_EQ(fs_->Mkdir("/projects"), Status::kOk);
  EXPECT_EQ(fs_->Mkdir("/projects/fusion"), Status::kOk);
  EXPECT_EQ(fs_->Create("/projects/fusion/run1.dat"), Status::kOk);
  EXPECT_EQ(fs_->Create("/projects/fusion/run2.dat"), Status::kOk);
  EXPECT_TRUE(fs_->Exists("/projects/fusion/run1.dat"));
  const auto names = fs_->List("/projects/fusion");
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(fs_->Mkdir("/projects"), Status::kExists);
  EXPECT_EQ(fs_->Create("/missing/x"), Status::kNotFound);
  EXPECT_EQ(fs_->Rmdir("/projects/fusion"), Status::kNotEmpty);
  EXPECT_EQ(fs_->Unlink("/projects/fusion/run1.dat"), Status::kOk);
  EXPECT_EQ(fs_->Unlink("/projects/fusion/run2.dat"), Status::kOk);
  EXPECT_EQ(fs_->Rmdir("/projects/fusion"), Status::kOk);
  EXPECT_FALSE(fs_->Exists("/projects/fusion"));
}

TEST_F(FsTest, RenameMovesFiles) {
  ASSERT_EQ(fs_->Mkdir("/a"), Status::kOk);
  ASSERT_EQ(fs_->Mkdir("/b"), Status::kOk);
  ASSERT_EQ(fs_->Create("/a/f"), Status::kOk);
  const auto data = Pattern(100000, 2);
  ASSERT_EQ(Write("/a/f", 0, data), Status::kOk);
  ASSERT_EQ(fs_->Rename("/a/f", "/b/g"), Status::kOk);
  EXPECT_FALSE(fs_->Exists("/a/f"));
  auto [st, got] = Read("/b/g", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(FsTest, SparseWriteAndShortRead) {
  ASSERT_EQ(fs_->Create("/sparse"), Status::kOk);
  const auto data = Pattern(1000, 3);
  ASSERT_EQ(Write("/sparse", 5 * util::MiB, data), Status::kOk);
  EXPECT_EQ(fs_->Stat("/sparse")->size, 5 * util::MiB + 1000);
  // A hole reads back as zeros.
  auto [st, hole] = Read("/sparse", 1 * util::MiB, 1000);
  ASSERT_EQ(st, Status::kOk);
  for (auto b : hole) EXPECT_EQ(b, 0);
  // Reading past EOF truncates.
  auto [st2, tail] = Read("/sparse", 5 * util::MiB, 100000);
  ASSERT_EQ(st2, Status::kOk);
  EXPECT_EQ(tail.size(), 1000u);
  EXPECT_EQ(tail, data);
}

// An empty write past EOF completes (once, with kOk) and changes nothing:
// no size growth, no chunks allocated for the hole it names.
TEST_F(FsTest, ZeroByteWriteCompletesAndChangesNothing) {
  ASSERT_EQ(fs_->Create("/empty"), Status::kOk);
  const auto chunks_before = fs_->AllocatedChunks();
  int calls = 0;
  Status st = Status::kIoError;
  fs_->Write("/empty", 8 * util::MiB, util::Payload{}, [&](Status s) {
    ++calls;
    st = s;
  });
  engine_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(fs_->Stat("/empty")->size, 0u);
  EXPECT_EQ(fs_->AllocatedChunks(), chunks_before);
}

TEST_F(FsTest, OverwriteInMiddle) {
  ASSERT_EQ(fs_->Create("/f"), Status::kOk);
  const auto base = Pattern(2 * util::MiB, 4);
  ASSERT_EQ(Write("/f", 0, base), Status::kOk);
  const auto patch = Pattern(333, 5);
  ASSERT_EQ(Write("/f", 1 * util::MiB - 100, patch), Status::kOk);
  auto [st, got] = Read("/f", 0, base.size());
  ASSERT_EQ(st, Status::kOk);
  util::Bytes expect = base;
  std::copy(patch.begin(), patch.end(),
            expect.begin() + util::MiB - 100);
  EXPECT_EQ(got, expect);
}

TEST_F(FsTest, TruncateShrinksAndFreesChunks) {
  ASSERT_EQ(fs_->Create("/big"), Status::kOk);
  ASSERT_EQ(Write("/big", 0, Pattern(4 * util::MiB, 6)), Status::kOk);
  const auto chunks_before = fs_->AllocatedChunks();
  Status st = Status::kIoError;
  fs_->Truncate("/big", 1 * util::MiB, [&](Status s) { st = s; });
  engine_.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(fs_->Stat("/big")->size, 1 * util::MiB);
  EXPECT_LT(fs_->AllocatedChunks(), chunks_before);
}

TEST_F(FsTest, UnlinkReleasesPhysicalSpace) {
  ASSERT_EQ(fs_->Create("/tmp1"), Status::kOk);
  ASSERT_EQ(Write("/tmp1", 0, Pattern(8 * util::MiB, 7)), Status::kOk);
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);
  const auto allocated_before = system_->pool().AllocatedExtents();
  ASSERT_EQ(fs_->Unlink("/tmp1"), Status::kOk);
  engine_.Run();  // let the trims run
  EXPECT_LT(system_->pool().AllocatedExtents(), allocated_before);
}

TEST_F(FsTest, PerFilePolicies) {
  FilePolicy critical;
  critical.cache_replication = 3;
  critical.geo_replicate = true;
  critical.geo_sync = true;
  ASSERT_EQ(fs_->Create("/critical.db", critical), Status::kOk);
  FilePolicy scratch;
  scratch.cache_replication = 1;
  ASSERT_EQ(fs_->Create("/scratch.tmp", scratch), Status::kOk);

  EXPECT_EQ(fs_->Stat("/critical.db")->policy.cache_replication, 3u);
  EXPECT_TRUE(fs_->Stat("/critical.db")->policy.geo_sync);
  EXPECT_EQ(fs_->Stat("/scratch.tmp")->policy.cache_replication, 1u);

  // Policies are dynamic (paper: "dynamically set on a file by file basis").
  FilePolicy upgraded = scratch;
  upgraded.cache_replication = 2;
  ASSERT_EQ(fs_->SetPolicy("/scratch.tmp", upgraded), Status::kOk);
  EXPECT_EQ(fs_->Stat("/scratch.tmp")->policy.cache_replication, 2u);
}

TEST_F(FsTest, MetadataSerializationRoundtrip) {
  ASSERT_EQ(fs_->Mkdir("/d"), Status::kOk);
  FilePolicy p;
  p.cache_replication = 3;
  p.geo_replicate = true;
  p.geo_sites = 3;
  p.raid_override = raid::RaidLevel::kRaid6;
  ASSERT_EQ(fs_->Create("/d/f", p), Status::kOk);
  const auto data = Pattern(100000, 8);
  ASSERT_EQ(Write("/d/f", 0, data), Status::kOk);

  const util::Bytes blob = fs_->SerializeMetadata();
  // Wipe the namespace by loading into a fresh FS bound to the same system
  // volume contents (same volume id ordering).
  ASSERT_EQ(fs_->LoadMetadata(blob), Status::kOk);
  ASSERT_TRUE(fs_->Exists("/d/f"));
  const Inode* inode = fs_->Stat("/d/f");
  EXPECT_EQ(inode->size, data.size());
  EXPECT_EQ(inode->policy.cache_replication, 3u);
  EXPECT_TRUE(inode->policy.geo_replicate);
  ASSERT_TRUE(inode->policy.raid_override.has_value());
  EXPECT_EQ(*inode->policy.raid_override, raid::RaidLevel::kRaid6);
  auto [st, got] = Read("/d/f", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(FsTest, LoadRejectsGarbage) {
  const util::Bytes junk = Pattern(64, 1);
  EXPECT_EQ(fs_->LoadMetadata(junk), Status::kInvalidArgument);
  // FS still usable.
  EXPECT_EQ(fs_->Create("/ok"), Status::kOk);
}

// A blob whose next_ino does not lie above every inode it holds would hand
// a later create a live inode number and overwrite that inode's record.
TEST_F(FsTest, LoadRefusesInodeNumbersAtOrAboveNextIno) {
  ASSERT_EQ(fs_->Mkdir("/d"), Status::kOk);
  ASSERT_EQ(fs_->Create("/d/a"), Status::kOk);
  const auto data = Pattern(5000, 3);
  ASSERT_EQ(Write("/d/a", 0, data), Status::kOk);
  const InodeNum a = fs_->Stat("/d/a")->ino;
  util::Bytes blob = fs_->SerializeMetadata();
  const auto set_next_ino = [&blob](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {  // bytes 4..11, little-endian
      blob[4 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  for (const InodeNum bad : {a, a - 1}) {
    set_next_ino(bad);
    EXPECT_EQ(fs_->LoadMetadata(blob), Status::kInvalidArgument) << bad;
  }
  set_next_ino(a + 1);
  ASSERT_EQ(fs_->LoadMetadata(blob), Status::kOk);
  ASSERT_EQ(fs_->Create("/d/c"), Status::kOk);
  EXPECT_NE(fs_->Stat("/d/c")->ino, a);
  EXPECT_EQ(fs_->Stat("/d/a")->size, data.size());
  auto [st, got] = Read("/d/a", 0, data.size());
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(got, data);

  // Relinking /d/e/g to /d or to the root gives a directory two parents;
  // loaded, the rename below would walk that cycle forever.
  ASSERT_EQ(fs_->Mkdir("/d/e"), Status::kOk);
  ASSERT_EQ(fs_->Mkdir("/d/e/g"), Status::kOk);
  const InodeNum g = fs_->Stat("/d/e/g")->ino;
  util::ByteWriter link;
  link.Str("g");
  link.U64(g);
  const util::Bytes good = fs_->SerializeMetadata();
  const auto at = std::search(good.begin(), good.end(), link.data().begin(),
                              link.data().end());
  ASSERT_NE(at, good.end());
  for (const InodeNum target : {fs_->Stat("/d")->ino, kRootIno}) {
    util::Bytes bad = good;
    const auto child = bad.begin() + (at - good.begin()) + 5;  // after "g"
    for (int i = 0; i < 8; ++i) {
      child[i] = static_cast<std::uint8_t>(target >> (8 * i));
    }
    EXPECT_EQ(fs_->LoadMetadata(bad), Status::kInvalidArgument) << target;
  }
  ASSERT_EQ(fs_->Mkdir("/z"), Status::kOk);
  EXPECT_EQ(fs_->Rename("/z", "/d/z"), Status::kOk);
  EXPECT_EQ(fs_->Stat("/d/e/g")->type, FileType::kDirectory);
}

// A checkpoint written record by record: default policies, no chunks.
struct Record {
  InodeNum ino;
  FileType type;
  std::vector<std::pair<std::string, InodeNum>> links;
};

util::Bytes Checkpoint(InodeNum next_ino, const std::vector<Record>& records) {
  util::ByteWriter w;
  w.U32(0x4E4C4653);  // "NLFS"
  w.U64(next_ino);
  w.U64(0);  // next chunk
  w.U64(records.size());
  for (const Record& rec : records) {
    w.U64(rec.ino);
    w.U8(static_cast<std::uint8_t>(rec.type));
    w.U64(0);  // size
    const FilePolicy p;
    w.U8(p.cache_priority);
    w.U32(p.cache_replication);
    w.U8(p.geo_replicate ? 1 : 0);
    w.U8(p.geo_sync ? 1 : 0);
    w.U32(p.geo_sites);
    w.U64(p.geo_min_distance_km);
    w.U8(0);  // no RAID override
    w.U32(p.qos_tenant);
    w.U64(0);  // chunks
    w.U64(rec.links.size());
    for (const auto& [name, child] : rec.links) {
      w.Str(name);
      w.U64(child);
    }
  }
  w.U64(0);  // free chunks
  return w.Take();
}

TEST_F(FsTest, LoadRefusesLinksThatDoNotFormOneTree) {
  constexpr FileType kDir = FileType::kDirectory;
  constexpr FileType kFile = FileType::kFile;
  ASSERT_EQ(fs_->Mkdir("/d"), Status::kOk);
  ASSERT_EQ(fs_->Create("/d/f"), Status::kOk);
  const util::Bytes good =
      Checkpoint(4, {{kRootIno, kDir, {{"d", 2}}}, {2, kDir, {{"f", 3}}},
                     {3, kFile, {}}});
  ASSERT_EQ(fs_->SerializeMetadata(), good) << "the writer above is stale";

  const struct {
    const char* name;
    util::Bytes blob;
  } cases[] = {
      {"a link to an inode missing from the table",
       Checkpoint(4, {{kRootIno, kDir, {{"d", 2}}}, {2, kDir, {{"f", 3}}}})},
      {"one name linked twice in one directory",
       Checkpoint(4, {{kRootIno, kDir, {{"f", 2}, {"f", 3}}},
                      {2, kFile, {}},
                      {3, kFile, {}}})},
      {"entries under a file",
       Checkpoint(4, {{kRootIno, kDir, {{"f", 2}}},
                      {2, kFile, {{"g", 3}}},
                      {3, kFile, {}}})},
      {"two directories that only link each other",
       Checkpoint(4, {{kRootIno, kDir, {}},
                      {2, kDir, {{"b", 3}}},
                      {3, kDir, {{"a", 2}}}})},
      {"one inode recorded twice",
       Checkpoint(3, {{kRootIno, kDir, {{"f", 2}}},
                      {2, kFile, {}},
                      {2, kFile, {}}})},
      {"a root that is a file", Checkpoint(2, {{kRootIno, kFile, {}}})},
      {"an inode of no known type",
       Checkpoint(3, {{kRootIno, kDir, {{"f", 2}}},
                      {2, static_cast<FileType>(2), {}}})},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(fs_->LoadMetadata(c.blob), Status::kInvalidArgument) << c.name;
  }
  EXPECT_EQ(fs_->SerializeMetadata(), good) << "a refused load changed nothing";
  EXPECT_EQ(fs_->TotalFiles(), 1u);
}

// The checkpoint lists each directory's names in byte order, and loading
// one and writing it again gives back the same bytes.
TEST_F(FsTest, CheckpointRoundTripsByteForByte) {
  ASSERT_EQ(fs_->Mkdir("/d"), Status::kOk);
  std::vector<std::string> names = {"Zeta", "_x", "a-b", "a.b", "a0"};
  for (int i = 0; i < 40; ++i) {
    names.push_back("f" + std::to_string((i * 17) % 40));  // "f10" < "f2"
  }
  for (const std::string& n : names) {
    ASSERT_EQ(fs_->Create("/d/" + n), Status::kOk) << n;
  }
  ASSERT_EQ(Write("/d/f3", 0, Pattern(3 * util::MiB, 5)), Status::kOk);
  ASSERT_EQ(Write("/d/a0", 0, Pattern(util::MiB, 6)), Status::kOk);
  ASSERT_EQ(fs_->Unlink("/d/f3"), Status::kOk);
  ASSERT_EQ(Write("/d/f7", 100, Pattern(5000, 7)), Status::kOk);
  names.erase(std::find(names.begin(), names.end(), "f3"));
  std::sort(names.begin(), names.end());

  const util::Bytes blob = fs_->SerializeMetadata();
  ASSERT_EQ(fs_->LoadMetadata(blob), Status::kOk);
  EXPECT_EQ(fs_->SerializeMetadata(), blob);
  EXPECT_EQ(fs_->List("/d"), names);
  std::ptrdiff_t last = -1;
  for (const std::string& n : names) {
    util::ByteWriter link;
    link.Str(n);
    link.U64(fs_->Stat("/d/" + n)->ino);
    const auto at = std::search(blob.begin(), blob.end(), link.data().begin(),
                                link.data().end());
    ASSERT_NE(at, blob.end()) << n;
    EXPECT_GT(at - blob.begin(), last) << n << " is out of byte order";
    last = at - blob.begin();
  }
}

TEST_F(FsTest, ForEachFileWalksTree) {
  ASSERT_EQ(fs_->Mkdir("/x"), Status::kOk);
  ASSERT_EQ(fs_->Mkdir("/x/y"), Status::kOk);
  ASSERT_EQ(fs_->Create("/x/a"), Status::kOk);
  ASSERT_EQ(fs_->Create("/x/y/b"), Status::kOk);
  ASSERT_EQ(fs_->Create("/c"), Status::kOk);
  std::vector<std::string> paths;
  fs_->ForEachFile([&](const std::string& path, const Inode&) {
    paths.push_back(path);
  });
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"/c", "/x/a", "/x/y/b"}));
}

TEST_F(FsTest, QuotaBlocksGrowthButAllowsReuse) {
  FileSystem::Config config;
  config.quota_bytes = 4 * util::MiB;  // 4 chunks
  FileSystem fs(*system_, config);
  ASSERT_EQ(fs.Create("/a"), Status::kOk);
  Status st = Status::kIoError;
  fs.Write("/a", 0, util::Payload::Copy(Pattern(3 * util::MiB, 1)),
           [&](Status s) { st = s; });
  engine_.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(fs.UsedBytes(), 3 * util::MiB);
  // A write that would exceed the quota fails cleanly.
  fs.Write("/a", 3 * util::MiB, util::Payload::Copy(Pattern(2 * util::MiB, 2)),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kNoSpace);
  // Overwrites within allocated space still work.
  fs.Write("/a", 0, util::Payload::Copy(Pattern(util::MiB, 3)),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
  // Deleting frees quota for others.
  ASSERT_EQ(fs.Unlink("/a"), Status::kOk);
  ASSERT_EQ(fs.Create("/b"), Status::kOk);
  fs.Write("/b", 0, util::Payload::Copy(Pattern(4 * util::MiB, 4)),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
  // Quota can be raised online.
  fs.SetQuota(8 * util::MiB);
  fs.Write("/b", 4 * util::MiB, util::Payload::Copy(Pattern(2 * util::MiB, 5)),
           [&](Status s) { st = s; });
  engine_.Run();
  EXPECT_EQ(st, Status::kOk);
}

TEST_F(FsTest, RandomizedFileContentsMatchModel) {
  ASSERT_EQ(fs_->Create("/rand"), Status::kOk);
  util::Rng rng(55);
  const std::uint64_t span = 4 * util::MiB;
  util::Bytes model(span, 0);
  std::uint64_t model_size = 0;
  for (int op = 0; op < 40; ++op) {
    const std::uint64_t off = rng.Below(span - 1);
    const std::uint64_t len =
        rng.Range(1, std::min<std::uint64_t>(span - off, 500000));
    if (rng.Chance(0.6)) {
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      ASSERT_EQ(Write("/rand", off, data), Status::kOk);
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
      model_size = std::max(model_size, off + len);
    } else {
      auto [st, got] = Read("/rand", off, len);
      ASSERT_EQ(st, Status::kOk);
      const std::uint64_t expect_len =
          off >= model_size ? 0 : std::min(len, model_size - off);
      ASSERT_EQ(got.size(), expect_len);
      EXPECT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "op " << op;
    }
  }
}

// --- One table of namespace rules ---------------------------------------------

// fs::FileSystem and the sharded MetaService apply one meta::Namespace, so
// every case answers the same status on both: fs synchronously, the service
// through its timed shard visits.
struct NsCase {
  const char* name;
  std::vector<const char*> dirs;   // made first, in order
  std::vector<const char*> files;  // then created
  enum class Op { kMkdir, kCreate, kUnlink, kRmdir, kRename } op;
  const char* path;
  const char* to;  // rename target
  meta::Status want;
  const char* still_there;  // must resolve afterwards, or null
};

const std::vector<NsCase>& NsCases() {
  using Op = NsCase::Op;
  using S = meta::Status;
  static const std::vector<NsCase> cases = {
      {"mkdir root", {}, {}, Op::kMkdir, "/", nullptr, S::kInvalidArgument,
       nullptr},
      {"create under a file", {}, {"/f"}, Op::kCreate, "/f/x", nullptr,
       S::kNotDirectory, "/f"},
      {"self rename", {}, {"/s"}, Op::kRename, "/s", "/s", S::kOk, "/s"},
      {"rename into own subtree", {"/a"}, {"/a/x"}, Op::kRename, "/a", "/a/b",
       S::kInvalidArgument, "/a/x"},
      {"rename below own subtree", {"/a", "/a/b"}, {"/a/x"}, Op::kRename, "/a",
       "/a/b/c", S::kInvalidArgument, "/a/x"},
      {"rename onto the root", {}, {}, Op::kRename, "/missing/x", "/",
       S::kInvalidArgument, nullptr},
      {"unlink a directory", {"/d"}, {}, Op::kUnlink, "/d", nullptr,
       S::kIsDirectory, "/d"},
      {"rmdir a file", {}, {"/g"}, Op::kRmdir, "/g", nullptr, S::kNotDirectory,
       "/g"},
      {"rmdir non-empty", {"/n"}, {"/n/f"}, Op::kRmdir, "/n", nullptr,
       S::kNotEmpty, "/n/f"},
      {"second create", {}, {"/c"}, Op::kCreate, "/c", nullptr, S::kExists,
       "/c"},
      {"unlink a missing name", {"/d"}, {}, Op::kUnlink, "/d/x", nullptr,
       S::kNotFound, "/d"},
  };
  return cases;
}

meta::Status OnFs(FileSystem& fs, const NsCase& c) {
  Status st = Status::kIoError;
  switch (c.op) {
    case NsCase::Op::kMkdir: st = fs.Mkdir(c.path); break;
    case NsCase::Op::kCreate: st = fs.Create(c.path); break;
    case NsCase::Op::kUnlink: st = fs.Unlink(c.path); break;
    case NsCase::Op::kRmdir: st = fs.Rmdir(c.path); break;
    case NsCase::Op::kRename: st = fs.Rename(c.path, c.to); break;
  }
  EXPECT_LE(static_cast<int>(st), static_cast<int>(Status::kInvalidArgument))
      << StatusName(st);
  return static_cast<meta::Status>(st);
}

meta::Status OnMeta(sim::Engine& engine, meta::MetaService& service,
                    const NsCase& c) {
  meta::Status st = meta::Status::kOk;
  bool done = false;
  auto cb = [&](meta::Status s) {
    st = s;
    done = true;
  };
  switch (c.op) {
    case NsCase::Op::kMkdir: service.Mkdir(c.path, cb); break;
    case NsCase::Op::kCreate:
      service.Create(c.path, [&](meta::Status s, meta::Ino) { cb(s); });
      break;
    case NsCase::Op::kUnlink: service.Unlink(c.path, cb); break;
    case NsCase::Op::kRmdir: service.Rmdir(c.path, cb); break;
    case NsCase::Op::kRename: service.Rename(c.path, c.to, cb); break;
  }
  engine.Run();
  EXPECT_TRUE(done);
  return st;
}

TEST_F(FsTest, NamespaceRulesMatchTheMetaService) {
  for (const NsCase& c : NsCases()) {
    SCOPED_TRACE(c.name);
    FileSystem fs(*system_);
    sim::Engine meta_engine;
    meta::MetaService service(meta_engine);
    for (const char* d : c.dirs) {
      ASSERT_EQ(fs.Mkdir(d), Status::kOk);
      ASSERT_EQ(service.BootstrapMkdir(d), meta::Status::kOk);
    }
    for (const char* f : c.files) {
      ASSERT_EQ(fs.Create(f), Status::kOk);
      ASSERT_EQ(service.BootstrapCreate(f), meta::Status::kOk);
    }
    EXPECT_EQ(OnFs(fs, c), c.want) << "fs";
    EXPECT_EQ(OnMeta(meta_engine, service, c), c.want) << "meta";
    if (c.still_there == nullptr) continue;
    EXPECT_TRUE(fs.Exists(c.still_there)) << "fs " << c.still_there;
    meta::Status resolved = meta::Status::kNotFound;
    service.Resolve(c.still_there,
                    [&](meta::Status s, meta::Dentry) { resolved = s; });
    meta_engine.Run();
    EXPECT_EQ(resolved, meta::Status::kOk) << "meta " << c.still_there;
  }
}

}  // namespace
}  // namespace nlss::fs
