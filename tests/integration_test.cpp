// Full-stack integration tests: every layer of the paper's architecture in
// one scenario — authenticated protocol access, per-file policies flowing
// through the blade FS into the coherent cache, encrypted volumes, geo
// replication, cascading failures, and the management plane observing it
// all.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/mirror_split.h"
#include "controller/highspeed.h"
#include "crypto/keystore.h"
#include "geo/geo.h"
#include "mgmt/admin_http.h"
#include "mgmt/manager.h"
#include "proto/block_target.h"
#include "proto/file_server.h"
#include "proto/http_server.h"
#include "security/encrypted_backing.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss {
namespace {

util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::FillPattern(b, seed);
  return b;
}

controller::SystemConfig SmallSite(const char* name) {
  controller::SystemConfig c;
  c.name = name;
  c.controllers = 3;
  c.raid_groups = 2;
  c.disk_profile.capacity_blocks = 16 * 1024;
  c.cache.replication = 2;
  return c;
}

// --- Scenario 1: the full single-site stack -------------------------------

TEST(Integration, AuthenticatedBlockAndFilePathsShareOnePool) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::StorageSystem system(engine, fabric, SmallSite("site"));
  crypto::KeyStore keys(std::string_view("master"));
  security::AuthService auth(engine, keys);
  security::LunMasking mask;
  security::CommandPolicy cmd_policy;
  security::AuditLog audit(engine);
  auth.AddUser("dba", "pw", {"reader", "writer"});
  auth.AddUser("web", "pw", {"reader"});

  // Block path: a database LUN via the iSCSI-like target.
  proto::BlockTarget target(system, auth, mask, cmd_policy, audit);
  const auto db_host = system.AttachHost("db-server");
  const auto db_lun = system.CreateVolume("db", 32 * util::MiB);
  mask.Allow("db-server", db_lun);
  const auto session = target.Login(db_host, "db-server", "dba", "pw");
  ASSERT_TRUE(session.has_value());
  const auto db_data = Pattern(1 * util::MiB, 1);
  proto::BlockStatus wst = proto::BlockStatus::kIoError;
  target.Write(*session, db_lun, 0, db_data,
               [&](proto::BlockStatus s) { wst = s; });
  engine.Run();
  ASSERT_EQ(wst, proto::BlockStatus::kOk);

  // File path: the blade FS + NFS-like server + HTTP export share the SAME
  // physical pool.
  fs::FileSystem fs(system);
  proto::FileServer nfs(fs, auth, audit);
  proto::HttpServer http(fs);
  const auto mount = nfs.Mount("dba", "pw");
  ASSERT_TRUE(mount.has_value());
  ASSERT_EQ(nfs.Mkdir(*mount, "/www"), fs::Status::kOk);
  ASSERT_EQ(nfs.Create(*mount, "/www/index.html"), fs::Status::kOk);
  const auto page = Pattern(300000, 2);
  fs::Status fst = fs::Status::kIoError;
  nfs.Write(*mount, "/www/index.html", 0, util::Payload::Copy(page),
            [&](fs::Status s) { fst = s; });
  engine.Run();
  ASSERT_EQ(fst, fs::Status::kOk);

  proto::HttpResponse resp;
  http.HandleRaw("GET /www/index.html HTTP/1.0\r\n\r\n",
                 [&](proto::HttpResponse r) { resp = std::move(r); });
  engine.Run();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, page);

  // Both tenants' allocations live in one pool, visible to management.
  mgmt::StatusReporter reporter(system);
  const std::string status = reporter.Report();
  EXPECT_NE(status.find("\"tenant\":\"db\""), std::string::npos);
  EXPECT_NE(status.find("\"tenant\":\"fs\""), std::string::npos);
  EXPECT_TRUE(audit.VerifyChain());

  // Block data survives a controller failure mid-life.
  system.FailController(0);
  system.RecoverCluster();
  proto::BlockStatus rst = proto::BlockStatus::kIoError;
  util::Bytes got;
  target.Read(*session, db_lun, 0, 256,
              [&](proto::BlockStatus s, util::Bytes d, std::uint32_t) {
                rst = s;
                got = std::move(d);
              });
  engine.Run();
  ASSERT_EQ(rst, proto::BlockStatus::kOk);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), db_data.begin()));
}

// --- Scenario 2: encrypted volume under the cache -------------------------

TEST(Integration, EncryptedVolumeEndToEnd) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::StorageSystem system(engine, fabric, SmallSite("enc"));
  crypto::KeyStore keys(std::string_view("site-master"));

  // Wrap a demand-mapped volume with the in-stream XTS layer and register
  // the encrypted view with the cache under a fresh volume id.
  const auto inner_id = system.CreateVolume("secret", 16 * util::MiB);
  auto& inner = system.volume(inner_id);
  security::EncryptedBacking enc(engine, inner,
                                 keys.DeriveVolumeKeys("secret", inner_id));
  const std::uint32_t enc_vol = 1000;
  system.cache().RegisterVolume(enc_vol, &enc);

  const auto data = Pattern(2 * util::MiB, 7);
  bool ok = false;
  system.cache().Write(0, enc_vol, 0, util::Payload::Copy(data),
                       [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.Run();
  ASSERT_TRUE(flushed);

  // Through the cache: plaintext.
  util::Bytes got;
  system.cache().Read(1, enc_vol, 0, 1 * util::MiB,
                      [&](bool r, util::Payload d) {
                        ok = r;
                        got = d.ToBytes();
                      });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));

  // Straight off the medium (bypassing the crypto layer): ciphertext.
  util::Bytes raw;
  inner.ReadBlocks(0, 256, [&](bool r, util::Payload d) {
    ok = r;
    raw = d.ToBytes();
  });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_FALSE(std::equal(raw.begin(), raw.end(), data.begin()))
      << "medium must hold ciphertext only";
  EXPECT_GT(enc.bytes_encrypted(), 0u);
}

// --- Scenario 3: three-site grid with cascading failures ------------------

TEST(Integration, GeoGridSurvivesDiskControllerAndSiteFailures) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster grid(engine, fabric);
  const auto west = grid.AddSite("west", SmallSite("west"), {0, 0});
  const auto central = grid.AddSite("central", SmallSite("central"),
                                    {1500, 0});
  const auto east = grid.AddSite("east", SmallSite("east"), {4000, 0});
  grid.ConnectSites(west, central, net::LinkProfile::Wan(8 * util::kNsPerMs, 1.0));
  grid.ConnectSites(central, east, net::LinkProfile::Wan(12 * util::kNsPerMs, 1.0));
  grid.ConnectSites(west, east, net::LinkProfile::Wan(20 * util::kNsPerMs, 1.0));

  fs::FilePolicy everywhere;
  everywhere.geo_replicate = true;
  everywhere.geo_sync = true;
  everywhere.geo_sites = 3;
  ASSERT_EQ(grid.Create("/vital", west, everywhere), fs::Status::kOk);
  const auto data = Pattern(1 * util::MiB, 9);
  fs::Status st = fs::Status::kIoError;
  grid.Write(west, "/vital", 0, util::Payload::Copy(data),
             [&](fs::Status s) { st = s; });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);

  // Failure cascade: a disk dies at West, then a controller, then the
  // whole site; each step keeps /vital readable somewhere.
  grid.site(west).system().group(0).disk(1).Fail();
  util::Bytes got;
  grid.Read(west, "/vital", 0, data.size(), [&](fs::Status s, util::Payload d) {
    st = s;
    got = d.ToBytes();
  });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data) << "RAID absorbs the disk failure";

  grid.site(west).system().FailController(1);
  grid.site(west).system().RecoverCluster();
  grid.Read(west, "/vital", 0, data.size(), [&](fs::Status s, util::Payload d) {
    st = s;
    got = d.ToBytes();
  });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data) << "cluster absorbs the controller failure";

  grid.FailSite(west);
  grid.Read(east, "/vital", 0, data.size(), [&](fs::Status s, util::Payload d) {
    st = s;
    got = d.ToBytes();
  });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data) << "geo replication absorbs the site failure";
  EXPECT_NE(grid.HomeOf("/vital"), west);

  // Writes continue at the new home and reach the third site.
  const auto update = Pattern(64 * util::KiB, 10);
  grid.Write(east, "/vital", 0, util::Payload::Copy(update),
             [&](fs::Status s) { st = s; });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  ASSERT_TRUE(drained);
  grid.Read(central, "/vital", 0, update.size(),
            [&](fs::Status s, util::Payload d) {
              st = s;
              got = d.ToBytes();
            });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, update);
}

// --- Scenario 4: policy-driven workload with randomized verification -------

TEST(Integration, MixedPolicyWorkloadRandomized) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::StorageSystem system(engine, fabric, SmallSite("mix"));
  fs::FileSystem fs(system);

  util::Rng rng(2024);
  struct FileModel {
    std::string path;
    util::Bytes content;
  };
  std::vector<FileModel> files;
  ASSERT_EQ(fs.Mkdir("/mix"), fs::Status::kOk);
  for (int i = 0; i < 12; ++i) {
    fs::FilePolicy p;
    p.cache_replication = 1 + static_cast<std::uint32_t>(rng.Below(3));
    p.cache_priority = static_cast<std::uint8_t>(rng.Below(4));
    FileModel f;
    f.path = "/mix/file" + std::to_string(i);
    ASSERT_EQ(fs.Create(f.path, p), fs::Status::kOk);
    files.push_back(std::move(f));
  }
  for (int op = 0; op < 150; ++op) {
    auto& f = files[rng.Below(files.size())];
    if (rng.Chance(0.55) || f.content.empty()) {
      const std::uint64_t off =
          f.content.empty() ? 0 : rng.Below(f.content.size());
      const std::uint64_t len = rng.Range(1, 200000);
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      fs::Status st = fs::Status::kIoError;
      fs.Write(f.path, off, util::Payload::Copy(data),
               [&](fs::Status s) { st = s; });
      engine.Run();
      ASSERT_EQ(st, fs::Status::kOk) << f.path << " op " << op;
      if (off + len > f.content.size()) f.content.resize(off + len, 0);
      std::copy(data.begin(), data.end(),
                f.content.begin() + static_cast<std::ptrdiff_t>(off));
    } else {
      const std::uint64_t off = rng.Below(f.content.size());
      const std::uint64_t len =
          rng.Range(1, f.content.size() - off);
      fs::Status st = fs::Status::kIoError;
      util::Bytes got;
      fs.Read(f.path, off, len, [&](fs::Status s, util::Payload d) {
        st = s;
        got = d.ToBytes();
      });
      engine.Run();
      ASSERT_EQ(st, fs::Status::kOk);
      ASSERT_TRUE(std::equal(
          got.begin(), got.end(),
          f.content.begin() + static_cast<std::ptrdiff_t>(off)))
          << f.path << " op " << op;
    }
  }
  // Quiesce and verify everything once more after a full flush.
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.Run();
  ASSERT_TRUE(flushed);
  for (const auto& f : files) {
    if (f.content.empty()) continue;
    fs::Status st = fs::Status::kIoError;
    util::Bytes got;
    fs.Read(f.path, 0, f.content.size(), [&](fs::Status s, util::Payload d) {
      st = s;
      got = d.ToBytes();
    });
    engine.Run();
    ASSERT_EQ(st, fs::Status::kOk);
    EXPECT_EQ(got, f.content) << f.path;
  }
}

// --- Scenario 5: streaming + management under maintenance ------------------

TEST(Integration, StreamingDuringRollingUpgrade) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config = SmallSite("stream");
  config.controllers = 4;
  config.cache.node_capacity_pages = 4096;
  controller::StorageSystem system(engine, fabric, config);
  const auto host = system.AttachHost("h");
  const auto vol = system.CreateVolume("media", 64 * util::MiB);
  const std::uint64_t len = 16 * util::MiB;
  util::Bytes data(len);
  util::FillPattern(data, 4);
  bool ok = false;
  system.Write(host, vol, 0, util::Payload::Copy(data),
               [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);

  mgmt::AlertManager alerts(engine);
  mgmt::RollingUpgrade upgrade(system, alerts);
  bool upgraded = false;
  upgrade.Run(20 * util::kNsPerMs, [&](mgmt::RollingUpgrade::Result r) {
    upgraded = r.completed;
  });

  // Stream through the high-speed port while blades cycle.  The port uses
  // blades 2 and 3; the upgrade takes blades down one at a time, so the
  // stream sees at most one of its blades missing... streaming against a
  // live set is the supported mode, so pick blades late:
  engine.RunFor(25 * util::kNsPerMs);  // blade 0 is mid-upgrade now
  std::vector<cache::ControllerId> live;
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (system.cache().IsAlive(c)) live.push_back(c);
  }
  ASSERT_GE(live.size(), 3u);
  controller::HighSpeedPort port(system, live, {});
  controller::HighSpeedPort::StreamResult result;
  port.Stream(vol, 0, len, [&](controller::HighSpeedPort::StreamResult r) {
    result = r;
  });
  engine.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, len);
}

}  // namespace
}  // namespace nlss
