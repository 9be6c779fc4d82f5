#include <gtest/gtest.h>

#include <memory>

#include "geo/geo.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/payload.h"

namespace nlss::geo {
namespace {

class GeoTest : public ::testing::Test {
 protected:
  // Three labs: West (0,0), Central (2000 km), East (4000 km).
  void Build(GeoCluster::Config gc = {}) {
    fabric_ = std::make_unique<net::Fabric>(engine_);
    cluster_ = std::make_unique<GeoCluster>(engine_, *fabric_, gc);
    controller::SystemConfig sc;
    sc.controllers = 2;
    sc.raid_groups = 2;
    sc.disk_profile.capacity_blocks = 16 * 1024;
    west_ = cluster_->AddSite("west", sc, Location{0, 0});
    central_ = cluster_->AddSite("central", sc, Location{2000, 0});
    east_ = cluster_->AddSite("east", sc, Location{4000, 0});
    // WAN: ~5 ms per 1000 km one way, 1 Gb/s.
    cluster_->ConnectSites(west_, central_,
                           net::LinkProfile::Wan(10 * util::kNsPerMs, 1.0));
    cluster_->ConnectSites(central_, east_,
                           net::LinkProfile::Wan(10 * util::kNsPerMs, 1.0));
    cluster_->ConnectSites(west_, east_,
                           net::LinkProfile::Wan(20 * util::kNsPerMs, 1.0));
  }

  fs::Status Write(SiteId via, const std::string& path, std::uint64_t off,
                   const util::Bytes& data) {
    fs::Status st = fs::Status::kIoError;
    cluster_->Write(via, path, off, util::Payload::Copy(data),
                    [&](fs::Status s) { st = s; });
    engine_.Run();
    return st;
  }

  std::pair<fs::Status, util::Bytes> Read(SiteId via, const std::string& path,
                                          std::uint64_t off,
                                          std::uint64_t len) {
    fs::Status st = fs::Status::kIoError;
    util::Bytes out;
    cluster_->Read(via, path, off, len, [&](fs::Status s, util::Payload d) {
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
  std::unique_ptr<GeoCluster> cluster_;
  SiteId west_ = 0, central_ = 0, east_ = 0;
};

TEST_F(GeoTest, HomeSiteRoundtrip) {
  Build();
  ASSERT_EQ(cluster_->Create("/data", west_), fs::Status::kOk);
  const auto data = Pattern(1 * util::MiB, 1);
  ASSERT_EQ(Write(west_, "/data", 0, data), fs::Status::kOk);
  auto [st, got] = Read(west_, "/data", 0, data.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(GeoTest, RemoteReadMigratesAndThenServesLocally) {
  Build();
  ASSERT_EQ(cluster_->Create("/sim.out", west_), fs::Status::kOk);
  const auto data = Pattern(2 * util::MiB, 2);
  ASSERT_EQ(Write(west_, "/sim.out", 0, data), fs::Status::kOk);

  // First read from East pays the WAN; content must be correct.
  const auto east_gw_before =
      fabric_->StatsFor(cluster_->site(west_).gateway(),
                        cluster_->site(east_).gateway()).bytes;
  auto [st, got] = Read(east_, "/sim.out", 0, data.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data);
  const auto east_gw_after =
      fabric_->StatsFor(cluster_->site(west_).gateway(),
                        cluster_->site(east_).gateway()).bytes;
  EXPECT_GT(east_gw_after, east_gw_before) << "first touch crosses the WAN";

  // Second read is served from the migrated local copy: no new WAN data.
  auto [st2, got2] = Read(east_, "/sim.out", 0, data.size());
  ASSERT_EQ(st2, fs::Status::kOk);
  EXPECT_EQ(got2, data);
  const auto east_gw_final =
      fabric_->StatsFor(cluster_->site(west_).gateway(),
                        cluster_->site(east_).gateway()).bytes;
  EXPECT_EQ(east_gw_final, east_gw_after)
      << "repeat reads must be local after migration";
}

TEST_F(GeoTest, RemoteWriteForwardsToHome) {
  Build();
  ASSERT_EQ(cluster_->Create("/f", west_), fs::Status::kOk);
  const auto data = Pattern(500000, 3);
  ASSERT_EQ(Write(east_, "/f", 0, data), fs::Status::kOk);
  // Readable at home with the new content.
  auto [st, got] = Read(west_, "/f", 0, data.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(GeoTest, StaleMigratedChunksInvalidatedByWrite) {
  Build();
  ASSERT_EQ(cluster_->Create("/v", west_), fs::Status::kOk);
  const auto v1 = Pattern(512 * util::KiB, 4);
  ASSERT_EQ(Write(west_, "/v", 0, v1), fs::Status::kOk);
  // East migrates a copy.
  auto [st1, got1] = Read(east_, "/v", 0, v1.size());
  ASSERT_EQ(st1, fs::Status::kOk);
  EXPECT_EQ(got1, v1);
  // Home overwrites.
  const auto v2 = Pattern(512 * util::KiB, 5);
  ASSERT_EQ(Write(west_, "/v", 0, v2), fs::Status::kOk);
  // East must see the new version, not its cached chunks.
  auto [st2, got2] = Read(east_, "/v", 0, v2.size());
  ASSERT_EQ(st2, fs::Status::kOk);
  EXPECT_EQ(got2, v2);
}

TEST_F(GeoTest, SyncReplicationTargetsNearestSite) {
  Build();
  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sync = true;
  p.geo_sites = 2;
  ASSERT_EQ(cluster_->Create("/crit", west_, p), fs::Status::kOk);
  const auto replicas = cluster_->ReplicasOf("/crit");
  EXPECT_TRUE(replicas.count(west_));
  EXPECT_TRUE(replicas.count(central_)) << "nearest site must be the replica";
  EXPECT_FALSE(replicas.count(east_));

  const auto data = Pattern(256 * util::KiB, 6);
  ASSERT_EQ(Write(west_, "/crit", 0, data), fs::Status::kOk);
  // The replica is already current: read it at Central without touching
  // West (kill West first to prove independence).
  cluster_->FailSite(west_);
  auto [st, got] = Read(central_, "/crit", 0, data.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data);
}

TEST_F(GeoTest, SyncWritePaysRttAsyncDoesNot) {
  Build();
  fs::FilePolicy sync_policy;
  sync_policy.geo_replicate = true;
  sync_policy.geo_sync = true;
  sync_policy.geo_sites = 2;
  fs::FilePolicy async_policy = sync_policy;
  async_policy.geo_sync = false;
  ASSERT_EQ(cluster_->Create("/sync", west_, sync_policy), fs::Status::kOk);
  ASSERT_EQ(cluster_->Create("/async", west_, async_policy), fs::Status::kOk);

  const auto data = Pattern(64 * util::KiB, 7);
  auto timed_write = [&](const std::string& path) {
    const sim::Tick start = engine_.now();
    sim::Tick acked = 0;
    cluster_->Write(west_, path, 0, util::Payload::Copy(data),
                    [&](fs::Status st) {
      ASSERT_EQ(st, fs::Status::kOk);
      acked = engine_.now();
    });
    engine_.Run();
    return acked - start;
  };
  const sim::Tick t_sync = timed_write("/sync");
  const sim::Tick t_async = timed_write("/async");
  // Sync pays at least one WAN round trip (2 x 10 ms).
  EXPECT_GE(t_sync, 20 * util::kNsPerMs);
  EXPECT_LT(t_async, t_sync / 2)
      << "async write must not wait for the WAN";
}

TEST_F(GeoTest, AsyncQueueDrainsInOrder) {
  Build();
  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sync = false;
  p.geo_sites = 2;
  ASSERT_EQ(cluster_->Create("/log", west_, p), fs::Status::kOk);
  // Two overlapping async writes: the second must win at the replica.
  const auto v1 = Pattern(128 * util::KiB, 8);
  const auto v2 = Pattern(128 * util::KiB, 9);
  ASSERT_EQ(Write(west_, "/log", 0, v1), fs::Status::kOk);
  ASSERT_EQ(Write(west_, "/log", 0, v2), fs::Status::kOk);
  bool drained = false;
  cluster_->DrainAsync([&] { drained = true; });
  engine_.Run();
  ASSERT_TRUE(drained);
  EXPECT_EQ(cluster_->PendingAsyncBytes(), 0u);
  // Read directly from the replica site's local fs (kill home to be sure).
  cluster_->FailSite(west_);
  auto [st, got] = Read(central_, "/log", 0, v2.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, v2);
}

TEST_F(GeoTest, MinDistancePolicyHonored) {
  Build();
  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sites = 2;
  p.geo_min_distance_km = 3000;  // Central (2000 km) is too close
  ASSERT_EQ(cluster_->Create("/far", west_, p), fs::Status::kOk);
  const auto replicas = cluster_->ReplicasOf("/far");
  EXPECT_TRUE(replicas.count(east_)) << "East (4000 km) qualifies";
  EXPECT_FALSE(replicas.count(central_));
}

TEST_F(GeoTest, SiteFailureZeroLossForSyncData) {
  Build();
  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sync = true;
  p.geo_sites = 2;
  ASSERT_EQ(cluster_->Create("/payroll", west_, p), fs::Status::kOk);
  const auto data = Pattern(1 * util::MiB, 10);
  ASSERT_EQ(Write(west_, "/payroll", 0, data), fs::Status::kOk);

  cluster_->FailSite(west_);
  EXPECT_EQ(cluster_->HomeOf("/payroll"), central_)
      << "failover promotes the surviving replica";
  auto [st, got] = Read(central_, "/payroll", 0, data.size());
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data) << "synchronously replicated data survives intact";
  // And East can still read it (new home serves it).
  auto [st2, got2] = Read(east_, "/payroll", 0, data.size());
  ASSERT_EQ(st2, fs::Status::kOk);
  EXPECT_EQ(got2, data);
}

TEST_F(GeoTest, SiteFailureBoundedLossForAsyncData) {
  Build();
  fs::FilePolicy p;
  p.geo_replicate = true;
  p.geo_sync = false;
  p.geo_sites = 2;
  ASSERT_EQ(cluster_->Create("/scratch", west_, p), fs::Status::kOk);
  // Issue a write and kill the site before the queue finishes shipping.
  // 4 MiB over the 1 Gb/s WAN takes ~34 ms, so the ack (local) lands well
  // before the replication queue empties.
  const auto data = Pattern(4 * util::MiB, 11);
  bool acked = false;
  cluster_->Write(west_, "/scratch", 0, util::Payload::Copy(data),
                  [&](fs::Status st) { acked = st == fs::Status::kOk; });
  for (int i = 0; i < 100 && !acked; ++i) {
    engine_.RunFor(1 * util::kNsPerMs);
  }
  ASSERT_TRUE(acked);
  EXPECT_GT(cluster_->PendingAsyncBytes(), 0u);
  cluster_->FailSite(west_);
  engine_.Run();
  EXPECT_GT(cluster_->losses().lost_async_bytes, 0u)
      << "async replication loses the queued window";
}

TEST_F(GeoTest, UnreplicatedFileUnavailableAfterSiteLoss) {
  Build();
  ASSERT_EQ(cluster_->Create("/local-only", west_), fs::Status::kOk);
  ASSERT_EQ(Write(west_, "/local-only", 0, Pattern(1000, 12)),
            fs::Status::kOk);
  cluster_->FailSite(west_);
  EXPECT_EQ(cluster_->losses().unavailable_files, 1u);
  auto [st, got] = Read(central_, "/local-only", 0, 1000);
  EXPECT_NE(st, fs::Status::kOk);
}

TEST_F(GeoTest, HotFileAutoPromotedToReplica) {
  GeoCluster::Config gc;
  gc.hot_promote_reads = 2;
  Build(gc);
  ASSERT_EQ(cluster_->Create("/hot", west_), fs::Status::kOk);
  ASSERT_EQ(Write(west_, "/hot", 0, Pattern(512 * util::KiB, 13)),
            fs::Status::kOk);
  EXPECT_FALSE(cluster_->ReplicasOf("/hot").count(east_));
  Read(east_, "/hot", 0, 1000);
  Read(east_, "/hot", 0, 1000);
  engine_.Run();
  EXPECT_TRUE(cluster_->ReplicasOf("/hot").count(east_))
      << "commonly accessed file must replicate to the accessing site";
}

TEST_F(GeoTest, PrefetchPullsWholeFileAfterFirstTouch) {
  GeoCluster::Config gc;
  gc.prefetch = true;
  gc.auto_promote = false;
  Build(gc);
  ASSERT_EQ(cluster_->Create("/big", west_), fs::Status::kOk);
  const auto data = Pattern(2 * util::MiB, 14);
  ASSERT_EQ(Write(west_, "/big", 0, data), fs::Status::kOk);
  // Touch only the first KB from East; prefetch should stream the rest.
  auto [st, got] = Read(east_, "/big", 0, 1024);
  ASSERT_EQ(st, fs::Status::kOk);
  engine_.Run();  // let prefetch finish
  // Now kill the WAN path entirely; the whole file must read locally.
  fabric_->SetLinkUp(cluster_->site(west_).gateway(),
                     cluster_->site(east_).gateway(), false);
  fabric_->SetLinkUp(cluster_->site(west_).gateway(),
                     cluster_->site(central_).gateway(), false);
  auto [st2, got2] = Read(east_, "/big", 0, data.size());
  ASSERT_EQ(st2, fs::Status::kOk);
  EXPECT_EQ(got2, data) << "prefetched copy must serve without the WAN";
}

// A payload crosses sites as is: a write materializes only the caller's own
// ingest copy, at every site it reaches, and a read at a non-replica site
// lands the home site's read at the reading site without gathering it.
TEST(GeoPayload, SitesShareTheCallersBytes) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  GeoCluster grid(engine, fabric);
  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  const SiteId home = grid.AddSite("home", sc, Location{0, 0});
  const SiteId away = grid.AddSite("away", sc, Location{1000, 0});
  grid.ConnectSites(home, away, net::LinkProfile::Wan(5 * util::kNsPerMs, 1.0));
  fs::FilePolicy sync;
  sync.geo_replicate = true;
  sync.geo_sync = true;
  sync.geo_sites = 2;
  ASSERT_EQ(grid.Create("/plain", home), fs::Status::kOk);
  ASSERT_EQ(grid.Create("/sync", home, sync), fs::Status::kOk);

  util::Bytes bytes(util::MiB);
  util::FillPattern(bytes, 21);
  const auto write = [&](const std::string& path) {
    const std::uint64_t before = util::Payload::materialized_bytes();
    fs::Status st = fs::Status::kIoError;
    grid.Write(home, path, 0, util::Payload::Copy(bytes),
               [&](fs::Status s) { st = s; });
    engine.Run();
    EXPECT_EQ(st, fs::Status::kOk) << path;
    return util::Payload::materialized_bytes() - before;
  };
  EXPECT_EQ(write("/plain"), util::MiB);  // 3 MiB before payloads
  EXPECT_EQ(write("/sync"), util::MiB);   // 4 MiB before payloads
  ASSERT_EQ(grid.ReplicasOf("/sync").count(away), 1u);

  ASSERT_EQ(grid.ReplicasOf("/plain").count(away), 0u);
  const std::uint64_t before = util::Payload::materialized_bytes();
  fs::Status st = fs::Status::kIoError;
  util::Payload got;
  grid.Read(away, "/plain", 0, util::MiB, [&](fs::Status s, util::Payload d) {
    st = s;
    got = std::move(d);
  });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(util::Payload::materialized_bytes() - before, 0u)
      << "3 MiB before payloads";
  EXPECT_EQ(got, bytes);
}

}  // namespace
}  // namespace nlss::geo
