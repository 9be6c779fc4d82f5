// Targeted fault-injection tests across layers: streams riding through
// blade loss, WAN flaps during replication, degraded-mode COW, and link
// profile sanity.
#include <gtest/gtest.h>

#include <memory>

#include "controller/highspeed.h"
#include "controller/system.h"
#include "geo/geo.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss {
namespace {

util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::FillPattern(b, seed);
  return b;
}

TEST(Resilience, StreamRidesThroughBladeFailure) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.controllers = 4;
  config.raid_groups = 2;
  config.disk_profile.capacity_blocks = 16 * 1024;
  config.cache.node_capacity_pages = 2048;
  controller::StorageSystem system(engine, fabric, config);
  const auto host = system.AttachHost("h");
  const auto vol = system.CreateVolume("m", 32 * util::MiB);
  const std::uint64_t len = 16 * util::MiB;
  bool ok = false;
  util::Bytes data(len);
  util::FillPattern(data, 1);
  system.Write(host, vol, 0, util::Payload::Copy(data),
               [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);

  controller::HighSpeedPort port(system, {0, 1, 2, 3}, {});
  controller::HighSpeedPort::StreamResult result;
  bool fired = false;
  port.Stream(vol, 0, len, [&](controller::HighSpeedPort::StreamResult r) {
    result = r;
    fired = true;
  });
  // Kill a participating blade shortly into the stream.
  engine.RunFor(2 * util::kNsPerMs);
  system.FailController(2);
  system.RecoverCluster();
  engine.Run();
  ASSERT_TRUE(fired);
  EXPECT_TRUE(result.ok) << "surviving blades must absorb the segments";
  EXPECT_EQ(result.bytes, len);
}

TEST(Resilience, AsyncReplicationSurvivesWanFlap) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster grid(engine, fabric);
  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.raid_groups = 2;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  const auto a = grid.AddSite("a", sc, geo::Location{0, 0});
  const auto b = grid.AddSite("b", sc, geo::Location{1000, 0});
  grid.ConnectSites(a, b, net::LinkProfile::Wan(5 * util::kNsPerMs, 1.0));

  fs::FilePolicy async_p;
  async_p.geo_replicate = true;
  async_p.geo_sites = 2;
  ASSERT_EQ(grid.Create("/log", a, async_p), fs::Status::kOk);

  // Cut the WAN, write, restore: the queue must retry and drain.
  fabric.SetLinkUp(grid.site(a).gateway(), grid.site(b).gateway(), false);
  const auto data = Pattern(256 * util::KiB, 2);
  fs::Status st = fs::Status::kIoError;
  grid.Write(a, "/log", 0, util::Payload::Copy(data),
             [&](fs::Status s) { st = s; });
  engine.RunFor(50 * util::kNsPerMs);
  ASSERT_EQ(st, fs::Status::kOk) << "async write acks locally despite WAN";
  EXPECT_GT(grid.PendingAsyncBytes(), 0u);

  fabric.SetLinkUp(grid.site(a).gateway(), grid.site(b).gateway(), true);
  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  ASSERT_TRUE(drained);
  EXPECT_EQ(grid.PendingAsyncBytes(), 0u);

  // The replica is current: fail the home, read at the DR site.
  grid.FailSite(a);
  util::Bytes got;
  grid.Read(b, "/log", 0, data.size(), [&](fs::Status s, util::Payload d) {
    st = s;
    got = d.ToBytes();
  });
  engine.Run();
  ASSERT_EQ(st, fs::Status::kOk);
  EXPECT_EQ(got, data);
}

TEST(Resilience, SnapshotCowWorksOnDegradedRaid) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.controllers = 2;
  config.raid_groups = 2;
  config.disk_profile.capacity_blocks = 16 * 1024;
  controller::StorageSystem system(engine, fabric, config);
  const auto host = system.AttachHost("h");
  const auto vol = system.CreateVolume("v", 16 * util::MiB);
  const auto base = Pattern(4 * util::MiB, 3);
  bool ok = false;
  system.Write(host, vol, 0, util::Payload::Copy(base),
               [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.Run();
  ASSERT_TRUE(flushed);

  const auto snap = system.volume(vol).CreateSnapshot();
  // Degrade both groups, then overwrite (forcing COW reads through
  // reconstruction).
  system.group(0).disk(0).Fail();
  system.group(1).disk(2).Fail();
  const auto update = Pattern(2 * util::MiB, 4);
  system.Write(host, vol, util::MiB, util::Payload::Copy(update),
               [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok) << "COW on degraded RAID must reconstruct and proceed";
  system.cache().FlushAll([&](bool) {});
  engine.Run();

  // Snapshot still shows the original; live shows the update.
  util::Bytes snap_data;
  system.volume(vol).ReadSnapshotBlocks(
      snap, util::MiB / 4096, static_cast<std::uint32_t>(util::MiB / 4096),
      [&](bool r, util::Payload d) {
        ok = r;
        snap_data = d.ToBytes();
      });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_TRUE(std::equal(snap_data.begin(), snap_data.end(),
                         base.begin() + util::MiB));
  util::Bytes live;
  system.Read(host, vol, util::MiB, util::MiB, [&](bool r, util::Payload d) {
    ok = r;
    live = d.ToBytes();
  });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_TRUE(std::equal(live.begin(), live.end(), update.begin()));
}

TEST(Resilience, LinkProfilesSane) {
  // Profile invariants the experiments rely on.
  const auto fc2 = net::LinkProfile::FibreChannel2G();
  const auto ge = net::LinkProfile::GigE();
  const auto tge = net::LinkProfile::TenGbE();
  const auto ib = net::LinkProfile::Infiniband4x();
  EXPECT_DOUBLE_EQ(fc2.bytes_per_ns, util::GbpsToBytesPerNs(2.0));
  EXPECT_DOUBLE_EQ(tge.bytes_per_ns, util::GbpsToBytesPerNs(10.0));
  EXPECT_DOUBLE_EQ(ib.bytes_per_ns, util::GbpsToBytesPerNs(10.0));
  EXPECT_LT(ib.latency_ns, ge.latency_ns) << "IB must beat the IP stack";
  const auto wan = net::LinkProfile::Wan(10 * util::kNsPerMs, 2.5);
  EXPECT_EQ(wan.latency_ns, 10 * util::kNsPerMs);
}

TEST(Resilience, InfinibandHostAttachWorksEndToEnd) {
  // Paper §4: hosts can attach over Infiniband instead of FC.
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.controllers = 2;
  config.raid_groups = 2;
  config.disk_profile.capacity_blocks = 16 * 1024;
  config.host_link = net::LinkProfile::Infiniband4x();
  controller::StorageSystem system(engine, fabric, config);
  const auto host = system.AttachHost("ib-host");
  const auto vol = system.CreateVolume("t", 8 * util::MiB);
  const auto data = Pattern(512 * util::KiB, 5);
  bool ok = false;
  system.Write(host, vol, 0, util::Payload::Copy(data),
               [&](bool r) { ok = r; });
  engine.Run();
  ASSERT_TRUE(ok);
  util::Bytes got;
  system.Read(host, vol, 0, data.size(), [&](bool r, util::Payload d) {
    ok = r;
    got = d.ToBytes();
  });
  engine.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST(Resilience, RepeatedFailRecoverCycles) {
  // Controllers die and return repeatedly; the system keeps serving and
  // never loses acknowledged, replicated data.
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.controllers = 4;
  config.raid_groups = 2;
  config.disk_profile.capacity_blocks = 16 * 1024;
  config.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, config);
  const auto host = system.AttachHost("h");
  const auto vol = system.CreateVolume("t", 16 * util::MiB);

  util::Bytes model(4 * util::MiB, 0);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const auto data = Pattern(512 * util::KiB, 100 + cycle);
    const std::uint64_t off = cycle * util::MiB;
    bool ok = false;
    system.Write(host, vol, off, util::Payload::Copy(data),
                 [&](bool r) { ok = r; });
    engine.Run();
    ASSERT_TRUE(ok) << "cycle " << cycle;
    std::copy(data.begin(), data.end(),
              model.begin() + static_cast<std::ptrdiff_t>(off));

    const std::uint32_t victim = cycle % 4;
    system.FailController(victim);
    system.RecoverCluster();
    engine.Run();
    system.ReviveController(victim);
    system.RecoverCluster();
    engine.Run();

    util::Bytes got;
    system.Read(host, vol, 0, static_cast<std::uint32_t>(model.size()),
                [&](bool r, util::Payload d) {
                  ok = r;
                  got = d.ToBytes();
                });
    engine.Run();
    ASSERT_TRUE(ok) << "cycle " << cycle;
    ASSERT_EQ(got, model) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace nlss
