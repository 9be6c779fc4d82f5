#include <gtest/gtest.h>

#include <memory>

#include "mgmt/json.h"
#include "mgmt/admin_http.h"
#include "mgmt/manager.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::mgmt {
namespace {

TEST(Json, BasicShapes) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "pool \"a\"");
  w.Field("count", std::uint64_t{42});
  w.Field("ratio", 0.5);
  w.Field("ok", true);
  w.Key("list").BeginArray().Value(1).Value(2).Value(3).EndArray();
  w.Key("nested").BeginObject().Field("x", 1).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"pool \\\"a\\\"\",\"count\":42,\"ratio\":0.5,"
            "\"ok\":true,\"list\":[1,2,3],\"nested\":{\"x\":1}}");
}

TEST(Json, EscapesControlCharacters) {
  JsonWriter w;
  w.BeginObject().Field("s", std::string("a\nb\tc")).EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\nb\\tc\"}");
}

class MgmtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    config.cache.replication = 2;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    host_ = system_->AttachHost("h");
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  net::NodeId host_ = net::kInvalidNode;
};

TEST_F(MgmtTest, StatusReportContainsComponents) {
  system_->CreateVolume("physics", 32 * util::MiB);
  StatusReporter reporter(*system_);
  const std::string json = reporter.Report();
  EXPECT_NE(json.find("\"controllers\":["), std::string::npos);
  EXPECT_NE(json.find("\"pool\":{"), std::string::npos);
  EXPECT_NE(json.find("\"raid_groups\":["), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"physics\""), std::string::npos);
  EXPECT_NE(json.find("RAID-5"), std::string::npos);
}

TEST_F(MgmtTest, HealthCheckRaisesAlerts) {
  AlertManager alerts(engine_);
  StatusReporter reporter(*system_);
  reporter.CheckHealth(alerts);
  EXPECT_EQ(alerts.alerts().size(), 0u) << "healthy system: no alerts";

  system_->group(0).disk(0).Fail();
  system_->FailController(1);
  reporter.CheckHealth(alerts);
  EXPECT_GE(alerts.CountAtLeast(AlertSeverity::kWarning), 2u);
  EXPECT_GE(alerts.CountAtLeast(AlertSeverity::kCritical), 1u);
}

TEST_F(MgmtTest, PolicyEngineAutoGrowsNearlyFullVolume) {
  AlertManager alerts(engine_);
  const auto vol = system_->CreateVolume("t", 4 * util::MiB);
  // Fill past the autogrow threshold.
  bool ok = false;
  system_->Write(host_, vol, 0,
                 util::Payload::Copy(Pattern(4 * util::MiB - 4096, 1)),
                 [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  const auto before = system_->volume(vol).CapacityBlocks();
  PolicyEngine policy(*system_, alerts);
  const auto actions = policy.RunOnce();
  EXPECT_FALSE(actions.empty());
  EXPECT_GT(system_->volume(vol).CapacityBlocks(), before);
}

TEST_F(MgmtTest, PolicyEngineAlertsOnPoolPressure) {
  AlertManager alerts(engine_);
  // Eat most of the pool with a preallocated hog.
  const std::uint64_t pool_bytes =
      system_->pool().TotalExtents() * system_->pool().extent_bytes();
  system_->CreateVolume("hog", pool_bytes * 9 / 10, /*preallocate=*/true);
  PolicyEngine policy(*system_, alerts);
  policy.RunOnce();
  EXPECT_GE(alerts.CountAtLeast(AlertSeverity::kWarning), 1u);
}

TEST_F(MgmtTest, RollingUpgradeKeepsSystemAvailable) {
  AlertManager alerts(engine_);
  const auto vol = system_->CreateVolume("t", 16 * util::MiB);
  const auto data = Pattern(1 * util::MiB, 2);
  bool seeded = false;
  system_->Write(host_, vol, 0, util::Payload::Copy(data),
                 [&](bool r) { seeded = r; });
  engine_.Run();
  ASSERT_TRUE(seeded);

  RollingUpgrade upgrade(*system_, alerts);
  RollingUpgrade::Result result;
  bool upgrade_done = false;
  upgrade.Run(50 * util::kNsPerMs, [&](RollingUpgrade::Result r) {
    result = r;
    upgrade_done = true;
  });

  // Issue reads continuously while the upgrade runs; every read must
  // succeed (some blade is always up).
  int reads_ok = 0, reads_total = 0;
  std::function<void()> reader = [&] {
    if (upgrade_done) return;
    ++reads_total;
    system_->Read(host_, vol, 0, 64 * util::KiB,
                  [&](bool ok, util::Payload) { reads_ok += ok ? 1 : 0; });
    engine_.Schedule(10 * util::kNsPerMs, reader);
  };
  reader();
  engine_.Run();

  ASSERT_TRUE(upgrade_done);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.controllers_upgraded, system_->controller_count());
  EXPECT_GT(reads_total, 10);
  EXPECT_EQ(reads_ok, reads_total) << "no planned downtime allowed";

  // All controllers are back and the data is intact.
  for (std::uint32_t c = 0; c < system_->controller_count(); ++c) {
    EXPECT_TRUE(system_->cache().IsAlive(c));
  }
  bool read_ok = false;
  util::Bytes got;
  system_->Read(host_, vol, 0, static_cast<std::uint32_t>(data.size()),
                [&](bool ok, util::Payload d) {
                  read_ok = ok;
                  got = d.ToBytes();
                });
  engine_.Run();
  ASSERT_TRUE(read_ok);
  EXPECT_EQ(got, data);
}

TEST_F(MgmtTest, AdminHttpEndpointRequiresAdminRole) {
  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine_, keys);
  security::AuditLog audit(engine_);
  AlertManager alerts(engine_);
  auth.AddUser("root", "pw", {"admin"});
  auth.AddUser("alice", "pw", {"reader"});
  AdminHttp admin(*system_, auth, alerts, audit);

  // No token: 401.
  auto r = admin.Handle("GET /status HTTP/1.0\r\n\r\n");
  EXPECT_EQ(r.status, 401);

  // Non-admin token: 401.
  const auto user_token = *auth.Login("alice", "pw");
  r = admin.Handle("GET /status HTTP/1.0\r\nAuthorization: " + user_token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 401);

  // Admin token: JSON status.
  const auto admin_token = *auth.Login("root", "pw");
  r = admin.Handle("GET /status HTTP/1.0\r\nAuthorization: " + admin_token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  const std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"controllers\""), std::string::npos);

  // Alerts and audit routes work; audit records the admin accesses.
  alerts.Raise(AlertSeverity::kWarning, "pool", "test alert");
  r = admin.Handle("GET /alerts HTTP/1.0\r\nAuthorization: " + admin_token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(std::string(r.body.begin(), r.body.end()).find("test alert"),
            std::string::npos);
  r = admin.Handle("GET /audit HTTP/1.0\r\nAuthorization: " + admin_token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(std::string(r.body.begin(), r.body.end())
                .find("\"chain_intact\":true"),
            std::string::npos);
  // Unknown route.
  r = admin.Handle("GET /nope HTTP/1.0\r\nAuthorization: " + admin_token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 404);
}

TEST_F(MgmtTest, AdminHttpQosRoutes) {
  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine_, keys);
  security::AuditLog audit(engine_);
  AlertManager alerts(engine_);
  auth.AddUser("root", "pw", {"admin"});
  AdminHttp admin(*system_, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");

  // Without a scheduler attached: 404.
  auto r = admin.Handle("GET /qos HTTP/1.0\r\nAuthorization: " + token +
                        "\r\n\r\n");
  EXPECT_EQ(r.status, 404);

  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  qos::Scheduler qos(engine_, registry, system_->controller_count());
  admin.AttachQos(&qos);

  r = admin.Handle("GET /qos HTTP/1.0\r\nAuthorization: " + token +
                   "\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"lab-a\""), std::string::npos);
  EXPECT_NE(body.find("\"classes\""), std::string::npos);

  // Runtime weight reconfiguration via query string.
  r = admin.Handle("GET /qos/weight?class=bronze&weight=3 HTTP/1.0\r\n"
                   "Authorization: " + token + "\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(registry.spec(qos::ServiceClass::kBronze).weight, 3u);

  // Invalid weight (0) and unknown class are rejected.
  r = admin.Handle("GET /qos/weight?class=bronze&weight=0 HTTP/1.0\r\n"
                   "Authorization: " + token + "\r\n\r\n");
  EXPECT_EQ(r.status, 400);
  r = admin.Handle("GET /qos/weight?class=platinum&weight=2 HTTP/1.0\r\n"
                   "Authorization: " + token + "\r\n\r\n");
  EXPECT_EQ(r.status, 400);
}

TEST_F(MgmtTest, AdminHttpObsRoutes) {
  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine_, keys);
  security::AuditLog audit(engine_);
  AlertManager alerts(engine_);
  auth.AddUser("root", "pw", {"admin"});
  AdminHttp admin(*system_, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  const auto get = [&](const std::string& path) {
    return admin.Handle("GET " + path + " HTTP/1.0\r\nAuthorization: " +
                        token + "\r\n\r\n");
  };

  // Without a hub attached: 404.
  EXPECT_EQ(get("/metrics").status, 404);
  EXPECT_EQ(get("/traces").status, 404);

  obs::Hub hub(engine_);
  admin.AttachObs(&hub);
  system_->AttachObs(&hub);

  // Drive a couple of traced ops so there is something to export.
  const auto vol = system_->CreateVolume("physics", 8 * util::MiB);
  bool ok = false;
  system_->Write(host_, vol, 0, util::Payload::Copy(Pattern(64 * util::KiB, 1)),
                 [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  system_->Read(host_, vol, 0, 64 * util::KiB, [](bool, util::Payload) {});
  engine_.Run();

  // /metrics: Prometheus text, not JSON.
  auto r = get("/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("text/plain"), std::string::npos);
  std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("# TYPE nlss_controller_reads_total counter"),
            std::string::npos);
  // write + its background cache.flush write-back + read.
  EXPECT_NE(body.find("nlss_traces_finished_total 3"), std::string::npos);

  // /traces: every retained trace, JSON.
  r = get("/traces");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.headers.find("application/json"), std::string::npos);
  body.assign(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"name\":\"controller.read\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"controller.write\""), std::string::npos);
  EXPECT_NE(body.find("\"tenant\":\"physics\""), std::string::npos);
  EXPECT_NE(body.find("\"breakdown_ns\""), std::string::npos);
  EXPECT_NE(body.find("\"spans\""), std::string::npos);

  // Tenant filter keeps matches, drops the rest.
  body = [&] {
    auto resp = get("/traces?tenant=physics");
    return std::string(resp.body.begin(), resp.body.end());
  }();
  EXPECT_NE(body.find("\"tenant\":\"physics\""), std::string::npos);
  body = [&] {
    auto resp = get("/traces?tenant=nosuch");
    return std::string(resp.body.begin(), resp.body.end());
  }();
  EXPECT_EQ(body.find("\"tenant\":\"physics\""), std::string::npos);
  EXPECT_NE(body.find("\"traces\":[]"), std::string::npos);

  // min_us filter: an absurd floor drops everything; 0 keeps everything.
  body = [&] {
    auto resp = get("/traces?tenant=physics&min_us=999999999");
    return std::string(resp.body.begin(), resp.body.end());
  }();
  EXPECT_NE(body.find("\"traces\":[]"), std::string::npos);
  EXPECT_EQ(get("/traces?min_us=0").status, 200);

  // Malformed min_us is rejected, not silently ignored.
  EXPECT_EQ(get("/traces?min_us=abc").status, 400);
}

TEST_F(MgmtTest, AdminHttpTraceViewsAndLabelledQosMetrics) {
  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine_, keys);
  security::AuditLog audit(engine_);
  AlertManager alerts(engine_);
  auth.AddUser("root", "pw", {"admin"});
  AdminHttp admin(*system_, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  const auto get = [&](const std::string& path) {
    return admin.Handle("GET " + path + " HTTP/1.0\r\nAuthorization: " +
                        token + "\r\n\r\n");
  };

  obs::Hub hub(engine_);
  admin.AttachObs(&hub);
  system_->AttachObs(&hub);
  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  qos::Scheduler qos(engine_, registry, system_->controller_count());
  system_->AttachQos(&qos);

  const auto vol = system_->CreateVolume("lab-a", 8 * util::MiB);
  bool ok = false;
  system_->Write(host_, vol, 0, util::Payload::Copy(Pattern(64 * util::KiB, 1)),
                 [&](bool r) { ok = r; });
  engine_.Run();
  ASSERT_TRUE(ok);
  system_->Read(host_, vol, 0, 64 * util::KiB, [](bool, util::Payload) {});
  engine_.Run();

  // /metrics serves the per-tenant labelled QoS series.
  auto r = get("/metrics");
  EXPECT_EQ(r.status, 200);
  std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("nlss_qos_ops_total{tenant=\"lab-a\"} 2"),
            std::string::npos)
      << body;

  // name= filters on the root span name (substring).
  body = [&] {
    auto resp = get("/traces?name=read");
    return std::string(resp.body.begin(), resp.body.end());
  }();
  EXPECT_NE(body.find("\"name\":\"controller.read\""), std::string::npos);
  EXPECT_EQ(body.find("\"name\":\"controller.write\""), std::string::npos);

  // view=recent serves the ring buffer; both ops are in it.
  body = [&] {
    auto resp = get("/traces?view=recent");
    return std::string(resp.body.begin(), resp.body.end());
  }();
  EXPECT_NE(body.find("\"view\":\"recent\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"controller.read\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"controller.write\""), std::string::npos);

  // Unknown view is rejected.
  EXPECT_EQ(get("/traces?view=bogus").status, 400);
}

TEST_F(MgmtTest, GeoStatusReport) {
  geo::GeoCluster cluster(engine_, *fabric_);
  controller::SystemConfig sc;
  sc.controllers = 2;
  sc.disk_profile.capacity_blocks = 8 * 1024;
  cluster.AddSite("alpha", sc, geo::Location{0, 0});
  cluster.AddSite("beta", sc, geo::Location{1000, 0});
  cluster.ConnectSites(0, 1, net::LinkProfile::Wan(5 * util::kNsPerMs, 1.0));
  const std::string json = GeoStatusReport(cluster);
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"pending_async_bytes\":0"), std::string::npos);
}

}  // namespace
}  // namespace nlss::mgmt
