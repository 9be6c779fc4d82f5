// Tier placement engine (E19): heat determinism, spill/promote data
// integrity, seq-ordered demotion vs concurrent rewrites, in-flight
// joins, and crash-mid-spill determinism — all cross-checked against the
// kTier invariant class.
#include <gtest/gtest.h>

#include <memory>

#include "cache/backing.h"
#include "cache/cluster.h"
#include "check/invariant.h"
#include "controller/system.h"
#include "mgmt/admin_http.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "security/auth.h"
#include "sim/engine.h"
#include "tier/heat.h"
#include "tier/manager.h"
#include "util/bytes.h"

namespace nlss::tier {
namespace {

constexpr std::uint32_t kVol = 1;

std::uint64_t TierViolations() {
  return check::Registry::Instance().violations(check::Subsystem::kTier);
}

/// The tier hooks hand a callback back when they decline it; an empty
/// result means the flash tier absorbed the request.
template <typename Cb>
bool Absorbed(const Cb& handed_back) {
  return !handed_back;
}

// --- HeatTracker -------------------------------------------------------------

TEST(HeatTracker, EpochDecayIsExactAndDeterministic) {
  const auto run = [] {
    sim::Engine engine;
    HeatTracker::Config hc;
    hc.epoch_ns = 1000;  // 1 us epochs for a fast recipe
    hc.touch_weight = 4;
    HeatTracker heat(engine, hc);
    const cache::PageKey key{kVol, 7};
    std::vector<std::uint32_t> trace;
    heat.Touch(key);  // t=0: heat 4
    trace.push_back(heat.HeatOf(key));
    engine.ScheduleAt(1000, [&] { trace.push_back(heat.HeatOf(key)); });
    engine.ScheduleAt(2000, [&] {
      trace.push_back(heat.HeatOf(key));
      heat.Touch(key);  // decayed 1 + 4 = 5
      trace.push_back(heat.HeatOf(key));
    });
    engine.ScheduleAt(3000, [&] { trace.push_back(heat.HeatOf(key)); });
    engine.ScheduleAt(64000, [&] { trace.push_back(heat.HeatOf(key)); });
    engine.Run();
    return trace;
  };
  const std::vector<std::uint32_t> a = run();
  EXPECT_EQ(a, (std::vector<std::uint32_t>{4, 2, 1, 5, 2, 0}))
      << "heat must halve once per elapsed simulated epoch, exactly";
  EXPECT_EQ(a, run()) << "two identical runs must decay identically";
}

TEST(HeatTracker, SaturatesAndForgets) {
  sim::Engine engine;
  HeatTracker::Config hc;
  hc.max_heat = 16;
  HeatTracker heat(engine, hc);
  const cache::PageKey key{kVol, 1};
  for (int i = 0; i < 100; ++i) heat.Touch(key);
  EXPECT_EQ(heat.HeatOf(key), 16u);
  EXPECT_EQ(heat.tracked(), 1u);
  heat.Forget(key);
  EXPECT_EQ(heat.HeatOf(key), 0u);
  EXPECT_EQ(heat.tracked(), 0u);
}

// --- TierManager over a real cache cluster -----------------------------------

class TierTest : public ::testing::Test {
 protected:
  void Build(std::size_t n_controllers, Config tcfg = {},
             cache::CacheCluster::Config ccfg = {}) {
    fabric_ = std::make_unique<net::Fabric>(engine_);
    std::vector<net::NodeId> nodes;
    for (std::size_t i = 0; i < n_controllers; ++i) {
      nodes.push_back(fabric_->AddNode("ctrl" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n_controllers; ++i) {
      for (std::size_t j = i + 1; j < n_controllers; ++j) {
        fabric_->Connect(nodes[i], nodes[j], net::LinkProfile::Backplane());
      }
    }
    cluster_ = std::make_unique<cache::CacheCluster>(engine_, *fabric_,
                                                     nodes, ccfg);
    backing_ = std::make_unique<cache::MemBacking>(engine_, 16384);
    cluster_->RegisterVolume(kVol, backing_.get());
    tcfg.enabled = true;
    tier_ = std::make_unique<TierManager>(engine_, *cluster_, tcfg);
    cluster_->AttachTier(tier_.get());
    viol0_ = TierViolations();
  }

  void TearDown() override {
    if (tier_ != nullptr) {
      EXPECT_EQ(TierViolations(), viol0_) << "kTier invariant violated";
    }
  }

  bool Write(cache::ControllerId via, std::uint64_t offset,
             const util::Bytes& data) {
    bool ok = false, fired = false;
    cluster_->Write(via, kVol, offset, util::Payload::Copy(data), [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(cache::ControllerId via,
                                    std::uint64_t offset, std::uint32_t len) {
    bool ok = false, fired = false;
    util::Bytes out;
    cluster_->Read(via, kVol, offset, len, [&](bool r, util::Payload d) {
      ok = r;
      out = d.ToBytes();
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return {ok, std::move(out)};
  }

  bool FlushAll() {
    bool ok = false;
    cluster_->FlushAll([&](bool r) { ok = r; });
    engine_.Run();
    return ok;
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  std::uint32_t PageBytes() const { return cluster_->config().page_bytes; }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<cache::CacheCluster> cluster_;
  std::unique_ptr<cache::MemBacking> backing_;
  std::unique_ptr<TierManager> tier_;
  std::uint64_t viol0_ = 0;
};

TEST_F(TierTest, SpillPromoteRoundTripPreservesData) {
  Build(2);
  const std::uint32_t pb = PageBytes();
  constexpr std::uint32_t kPages = 16;
  std::vector<util::Bytes> pages;
  for (std::uint32_t p = 0; p < kPages; ++p) {
    pages.push_back(Pattern(pb, p + 1));
    ASSERT_TRUE(Write(p % 2, static_cast<std::uint64_t>(p) * pb, pages[p]));
  }
  // FlushAll absorbs the dirty pages into flash and drains the tier: every
  // flash entry must end clean (disk-current), nothing lost.
  ASSERT_TRUE(FlushAll());
  EXPECT_GT(tier_->stats().writeback_absorbs, 0u);
  EXPECT_GT(tier_->stats().demotions, 0u);
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(tier_->FlashDirtyPages(c), 0u) << "controller " << c;
  }
  EXPECT_FALSE(tier_->HasDirty());
  const std::uint64_t resident = tier_->TotalFlashPages();
  ASSERT_GT(resident, 0u) << "the flushed pages must land in flash";

  // Drop every DRAM copy: the next reads must be served by flash.
  for (std::uint32_t c = 0; c < 2; ++c) cluster_->node(c).Clear();
  cluster_->Recover();
  engine_.Run();

  for (std::uint32_t p = 0; p < kPages; ++p) {
    auto [ok, got] = Read((p + 1) % 2, static_cast<std::uint64_t>(p) * pb, pb);
    ASSERT_TRUE(ok) << "page " << p;
    EXPECT_EQ(got, pages[p]) << "page " << p;
  }
  EXPECT_GT(tier_->stats().flash_hits, 0u);
  // A clean flash hit promotes: the page moves (not copies) back to DRAM.
  EXPECT_GT(tier_->stats().promotions, 0u);
  EXPECT_LT(tier_->TotalFlashPages(), resident);
}

TEST_F(TierTest, DirtyDemotionVsConcurrentRewriteIsSeqOrdered) {
  Build(1);
  const std::uint32_t pb = PageBytes();
  const cache::PageKey key{kVol, 3};
  const util::Bytes v1 = Pattern(pb, 100);
  const util::Bytes v2 = Pattern(pb, 200);

  bool absorbed1 = false;
  ASSERT_TRUE(Absorbed(tier_->TierWriteBack(
      0, {{key, 1, {}}}, util::Payload::Copy(v1),
      [&](bool ok) { absorbed1 = ok; }, {})));
  engine_.Run();
  ASSERT_TRUE(absorbed1);
  ASSERT_EQ(tier_->FlashDirtyPages(0), 1u);

  // Start draining (demotes v1 to disk), and land a rewrite of the same
  // page while that demotion is in flight.  The demote completion must NOT
  // mark the entry clean — its captured sequence is stale — and the rewrite
  // must be what finally reaches the disk.
  bool drained = false;
  tier_->DrainDirty([&](bool ok) { drained = ok; });
  bool absorbed2 = false;
  engine_.Schedule(1000, [&] {
    ASSERT_TRUE(Absorbed(tier_->TierWriteBack(
        0, {{key, 2, {}}}, util::Payload::Copy(v2),
        [&](bool ok) { absorbed2 = ok; }, {})));
  });
  engine_.Run();
  ASSERT_TRUE(absorbed2);
  ASSERT_TRUE(drained) << "the drain must chase the rewrite to completion";

  EXPECT_GE(tier_->stats().stale_demotes, 1u)
      << "the first demote raced the rewrite and must not count as clean";
  EXPECT_EQ(tier_->FlashDirtyPages(0), 0u);
  EXPECT_FALSE(tier_->HasDirty());

  // Disk must hold v2 — never v1-after-v2.
  const std::size_t off = static_cast<std::size_t>(key.page) * pb;
  const util::Bytes disk(backing_->raw().begin() + off,
                         backing_->raw().begin() + off + pb);
  EXPECT_EQ(disk, v2);

  // And the flash copy (still resident, now clean) serves v2 too.
  bool ok = false;
  util::Bytes got;
  ASSERT_TRUE(Absorbed(tier_->TierRead(0, key,
                                      [&](bool r, util::Payload d) {
                                        ok = r;
                                        got = d.ToBytes();
                                      },
                                      {})));
  engine_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, v2);
}

TEST_F(TierTest, RewriteLeavesServedFlashPayloadUntouched) {
  Build(1);
  const std::uint32_t pb = PageBytes();
  const cache::PageKey key{kVol, 4};
  const util::Bytes v1 = Pattern(pb, 31);
  const util::Bytes v2 = Pattern(pb, 32);
  ASSERT_TRUE(Absorbed(tier_->TierWriteBack(
      0, {{key, 1, {}}}, util::Payload::Copy(v1), [](bool) {}, {})));
  engine_.Run();
  util::Payload served;
  ASSERT_TRUE(Absorbed(tier_->TierRead(
      0, key, [&](bool, util::Payload d) { served = std::move(d); }, {})));
  engine_.Run();
  ASSERT_TRUE(Absorbed(tier_->TierWriteBack(
      0, {{key, 2, {}}}, util::Payload::Copy(v2), [](bool) {}, {})));
  engine_.Run();
  EXPECT_EQ(served, v1) << "a rewrite changed bytes a reader already holds";
  util::Payload now;
  ASSERT_TRUE(Absorbed(tier_->TierRead(
      0, key, [&](bool, util::Payload d) { now = std::move(d); }, {})));
  engine_.Run();
  EXPECT_EQ(now, v2);
}

TEST_F(TierTest, InFlightSpillIsJoinableWithoutDuplicateFetch) {
  Build(1);
  const std::uint32_t pb = PageBytes();
  const cache::PageKey key{kVol, 5};
  const util::Bytes data = Pattern(pb, 9);

  // Stage an admission (clean spill): the entry is visible immediately but
  // its NVMe program has not landed yet.
  tier_->OnDiskRead(0, key, util::Payload::Copy(data));
  ASSERT_EQ(tier_->TotalFlashPages(), 1u);

  // A read arriving mid-spill must join the in-flight entry, not fall
  // through to disk.
  bool ok = false, fired = false;
  util::Bytes got;
  ASSERT_TRUE(Absorbed(tier_->TierRead(0, key,
                                      [&](bool r, util::Payload d) {
                                        ok = r;
                                        got = d.ToBytes();
                                        fired = true;
                                      },
                                      {})));
  EXPECT_EQ(tier_->stats().joins, 1u);
  engine_.Run();
  ASSERT_TRUE(fired);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
  EXPECT_EQ(backing_->reads(), 0u)
      << "the joined read must never touch the disk backing store";
}

TEST_F(TierTest, DeadBladeDirtyFlashFailsHonestlyAndResumesAfterRevival) {
  Build(2);
  const std::uint32_t pb = PageBytes();
  const cache::PageKey key{kVol, 2};
  const util::Bytes v = Pattern(pb, 42);
  bool absorbed = false;
  ASSERT_TRUE(Absorbed(tier_->TierWriteBack(
      0, {{key, 1, {}}}, util::Payload::Copy(v),
      [&](bool ok) { absorbed = ok; }, {})));
  engine_.Run();
  ASSERT_TRUE(absorbed);
  ASSERT_EQ(tier_->FlashDirtyPages(0), 1u);

  cluster_->FailController(0);
  cluster_->Recover();
  engine_.Run();

  // The only current copy sits in dead flash: reads must fail, not serve
  // the stale disk block, and the drain must not hang on the dead lane.
  bool ok = true, fired = false;
  ASSERT_TRUE(Absorbed(tier_->TierRead(1, key,
                                      [&](bool r, util::Payload) {
                                        ok = r;
                                        fired = true;
                                      },
                                      {})));
  engine_.Run();
  ASSERT_TRUE(fired);
  EXPECT_FALSE(ok);
  bool drained = false;
  tier_->DrainDirty([&](bool r) { drained = r; });
  engine_.Run();
  EXPECT_TRUE(drained) << "dead-lane dirty pages must not wedge the drain";
  EXPECT_EQ(tier_->FlashDirtyPages(0), 1u) << "flash is persistent";

  // Blade replaced: the dirty page is still in its flash and drains out.
  cluster_->ReviveController(0);
  cluster_->Recover();
  drained = false;
  tier_->DrainDirty([&](bool r) { drained = r; });
  engine_.Run();
  ASSERT_TRUE(drained);
  EXPECT_EQ(tier_->FlashDirtyPages(0), 0u);
  const std::size_t off = static_cast<std::size_t>(key.page) * pb;
  const util::Bytes disk(backing_->raw().begin() + off,
                         backing_->raw().begin() + off + pb);
  EXPECT_EQ(disk, v);
}

// --- mgmt: GET /tier ---------------------------------------------------------

TEST(TierMgmt, AdminHttpTierReport) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig cfg;
  cfg.controllers = 2;
  cfg.cache.node_capacity_pages = 16;
  cfg.tier.enabled = true;
  cfg.tier.flash_capacity_pages = 128;
  controller::StorageSystem system(engine, fabric, cfg);

  crypto::KeyStore keys(std::string_view("t"));
  security::AuthService auth(engine, keys);
  security::AuditLog audit(engine);
  mgmt::AlertManager alerts(engine);
  auth.AddUser("root", "pw", {"admin"});
  mgmt::AdminHttp admin(system, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  const auto get = [&](const std::string& path) {
    return admin.Handle("GET " + path + " HTTP/1.0\r\nAuthorization: " +
                        token + "\r\n\r\n");
  };

  // Push enough traffic through a small DRAM cache that spills happen.
  const net::NodeId h0 = system.AttachHost("h0");
  const controller::VolumeId vol = system.CreateVolume("v", 8 * util::MiB);
  util::Bytes buf(64 * util::KiB);
  for (std::uint64_t off = 0; off < 8 * util::MiB; off += buf.size()) {
    util::FillPattern(buf, off);
    bool ok = false;
    system.Write(h0, vol, off, util::Payload::Copy(buf),
                 [&](bool r) { ok = r; });
    engine.Run();
    ASSERT_TRUE(ok);
  }

  const auto r = get("/tier");
  ASSERT_EQ(r.status, 200);
  const std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"flash_capacity_pages\":128"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"blades\":["), std::string::npos);
  EXPECT_NE(body.find("\"heat_histogram\":["), std::string::npos);
  EXPECT_NE(body.find("\"writeback_absorbs\":"), std::string::npos);
  EXPECT_GT(system.tier()->stats().writeback_absorbs, 0u)
      << "the report should describe a tier that actually absorbed work";
}

TEST(TierMgmt, AdminHttpTierReportIs404WithoutTier) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig cfg;
  controller::StorageSystem system(engine, fabric, cfg);

  crypto::KeyStore keys(std::string_view("t"));
  security::AuthService auth(engine, keys);
  security::AuditLog audit(engine);
  mgmt::AlertManager alerts(engine);
  auth.AddUser("root", "pw", {"admin"});
  mgmt::AdminHttp admin(system, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  const auto r = admin.Handle("GET /tier HTTP/1.0\r\nAuthorization: " +
                              token + "\r\n\r\n");
  EXPECT_EQ(r.status, 404);
}

// --- Crash mid-spill: two identical runs, identical digests -------------------

std::uint32_t CrashMidSpillDigest() {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig cfg;
  cfg.controllers = 4;
  cfg.cache.node_capacity_pages = 64;
  cfg.tier.enabled = true;
  cfg.tier.flash_capacity_pages = 256;
  controller::StorageSystem system(engine, fabric, cfg);
  obs::Hub hub(engine);
  system.AttachObs(&hub);
  const net::NodeId h0 = system.AttachHost("h0");
  const controller::VolumeId vol = system.CreateVolume("v", 16 * util::MiB);

  // Dirty a multi-node working set, then start the flush and kill a blade
  // while its spills/demotions are in flight.
  util::Bytes buf(256 * util::KiB);
  for (std::uint64_t off = 0; off < 8 * util::MiB; off += buf.size()) {
    util::FillPattern(buf, off);
    bool ok = false;
    system.Write(h0, vol, off, util::Payload::Copy(buf),
                 [&](bool r) { ok = r; });
    engine.Run();
    EXPECT_TRUE(ok);
  }
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.ScheduleAt(engine.now() + 50 * util::kNsPerUs, [&] {
    system.FailController(1);
  });
  engine.Run();
  EXPECT_TRUE(flushed);
  system.ReviveController(1);
  bool drained = false;
  system.cache().FlushAll([&](bool) { drained = true; });
  engine.Run();
  EXPECT_TRUE(drained);

  // Read everything back; completion (not success) is asserted per-op, the
  // digest covers the exact outcome stream.
  for (std::uint64_t off = 0; off < 8 * util::MiB; off += buf.size()) {
    bool fired = false;
    system.Read(h0, vol, off, static_cast<std::uint32_t>(buf.size()),
                [&](bool, util::Payload) { fired = true; });
    engine.Run();
    EXPECT_TRUE(fired);
  }
  return hub.Digest();
}

TEST(TierCrash, CrashMidSpillRunsAreBitIdentical) {
  const std::uint64_t viol0 = TierViolations();
  const std::uint32_t a = CrashMidSpillDigest();
  const std::uint32_t b = CrashMidSpillDigest();
  EXPECT_EQ(a, b) << "a blade crash mid-spill must not introduce "
                     "nondeterminism";
  EXPECT_EQ(TierViolations(), viol0);
  if (check::kEnabled) {
    EXPECT_GT(check::Registry::Instance().evaluations(
                  check::Subsystem::kTier),
              0u);
  }
}

}  // namespace
}  // namespace nlss::tier
