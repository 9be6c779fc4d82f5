#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/backing.h"
#include "cache/cluster.h"
#include "check/race.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace nlss::cache {
namespace {

constexpr std::uint32_t kVol = 1;

class ClusterTest : public ::testing::Test {
 protected:
  void Build(std::size_t n_controllers, CacheCluster::Config config = {},
             std::uint64_t backing_blocks = 16384) {
    fabric_ = std::make_unique<net::Fabric>(engine_);
    std::vector<net::NodeId> nodes;
    for (std::size_t i = 0; i < n_controllers; ++i) {
      nodes.push_back(fabric_->AddNode("ctrl" + std::to_string(i)));
    }
    // Full mesh over the controller backplane.
    for (std::size_t i = 0; i < n_controllers; ++i) {
      for (std::size_t j = i + 1; j < n_controllers; ++j) {
        fabric_->Connect(nodes[i], nodes[j], net::LinkProfile::Backplane());
      }
    }
    cluster_ = std::make_unique<CacheCluster>(engine_, *fabric_, nodes, config);
    backing_ = std::make_unique<MemBacking>(engine_, backing_blocks);
    cluster_->RegisterVolume(kVol, backing_.get());
  }

  bool Write(ControllerId via, std::uint64_t offset, const util::Bytes& data) {
    bool ok = false, fired = false;
    cluster_->Write(via, kVol, offset, util::Payload::Copy(data), [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(ControllerId via, std::uint64_t offset,
                                    std::uint32_t len) {
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

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<CacheCluster> cluster_;
  std::unique_ptr<MemBacking> backing_;
};

TEST_F(ClusterTest, WriteReadRoundtripSameController) {
  Build(4);
  const auto data = Pattern(100000, 7);
  ASSERT_TRUE(Write(0, 5000, data));
  auto [ok, got] = Read(0, 5000, 100000);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ClusterTest, WriteVisibleFromEveryController) {
  Build(4);
  const auto data = Pattern(70000, 9);
  ASSERT_TRUE(Write(1, 0, data));
  for (ControllerId c = 0; c < 4; ++c) {
    auto [ok, got] = Read(c, 0, 70000);
    ASSERT_TRUE(ok) << "controller " << c;
    EXPECT_EQ(got, data) << "controller " << c;
  }
}

TEST_F(ClusterTest, SequentialWritesFromDifferentControllersCohere) {
  Build(3);
  const auto a = Pattern(64 * 1024, 1);
  const auto b = Pattern(64 * 1024, 2);
  ASSERT_TRUE(Write(0, 0, a));
  ASSERT_TRUE(Write(1, 0, b));  // must invalidate 0's copy
  auto [ok, got] = Read(2, 0, 64 * 1024);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, b);
  auto [ok0, got0] = Read(0, 0, 64 * 1024);
  ASSERT_TRUE(ok0);
  EXPECT_EQ(got0, b) << "controller 0 must not see its stale copy";
}

TEST_F(ClusterTest, PartialPageWriteMergesWithExisting) {
  Build(2);
  const auto base = Pattern(64 * 1024, 3);
  ASSERT_TRUE(Write(0, 0, base));
  const auto patch = Pattern(100, 4);
  ASSERT_TRUE(Write(1, 1000, patch));
  auto [ok, got] = Read(0, 0, 64 * 1024);
  ASSERT_TRUE(ok);
  util::Bytes expect = base;
  std::copy(patch.begin(), patch.end(), expect.begin() + 1000);
  EXPECT_EQ(got, expect);
}

TEST_F(ClusterTest, RewritesLeaveHandedOutPayloadsUntouched) {
  CacheCluster::Config config;
  config.replication = 2;
  config.flush_delay_ns = 100 * util::kNsPerMs;  // keep the replica pinned
  Build(2, config);
  const PageKey key{kVol, 0};
  const std::uint32_t page = 64 * 1024;
  const util::Bytes v1 = Pattern(page, 21);
  cluster_->Write(0, kVol, 0, util::Payload::Copy(v1), [](bool) {});
  engine_.RunFor(10 * util::kNsPerMs);
  util::Payload served;
  cluster_->Read(0, kVol, 0, page,
                 [&](bool, util::Payload d) { served = std::move(d); });
  engine_.RunFor(10 * util::kNsPerMs);
  const CacheNode::Frame* replica = cluster_->node(1).Find(key);
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(replica->is_replica);
  const util::Payload pinned = replica->data;

  // A full-page rewrite, then a partial one merged over it.
  const util::Bytes v2 = Pattern(page, 22);
  cluster_->Write(0, kVol, 0, util::Payload::Copy(v2), [](bool) {});
  engine_.RunFor(10 * util::kNsPerMs);
  util::Payload rewritten;
  cluster_->Read(0, kVol, 0, page,
                 [&](bool, util::Payload d) { rewritten = std::move(d); });
  engine_.RunFor(10 * util::kNsPerMs);
  const util::Bytes patch = Pattern(100, 23);
  cluster_->Write(0, kVol, 1000, util::Payload::Copy(patch), [](bool) {});
  engine_.Run();

  EXPECT_EQ(served, v1) << "a served frame changed under its reader";
  EXPECT_EQ(pinned, v1) << "a replica's old bytes changed under its holder";
  EXPECT_EQ(rewritten, v2) << "a partial write changed another holder";
  util::Bytes expect = v2;
  std::copy(patch.begin(), patch.end(), expect.begin() + 1000);
  EXPECT_EQ(Read(1, 0, page).second, expect);
  EXPECT_TRUE(
      std::equal(expect.begin(), expect.end(), backing_->raw().begin()));
}

TEST_F(ClusterTest, ReadMissGoesToBackingExactlyOnce) {
  Build(4);
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 5)));
  ASSERT_TRUE(FlushAll());
  const auto before = backing_->reads();
  auto r1 = Read(2, 0, 64 * 1024);
  ASSERT_TRUE(r1.first);
  // Controller 0 still caches the page -> served from peer cache, not disk.
  EXPECT_EQ(backing_->reads(), before)
      << "remote cache hit must not touch the backing store";
  auto r2 = Read(2, 0, 64 * 1024);
  ASSERT_TRUE(r2.first);
  EXPECT_EQ(backing_->reads(), before) << "local hit must not touch backing";
}

TEST_F(ClusterTest, HitClassificationStats) {
  Build(3);
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 6)));
  ASSERT_TRUE(FlushAll());
  // ctrl 0 holds the page; a read via ctrl1 is a remote hit, then local.
  Read(1, 0, 1024);
  EXPECT_EQ(cluster_->stats(1).remote_hits, 1u);
  Read(1, 0, 1024);
  EXPECT_EQ(cluster_->stats(1).local_hits, 1u);
  // An untouched page is a miss.
  Read(2, 10 * 64 * 1024, 1024);
  EXPECT_EQ(cluster_->stats(2).misses, 1u);
}

TEST_F(ClusterTest, WriteAckPrecedesDiskWrite) {
  Build(2);
  backing_->set_latency(10 * util::kNsPerMs);  // slow disk
  bool acked = false;
  const auto data = Pattern(64 * 1024, 8);
  cluster_->Write(0, kVol, 0, util::Payload::Copy(data),
                  [&](bool ok) { acked = ok; });
  // Run long enough for replication but shorter than the disk latency.
  engine_.RunFor(5 * util::kNsPerMs);
  EXPECT_TRUE(acked) << "write-back caching must ack before the disk write";
  EXPECT_EQ(backing_->writes(), 0u);
  engine_.Run();
  EXPECT_EQ(backing_->writes(), 1u) << "async flush must eventually land";
}

TEST_F(ClusterTest, FlushAllPersistsEverything) {
  Build(4);
  const auto d0 = Pattern(64 * 1024, 10);
  const auto d1 = Pattern(30000, 11);
  ASSERT_TRUE(Write(0, 0, d0));
  ASSERT_TRUE(Write(3, 200000, d1));
  ASSERT_TRUE(FlushAll());
  EXPECT_EQ(cluster_->DirtyPages(), 0u);
  // Verify backing content directly.
  EXPECT_TRUE(std::equal(d0.begin(), d0.end(), backing_->raw().begin()));
  EXPECT_TRUE(std::equal(d1.begin(), d1.end(),
                         backing_->raw().begin() + 200000));
}

TEST_F(ClusterTest, NWayReplicationPinsCopies) {
  CacheCluster::Config config;
  config.replication = 3;
  Build(4, config);
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 12)));
  // Before flush completes... count replica frames.  Write() ran the engine
  // to completion, so flush already landed and replicas were unpinned.
  // Use a slow backing to observe the pinned window instead.
  backing_->set_latency(50 * util::kNsPerMs);
  bool acked = false;
  cluster_->Write(1, kVol, 1 * 64 * 1024,
                  util::Payload::Copy(Pattern(64 * 1024, 13)),
                  [&](bool) { acked = true; });
  engine_.RunFor(10 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  std::size_t replicas = 0;
  for (ControllerId c = 0; c < 4; ++c) {
    cluster_->node(c).ForEach([&](const PageKey&, const CacheNode::Frame& f) {
      if (f.is_replica) ++replicas;
    });
  }
  EXPECT_EQ(replicas, 2u) << "N=3 means two pinned peer copies";
  engine_.Run();  // flush lands
  replicas = 0;
  for (ControllerId c = 0; c < 4; ++c) {
    cluster_->node(c).ForEach([&](const PageKey&, const CacheNode::Frame& f) {
      if (f.is_replica) ++replicas;
    });
  }
  EXPECT_EQ(replicas, 0u) << "replicas must be unpinned after the flush";
}

// A visitor that returns false ends CacheNode::ForEach, so the tier's victim
// scans stop at their cut-off: it sees exactly the first N frames, in LRU
// order.
TEST(CacheNode, StoppingVisitorSeesTheFirstFramesInLruOrder) {
  CacheNode node(16);
  for (std::uint64_t p = 0; p < 8; ++p) node.Emplace(PageKey{kVol, p});
  node.Touch(PageKey{kVol, 0});
  node.Touch(PageKey{kVol, 3});
  const std::vector<std::uint64_t> lru = {1, 2, 4, 5, 6, 7, 0, 3};
  std::vector<std::uint64_t> all;
  node.ForEach([&](const PageKey& key, const CacheNode::Frame&) {
    all.push_back(key.page);
  });
  ASSERT_EQ(all, lru);
  for (std::size_t n = 0; n <= lru.size(); ++n) {
    std::vector<std::uint64_t> seen;
    std::size_t calls = 0;
    node.ForEach([&](const PageKey& key, const CacheNode::Frame&) {
      ++calls;
      if (seen.size() == n) return false;
      seen.push_back(key.page);
      return true;
    });
    EXPECT_EQ(seen, std::vector<std::uint64_t>(lru.begin(), lru.begin() + n));
    EXPECT_EQ(calls, std::min(n + 1, lru.size())) << "walk past the stop";
  }
}

TEST_F(ClusterTest, DirtyDataSurvivesOwnerFailure) {
  CacheCluster::Config config;
  config.replication = 2;
  config.flush_delay_ns = 200 * util::kNsPerMs;  // flush never issues pre-crash
  Build(4, config);
  backing_->set_latency(100 * util::kNsPerMs);
  const auto data = Pattern(64 * 1024, 14);
  bool acked = false;
  cluster_->Write(0, kVol, 0, util::Payload::Copy(data),
                  [&](bool ok) { acked = ok; });
  engine_.RunFor(10 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  EXPECT_EQ(backing_->writes(), 0u);

  // Owner dies with the only primary copy of the dirty page.
  cluster_->FailController(0);
  cluster_->Recover();
  backing_->set_latency(0);
  ASSERT_TRUE(FlushAll());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), backing_->raw().begin()))
      << "the promoted replica must flush the acked write";
  // And the data must be readable through any surviving controller.
  auto [ok, got] = Read(2, 0, 64 * 1024);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ClusterTest, ReplicationOneLosesDataOnFailure) {
  CacheCluster::Config config;
  config.replication = 1;  // no peer copies: the paper's warning case
  config.flush_delay_ns = 100 * util::kNsPerMs;  // write-back aging window
  Build(3, config);
  backing_->set_latency(100 * util::kNsPerMs);
  const auto data = Pattern(64 * 1024, 15);
  bool acked = false;
  cluster_->Write(0, kVol, 0, util::Payload::Copy(data),
                  [&](bool ok) { acked = ok; });
  engine_.RunFor(10 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  cluster_->FailController(0);
  cluster_->Recover();
  backing_->set_latency(0);
  ASSERT_TRUE(FlushAll());
  // The write was acked but never hit disk and no replica existed.
  EXPECT_FALSE(std::equal(data.begin(), data.end(), backing_->raw().begin()))
      << "replication=1 cannot survive an owner failure";
}

TEST_F(ClusterTest, SurvivesNMinusOneFailures) {
  CacheCluster::Config config;
  config.replication = 3;
  config.flush_delay_ns = 500 * util::kNsPerMs;
  Build(5, config);
  backing_->set_latency(200 * util::kNsPerMs);
  const auto data = Pattern(64 * 1024, 16);
  bool acked = false;
  cluster_->Write(2, kVol, 0, util::Payload::Copy(data),
                  [&](bool ok) { acked = ok; });
  engine_.RunFor(20 * util::kNsPerMs);
  ASSERT_TRUE(acked);
  // Kill the owner and one replica holder (N-1 = 2 failures).
  cluster_->FailController(2);
  cluster_->FailController(3);
  cluster_->Recover();
  backing_->set_latency(0);
  ASSERT_TRUE(FlushAll());
  auto [ok, got] = Read(0, 0, 64 * 1024);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ClusterTest, EvictionWritesBackAndDataRemainsCorrect) {
  CacheCluster::Config config;
  config.node_capacity_pages = 8;  // tiny caches force constant eviction
  Build(2, config);
  // Write 64 pages (4 MiB), far beyond the 16-page pooled capacity.
  for (std::uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(Write(p % 2, p * 64 * 1024, Pattern(64 * 1024, 100 + p)));
  }
  ASSERT_TRUE(FlushAll());
  EXPECT_GT(cluster_->Totals().evictions, 0u);
  for (std::uint64_t p = 0; p < 64; ++p) {
    auto [ok, got] = Read((p + 1) % 2, p * 64 * 1024, 64 * 1024);
    ASSERT_TRUE(ok) << "page " << p;
    EXPECT_TRUE(util::CheckPattern(got, 100 + p)) << "page " << p;
  }
}

TEST_F(ClusterTest, PooledCacheExceedsSingleNodeCapacity) {
  CacheCluster::Config config;
  config.node_capacity_pages = 8;
  Build(4, config);
  // Read 24 distinct pages through different controllers: the pool (32
  // pages) holds them even though one node (8 pages) could not.
  for (std::uint64_t p = 0; p < 24; ++p) {
    ASSERT_TRUE(Write(p % 4, p * 64 * 1024, Pattern(64 * 1024, p)));
  }
  ASSERT_TRUE(FlushAll());
  EXPECT_GT(cluster_->CachedPages(), config.node_capacity_pages);
  const auto before = backing_->reads();
  for (std::uint64_t p = 0; p < 24; ++p) {
    auto [ok, got] = Read(p % 4, p * 64 * 1024, 1024);
    ASSERT_TRUE(ok);
  }
  EXPECT_EQ(backing_->reads(), before)
      << "the whole working set fits in the pooled cache";
}

TEST_F(ClusterTest, RandomizedCoherenceAgainstFlatModel) {
  CacheCluster::Config config;
  config.node_capacity_pages = 16;
  Build(4, config);
  util::Rng rng(777);
  const std::uint64_t span = 48 * 64 * 1024;  // 48 pages, > pool capacity
  util::Bytes model(span, 0);
  for (int op = 0; op < 300; ++op) {
    const ControllerId via = static_cast<ControllerId>(rng.Below(4));
    const std::uint64_t off = rng.Below(span - 1);
    const std::uint32_t len = static_cast<std::uint32_t>(
        rng.Range(1, std::min<std::uint64_t>(span - off, 200000)));
    if (rng.Chance(0.5)) {
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      ASSERT_TRUE(Write(via, off, data)) << "op " << op;
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
    } else {
      auto [ok, got] = Read(via, off, len);
      ASSERT_TRUE(ok) << "op " << op;
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "coherence violation at op " << op << " off " << off;
    }
  }
  ASSERT_TRUE(FlushAll());
  EXPECT_TRUE(std::equal(model.begin(), model.end(), backing_->raw().begin()));
}

TEST_F(ClusterTest, ConcurrentMixedOpsEventuallyConsistent) {
  // Issue overlapping reads/writes without draining the engine in between:
  // exercises directory-entry queueing.  This input is DELIBERATELY racy —
  // four unrelated hosts write the same page concurrently, so which write
  // wins is a function of queue order.  Pin a non-aborting race detector:
  // the raciness is the fixture, and the detector seeing it through the
  // full stack is part of what this test asserts.  The oracle below checks
  // coherence (all controllers agree), which holds in ANY order.
  Build(4);
  check::RaceDetector det;
  det.set_report_violations(false);
  engine_.AttachRaceDetector(&det);
  const std::uint32_t page = 64 * 1024;
  for (int round = 0; round < 10; ++round) {
    for (ControllerId c = 0; c < 4; ++c) {
      cluster_->Write(c, kVol, 0,
                      util::Payload::Copy(Pattern(page, 1000 + round * 4 + c)),
                      [](bool) {});
      cluster_->Read(c, kVol, 0, page, [](bool, util::Payload) {});
    }
  }
  engine_.Run();
#if NLSS_INVARIANTS_ENABLED
  EXPECT_FALSE(det.conflicts().empty())
      << "unrelated same-page writes must be visible to the race detector";
#endif
  engine_.AttachRaceDetector(nullptr);  // flush/readback below is race-free
  ASSERT_TRUE(FlushAll());
  // Directory serialization means the last-acquired write wins; all
  // controllers must agree on whatever that was.
  auto [ok0, got0] = Read(0, 0, page);
  ASSERT_TRUE(ok0);
  for (ControllerId c = 1; c < 4; ++c) {
    auto [ok, got] = Read(c, 0, page);
    ASSERT_TRUE(ok);
    EXPECT_EQ(got, got0);
  }
}

TEST_F(ClusterTest, ReadMissRacingOwnWriteKeepsTheWrite) {
  // A write and a read of one page enter blade 0 in the same tick, so the
  // read misses locally and queues at the home behind the write.  When the
  // read is served, blade 0 owns the only current copy; fetching from the
  // backing store instead would install stale bytes over the dirty frame
  // and lose the acknowledged write.  Which request the directory serves
  // first may decide what the read returns, never whether the write
  // survives, so the input is deliberately racy: pin a non-reporting
  // detector.  Pages cover both homes.
  const std::uint32_t page = 64 * 1024;
  for (const sim::Tick delay :
       {sim::Tick{0}, util::kNsPerMs, 20 * util::kNsPerMs,
        200 * util::kNsPerMs}) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      SCOPED_TRACE(testing::Message() << "page " << p << " flush delay "
                                      << delay);
      CacheCluster::Config config;
      config.flush_delay_ns = delay;
      Build(2, config);
      check::RaceDetector det;
      det.set_report_violations(false);
      engine_.AttachRaceDetector(&det);
      const util::Bytes data = Pattern(page, 500 + p);
      bool acked = false;
      bool read_ok = false;
      util::Bytes seen;
      cluster_->Write(0, kVol, p * page, util::Payload::Copy(data),
                      [&](bool ok) { acked = ok; });
      cluster_->Read(0, kVol, p * page, page, [&](bool ok, util::Payload d) {
        read_ok = ok;
        seen = d.ToBytes();
      });
      engine_.Run();
      engine_.AttachRaceDetector(nullptr);
      ASSERT_TRUE(acked);
      ASSERT_TRUE(read_ok);
      EXPECT_TRUE(seen == data || seen == util::Bytes(page, 0));
      for (ControllerId c = 0; c < 2; ++c) {
        auto [ok, got] = Read(c, p * page, page);
        ASSERT_TRUE(ok);
        EXPECT_EQ(got, data) << "acknowledged write lost, read via " << c;
      }
      ASSERT_TRUE(FlushAll());
      EXPECT_TRUE(std::equal(
          data.begin(), data.end(),
          backing_->raw().begin() + static_cast<std::ptrdiff_t>(p * page)));
    }
  }
}

TEST_F(ClusterTest, ReplicationClampsToLiveControllers) {
  CacheCluster::Config config;
  config.replication = 8;  // more than the cluster size
  Build(3, config);
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 20))) << "must clamp, not hang";
}

TEST_F(ClusterTest, FailedControllerRejectsIo) {
  Build(3);
  cluster_->FailController(1);
  cluster_->Recover();
  bool ok = true;
  cluster_->Write(1, kVol, 0, util::Payload::Copy(Pattern(1024, 1)),
                  [&](bool r) { ok = r; });
  engine_.Run();
  EXPECT_FALSE(ok);
  // Other controllers still work.
  EXPECT_TRUE(Write(0, 0, Pattern(1024, 2)));
}

TEST_F(ClusterTest, RetentionPriorityOverridesLru) {
  // Paper §4: per-file metadata can "override cache retention priorities".
  CacheCluster::Config config;
  config.node_capacity_pages = 4;
  Build(1, config);
  // Write a high-priority page first (it becomes the LRU candidate)...
  bool ok = false;
  cluster_->Write(0, kVol, 0, util::Payload::Copy(Pattern(64 * 1024, 1)),
                  [&](bool r) { ok = r; }, /*priority=*/5);
  engine_.Run();
  ASSERT_TRUE(ok);
  ASSERT_TRUE(FlushAll());
  // ...then stream enough priority-0 pages to force evictions.
  for (std::uint64_t p = 1; p <= 12; ++p) {
    Read(0, p * 64 * 1024, 1024);
  }
  // The high-priority page must still be resident: reading it causes no
  // new backing read.
  const auto before = backing_->reads();
  auto [ok2, got] = Read(0, 0, 1024);
  ASSERT_TRUE(ok2);
  EXPECT_EQ(backing_->reads(), before)
      << "high-priority page must survive LRU pressure";
  EXPECT_GT(cluster_->Totals().evictions, 0u);
}

TEST_F(ClusterTest, PriorityRaisedByLaterAccess) {
  CacheCluster::Config config;
  config.node_capacity_pages = 4;
  Build(1, config);
  // Install at priority 0, then read at priority 3: max wins.
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 1)));
  ASSERT_TRUE(FlushAll());
  bool ok = false;
  cluster_->Read(0, kVol, 0, 1024,
                 [&](bool r, util::Payload) { ok = r; }, /*priority=*/3);
  engine_.Run();
  ASSERT_TRUE(ok);
  const CacheNode::Frame* f = cluster_->node(0).Find(PageKey{kVol, 0});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->priority, 3);
}

TEST_F(ClusterTest, HotPageStaysCachedUnderLru) {
  CacheCluster::Config config;
  config.node_capacity_pages = 4;
  Build(1, config);
  ASSERT_TRUE(Write(0, 0, Pattern(64 * 1024, 30)));
  ASSERT_TRUE(FlushAll());
  const auto before = backing_->reads();
  // Touch the hot page between streams of cold pages.
  for (std::uint64_t p = 1; p < 20; ++p) {
    Read(0, p * 64 * 1024, 1024);
    Read(0, 0, 1024);  // keep page 0 hot
  }
  const auto cold_reads = backing_->reads() - before;
  // Page 0 must never have been refetched: every cold page missed once.
  EXPECT_EQ(cold_reads, 19u);
}

}  // namespace
}  // namespace nlss::cache
