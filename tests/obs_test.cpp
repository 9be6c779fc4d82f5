#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/hub.h"
#include "proto/block_target.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/bytes.h"

namespace nlss::obs {
namespace {

TEST(Tracer, SamplingDecisionsAreSeedDeterministic) {
  sim::Engine e1, e2;
  Tracer::Config cfg;
  cfg.sample_rate = 0.5;
  cfg.seed = 42;
  Tracer t1(e1, cfg);
  Tracer t2(e2, cfg);
  std::vector<bool> d1, d2;
  for (int i = 0; i < 200; ++i) {
    const TraceContext c1 = t1.StartTrace(Layer::kProto, "op");
    const TraceContext c2 = t2.StartTrace(Layer::kProto, "op");
    d1.push_back(c1.sampled());
    d2.push_back(c2.sampled());
    if (c1.sampled()) t1.EndTrace(c1, true);
    if (c2.sampled()) t2.EndTrace(c2, true);
  }
  EXPECT_EQ(d1, d2);
  // At rate 0.5 the sampler admits some but not all traces.
  EXPECT_GT(t1.sampled(), 0u);
  EXPECT_LT(t1.sampled(), 200u);
  EXPECT_EQ(t1.started(), 200u);
}

TEST(Tracer, RateZeroIsInertAndRateOneSamplesEverything) {
  sim::Engine engine;
  Tracer::Config off;
  off.sample_rate = 0.0;
  Tracer none(engine, off);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(none.StartTrace(Layer::kProto, "op").sampled());
  }
  EXPECT_EQ(none.sampled(), 0u);

  Tracer all(engine);  // default config: rate 1.0
  for (int i = 0; i < 16; ++i) {
    const TraceContext ctx = all.StartTrace(Layer::kProto, "op");
    EXPECT_TRUE(ctx.sampled());
    all.EndTrace(ctx, true);
  }
  EXPECT_EQ(all.sampled(), 16u);
}

TEST(Tracer, InertContextOperationsAreNoOps) {
  const TraceContext inert;
  EXPECT_FALSE(inert.sampled());
  const TraceContext child = StartSpan(inert, Layer::kDisk, "disk.read");
  EXPECT_FALSE(child.sampled());
  EndSpan(child);          // must not crash
  Annotate(child, "note");  // must not crash
}

TEST(Tracer, CriticalPathAttributesExclusiveTime) {
  // root(controller) [0,100) > net [10,30), disk [30,80).
  std::vector<Span> spans;
  spans.push_back({1, 0, Layer::kController, "root", "", 0, 100});
  spans.push_back({2, 1, Layer::kNet, "net.send", "", 10, 30});
  spans.push_back({3, 1, Layer::kDisk, "disk.read", "", 30, 80});
  const Breakdown b = AnalyzeCriticalPath(spans);
  EXPECT_EQ(b.total, 100u);
  EXPECT_EQ(b.of(Layer::kNet), 20u);
  EXPECT_EQ(b.of(Layer::kDisk), 50u);
  EXPECT_EQ(b.of(Layer::kController), 30u);  // 100 minus covered [10,80)
  EXPECT_EQ(b.SelfSum(), b.total);
}

TEST(Tracer, CriticalPathClampsChildrenAndOverlaps) {
  // Child spans that overlap each other and spill past the root are
  // clamped: self times still sum exactly to the root duration.
  std::vector<Span> spans;
  spans.push_back({1, 0, Layer::kController, "root", "", 50, 150});
  spans.push_back({2, 1, Layer::kNet, "a", "", 40, 120});    // clamps to 50
  spans.push_back({3, 1, Layer::kDisk, "b", "", 100, 200});  // clamps to 150
  spans.push_back({4, 2, Layer::kRaid, "c", "", 60, 80});    // nested in a
  const Breakdown b = AnalyzeCriticalPath(spans);
  EXPECT_EQ(b.total, 100u);
  EXPECT_EQ(b.SelfSum(), b.total);
  EXPECT_EQ(b.of(Layer::kRaid), 20u);
  EXPECT_EQ(b.of(Layer::kNet), 30u);   // [50,120) minus [60,80) and overlap
  EXPECT_EQ(b.of(Layer::kDisk), 50u);  // sibling overlap goes to the newer b
  EXPECT_EQ(b.of(Layer::kController), 0u);  // fully covered by children
}

TEST(Tracer, TopKRetainsSlowestTracesInOrder) {
  sim::Engine engine;
  Tracer::Config cfg;
  cfg.keep_slowest = 2;
  Tracer tracer(engine, cfg);

  const auto run = [&](sim::Tick duration) {
    const TraceContext ctx = tracer.StartTrace(Layer::kProto, "op");
    engine.Schedule(duration, [] {});
    engine.Run();
    tracer.EndTrace(ctx, true);
  };
  run(100);
  run(300);
  run(200);

  ASSERT_EQ(tracer.slowest().size(), 2u);
  EXPECT_EQ(tracer.slowest()[0].duration(), 300u);
  EXPECT_EQ(tracer.slowest()[1].duration(), 200u);
  EXPECT_EQ(tracer.finished(), 3u);
  // The aggregate still folds in the evicted trace.
  EXPECT_EQ(tracer.aggregate().total, 600u);
}

// The retained set is exactly the K first traces of a full sort by
// (duration descending, id ascending), whatever order they finish in —
// ties included, and nothing at K = 0, while the recent ring still fills.
TEST(Tracer, TopKMatchesAFullSortWithTies) {
  for (const std::size_t k : {0, 1, 3, 16}) {
    sim::Engine engine;
    Tracer::Config cfg;
    cfg.keep_slowest = k;
    cfg.keep_recent = 4;
    Tracer tracer(engine, cfg);

    // Start 24 traces at tick 0, then end them in a scrambled order,
    // three per tick, so equal durations must be ordered by id.
    std::vector<TraceContext> open;
    for (int i = 0; i < 24; ++i) {
      open.push_back(tracer.StartTrace(Layer::kProto, "op"));
    }
    std::vector<std::pair<sim::Tick, TraceId>> all;  // (duration, id)
    for (int i = 0; i < 24; ++i) {
      if (i % 3 == 0) {
        engine.Schedule(10, [] {});
        engine.Run();
      }
      const TraceContext& ctx = open[(i * 7) % 24];
      tracer.EndTrace(ctx, true);
      all.emplace_back(engine.now(), ctx.trace);
    }
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    const std::size_t kept = std::min(k, all.size());
    ASSERT_EQ(tracer.slowest().size(), kept) << "k=" << k;
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(tracer.slowest()[i].duration(), all[i].first) << "k=" << k;
      EXPECT_EQ(tracer.slowest()[i].id, all[i].second) << "k=" << k;
    }
    EXPECT_EQ(tracer.recent().size(), 4u) << "k=" << k;
    EXPECT_EQ(tracer.finished(), 24u);
  }
}

TEST(Tracer, AnnotationsAndTenantStick) {
  sim::Engine engine;
  Tracer tracer(engine);
  const TraceContext root = tracer.StartTrace(Layer::kProto, "op");
  const TraceContext child = tracer.StartSpan(root, Layer::kCache, "cache.page");
  tracer.Annotate(child, "miss");
  tracer.Annotate(child, "readahead");
  tracer.SetTenant(root, "lab-a");
  tracer.EndSpan(child);
  tracer.EndTrace(root, true);

  ASSERT_EQ(tracer.slowest().size(), 1u);
  const FinishedTrace& t = tracer.slowest()[0];
  EXPECT_EQ(t.tenant, "lab-a");
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[1].note, "miss,readahead");
  EXPECT_EQ(t.spans[1].parent, t.spans[0].id);
}

TEST(Registry, PrometheusTextIsWellFormedAndSorted) {
  Registry reg;
  reg.counter("zzz_ops_total", "Ops").Increment(3);
  reg.gauge("aaa_depth", "Depth").Set(1.5);
  reg.histogram("mid_latency_ns", "Latency").Record(1000);
  reg.AddCallback("cb_value", "Callback", [] { return 7.0; });
  const std::string text = reg.PrometheusText();

  EXPECT_NE(text.find("# HELP zzz_ops_total Ops\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zzz_ops_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("zzz_ops_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("aaa_depth 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("cb_value 7\n"), std::string::npos);
  EXPECT_NE(text.find("mid_latency_ns_count 1\n"), std::string::npos);
  // Deterministic: names render in sorted order.
  EXPECT_LT(text.find("aaa_depth"), text.find("cb_value"));
  EXPECT_LT(text.find("cb_value"), text.find("mid_latency_ns"));
  EXPECT_LT(text.find("mid_latency_ns"), text.find("zzz_ops_total"));
  // Same instruments returned on re-lookup, not duplicated.
  reg.counter("zzz_ops_total", "Ops").Increment();
  EXPECT_EQ(reg.counter("zzz_ops_total", "Ops").value(), 4u);
}

TEST(Registry, LabelSetsRenderAsSeriesUnderOneFamily) {
  Registry reg;
  // Flat series and two labelled series of the same family coexist.
  reg.counter("nlss_qos_ops_total", "QoS ops").Increment(5);
  reg.counter("nlss_qos_ops_total", "QoS ops", {{"tenant", "lab-b"}})
      .Increment(2);
  reg.counter("nlss_qos_ops_total", "QoS ops", {{"tenant", "lab-a"}})
      .Increment(3);
  const std::string text = reg.PrometheusText();

  // One HELP/TYPE for the family, then every series.
  EXPECT_EQ(text.find("# HELP nlss_qos_ops_total"),
            text.rfind("# HELP nlss_qos_ops_total"));
  EXPECT_NE(text.find("nlss_qos_ops_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("nlss_qos_ops_total{tenant=\"lab-a\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("nlss_qos_ops_total{tenant=\"lab-b\"} 2\n"),
            std::string::npos);
  // Series order is deterministic: flat first, then label-sorted.
  EXPECT_LT(text.find("nlss_qos_ops_total 5"),
            text.find("nlss_qos_ops_total{tenant=\"lab-a\"}"));
  EXPECT_LT(text.find("tenant=\"lab-a\""), text.find("tenant=\"lab-b\""));

  // Label keys render canonically sorted regardless of insertion order.
  reg.gauge("multi", "m", {{"b", "2"}, {"a", "1"}}).Set(9);
  EXPECT_NE(reg.PrometheusText().find("multi{a=\"1\",b=\"2\"} 9\n"),
            std::string::npos);
  // Re-lookup with the same labels returns the same instrument.
  reg.counter("nlss_qos_ops_total", "QoS ops", {{"tenant", "lab-a"}})
      .Increment();
  EXPECT_EQ(reg.counter("nlss_qos_ops_total", "QoS ops", {{"tenant", "lab-a"}})
                .value(),
            4u);

  // Labelled histograms carry the labels through quantile/sum/count rows.
  reg.histogram("lat_ns", "Latency", {{"host", "h0"}}).Record(1000);
  const std::string t2 = reg.PrometheusText();
  EXPECT_NE(t2.find("lat_ns_count{host=\"h0\"} 1\n"), std::string::npos);
  EXPECT_NE(t2.find("quantile=\"0.5\""), std::string::npos);
}

TEST(Tracer, RecentRingKeepsLatestTraces) {
  sim::Engine engine;
  Tracer::Config cfg;
  cfg.keep_slowest = 4;
  cfg.keep_recent = 3;
  Tracer tracer(engine, cfg);
  for (int i = 0; i < 10; ++i) {
    const TraceContext c =
        tracer.StartTrace(Layer::kHost, "op" + std::to_string(i));
    engine.Schedule(10, [] {});
    engine.Run();
    tracer.EndTrace(c, true);
  }
  ASSERT_EQ(tracer.recent().size(), 3u);
  // Oldest-first ring of the last three finished traces.
  EXPECT_EQ(tracer.recent()[0].name, "op7");
  EXPECT_EQ(tracer.recent()[2].name, "op9");
  // The ring is part of the deterministic dump (digest input).
  EXPECT_NE(tracer.Dump().find("recent:"), std::string::npos);
  EXPECT_NE(tracer.Dump().find("op9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance: a traced cache-miss read produces a span tree covering
// proto -> controller -> qos -> cache -> raid -> disk whose per-layer self
// times sum exactly to the end-to-end latency.
// ---------------------------------------------------------------------------

TEST(ObsEndToEnd, CacheMissReadSpanTreeCoversEveryLayer) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.disk_profile.capacity_blocks = 16 * 1024;
  controller::StorageSystem system(engine, fabric, config);
  const net::NodeId host = system.AttachHost("client");

  qos::TenantRegistry registry;
  registry.Register("lab-a", qos::ServiceClass::kGold);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);

  Hub hub(engine);  // sample rate 1.0
  system.AttachObs(&hub);

  crypto::KeyStore keys{std::string_view("m")};
  security::AuthService auth(engine, keys);
  security::AuditLog audit(engine);
  security::LunMasking mask;
  security::CommandPolicy policy;
  auth.AddUser("alice", "pw", {"reader", "writer"});
  proto::BlockTarget target(system, auth, mask, policy, audit);
  target.AttachQos(&registry);
  target.AttachObs(&hub);

  const auto vol = system.CreateVolume("lab-a", 16 * util::MiB);
  mask.Allow("host-a", vol);
  const auto session = target.Login(host, "host-a", "alice", "pw");
  ASSERT_TRUE(session.has_value());

  // Seed data, push it to disk, and drop the caches so the traced read
  // must run the full miss path down to the disks.
  util::Bytes data(64 * util::KiB);
  util::FillPattern(data, 1);
  proto::BlockStatus wst = proto::BlockStatus::kIoError;
  target.Write(*session, vol, 0, data, [&](proto::BlockStatus s) { wst = s; });
  engine.Run();
  ASSERT_EQ(wst, proto::BlockStatus::kOk);
  bool flushed = false;
  system.cache().FlushAll([&](bool) { flushed = true; });
  engine.Run();
  ASSERT_TRUE(flushed);
  for (std::uint32_t c = 0; c < system.controller_count(); ++c) {
    system.cache().node(c).Clear();
  }
  system.cache().Recover();

  const sim::Tick issued = engine.now();
  proto::BlockStatus rst = proto::BlockStatus::kIoError;
  sim::Tick completed = 0;
  target.Read(*session, vol, 0, 16,
              [&](proto::BlockStatus s, util::Bytes, std::uint32_t) {
                rst = s;
                completed = engine.now();
              });
  engine.Run();
  ASSERT_EQ(rst, proto::BlockStatus::kOk);

  // Find the finished read trace.
  const FinishedTrace* read_trace = nullptr;
  for (const FinishedTrace& t : hub.tracer().slowest()) {
    if (t.name == "proto.block.read") read_trace = &t;
  }
  ASSERT_NE(read_trace, nullptr);
  EXPECT_TRUE(read_trace->ok);
  EXPECT_EQ(read_trace->tenant, "lab-a");

  // The span tree covers every layer of the miss path.
  bool saw[kLayerCount] = {};
  for (const Span& s : read_trace->spans) {
    saw[static_cast<int>(s.layer)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(Layer::kProto)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kController)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kQos)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kCache)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kNet)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kRaid)]);
  EXPECT_TRUE(saw[static_cast<int>(Layer::kDisk)]);

  // The cache recorded the miss on the page span.
  bool miss_noted = false;
  for (const Span& s : read_trace->spans) {
    if (s.name == "cache.page" && s.note.find("miss") != std::string::npos) {
      miss_noted = true;
    }
  }
  EXPECT_TRUE(miss_noted);

  // DES timestamps: the trace brackets the observed request exactly, and
  // the per-layer self times sum to the end-to-end latency.
  EXPECT_EQ(read_trace->start, issued);
  EXPECT_EQ(read_trace->end, completed);
  EXPECT_GT(read_trace->duration(), 0u);
  EXPECT_EQ(read_trace->breakdown.SelfSum(), read_trace->duration());
  EXPECT_GT(read_trace->breakdown.disk(), 0u);
  EXPECT_GT(read_trace->breakdown.queue_wait() +
                read_trace->breakdown.service() +
                read_trace->breakdown.network(),
            0u);

  // Metrics flowed through the attached instruments.
  const std::string metrics = hub.metrics().PrometheusText();
  EXPECT_NE(metrics.find("nlss_proto_block_reads_total 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("nlss_proto_block_writes_total 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("nlss_controller_read_latency_ns_count 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("nlss_cache_misses_total"), std::string::npos);
  EXPECT_NE(metrics.find("nlss_qos_ops_total"), std::string::npos);
}

}  // namespace
}  // namespace nlss::obs
