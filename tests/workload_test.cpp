// Trace-shaped workload subsystem (E17): generator determinism, the
// open-burst batched prefetcher, the small-write flush coalescer
// (merge correctness + flush ordering under rewrite), crash-mid-burst
// digest determinism, and per-tenant QoS caps under a metadata storm.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/backing.h"
#include "cache/cluster.h"
#include "controller/system.h"
#include "host/initiator.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "workload/workload.h"

namespace nlss::workload {
namespace {

util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
  util::Bytes b(n);
  util::FillPattern(b, seed);
  return b;
}

bool SameOps(const Trace& a, const Trace& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const TraceOp& x = a.ops[i];
    const TraceOp& y = b.ops[i];
    if (x.at != y.at || x.host != y.host || x.kind != y.kind ||
        x.file != y.file || x.offset != y.offset || x.length != y.length) {
      return false;
    }
  }
  return true;
}

// --- Generators --------------------------------------------------------------

TEST(WorkloadGenerators, SameSeedSameTrace) {
  const FileSet fs{0, 64, 4 * util::KiB};
  StormSpec storm{fs, 3, 200};
  IngestSpec ingest{fs, 3, 100};
  BroadcastSpec bc{fs, 3, 100};
  BurstSpec burst{FileSet{0, 3, 256 * util::KiB}, 3, 64 * util::KiB};
  EXPECT_TRUE(SameOps(MetadataStorm(storm, 42), MetadataStorm(storm, 42)));
  EXPECT_TRUE(SameOps(SmallFileIngest(ingest, 42),
                      SmallFileIngest(ingest, 42)));
  EXPECT_TRUE(SameOps(SharedLibBroadcast(bc, 42),
                      SharedLibBroadcast(bc, 42)));
  EXPECT_TRUE(SameOps(CheckpointBurst(burst, 42),
                      CheckpointBurst(burst, 42)));
  // Seeds drive the jitter / popularity draws, so traces must differ.
  EXPECT_FALSE(SameOps(MetadataStorm(storm, 42), MetadataStorm(storm, 43)));
  EXPECT_FALSE(SameOps(SharedLibBroadcast(bc, 42),
                       SharedLibBroadcast(bc, 43)));
}

TEST(WorkloadGenerators, ShapesAreWellFormed) {
  const FileSet fs{0, 64, 4 * util::KiB};
  const Trace storm = MetadataStorm(StormSpec{fs, 4, 300}, 7);
  EXPECT_EQ(storm.ops.size(), 4u * 300u);
  for (const TraceOp& op : storm.ops) {
    EXPECT_EQ(op.kind, TraceOp::Kind::kOpen);
    EXPECT_LT(op.file, fs.count);
  }

  // Ingest streams stay inside each host's partition.
  const Trace ingest = SmallFileIngest(IngestSpec{fs, 4, 50}, 7);
  const std::uint64_t partition = (fs.count / 4) * fs.file_bytes;
  for (const TraceOp& op : ingest.ops) {
    const std::uint64_t pos = fs.OffsetOf(op.file) + op.offset;
    EXPECT_GE(pos, op.host * partition);
    EXPECT_LT(pos + op.length, (op.host + 1) * partition + fs.file_bytes);
  }

  // A checkpoint covers its host's file exactly once, in order.
  const FileSet ck{0, 4, 512 * util::KiB};
  const Trace burst = CheckpointBurst(BurstSpec{ck, 4, 128 * util::KiB}, 7);
  std::vector<std::uint64_t> covered(4, 0);
  for (const TraceOp& op : burst.ops) {
    EXPECT_EQ(op.file, op.host);
    EXPECT_EQ(op.offset, covered[op.host]);
    covered[op.host] += op.length;
  }
  for (std::uint64_t c : covered) EXPECT_EQ(c, ck.file_bytes);
}

// --- Flush coalescer (direct CacheCluster) -----------------------------------

struct CoalesceRun {
  std::uint64_t backing_writes = 0;
  std::uint64_t coalesced_runs = 0;
  util::Bytes image;
};

// Dirty `pages` adjacent pages on ONE controller (blade affinity is what
// the coalescer needs), drain, and report how the flush hit the backing.
CoalesceRun RunAdjacentDirty(std::uint32_t coalesce_pages,
                             std::uint32_t pages) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  std::vector<net::NodeId> nodes{fabric.AddNode("ctrl0")};
  cache::CacheCluster::Config config;
  config.replication = 1;
  config.flush_delay_ns = 5 * util::kNsPerMs;
  config.coalesce_pages = coalesce_pages;
  cache::CacheCluster cluster(engine, fabric, nodes, config);
  cache::MemBacking backing(engine, 4096);
  cluster.RegisterVolume(1, &backing);

  // Issue every write before draining so the whole span is dirty when the
  // aged flush fires — the coalescer's raw material.
  const std::uint32_t page = config.page_bytes;
  for (std::uint32_t p = 0; p < pages; ++p) {
    cluster.Write(0, 1, static_cast<std::uint64_t>(p) * page,
                  util::Payload::Copy(Pattern(page, 100 + p)),
                  [](bool ok) { EXPECT_TRUE(ok); },
                  /*priority=*/0, {}, cache::WriteId{1, p + 1});
  }
  engine.Run();
  bool flushed = false;
  cluster.FlushAll([&](bool ok) { flushed = ok; });
  engine.Run();
  EXPECT_TRUE(flushed);

  CoalesceRun out;
  out.backing_writes = backing.writes();
  out.coalesced_runs = cluster.Totals().coalesced_runs;
  out.image.assign(backing.raw().begin(),
                   backing.raw().begin() + pages * page);
  return out;
}

TEST(FlushCoalescer, MergesAdjacentDirtyPages) {
  const CoalesceRun plain = RunAdjacentDirty(/*coalesce_pages=*/1, 16);
  const CoalesceRun coal = RunAdjacentDirty(/*coalesce_pages=*/8, 16);
  EXPECT_EQ(plain.backing_writes, 16u) << "per-page flush writes every page";
  EXPECT_EQ(plain.coalesced_runs, 0u);
  EXPECT_LE(coal.backing_writes, 4u)
      << "16 adjacent dirty pages at coalesce=8 should flush in a few runs";
  EXPECT_GT(coal.coalesced_runs, 0u);
  EXPECT_EQ(plain.image, coal.image)
      << "coalescing must not change what reaches the backing store";
  for (std::uint32_t p = 0; p < 16; ++p) {
    util::Bytes got(coal.image.begin() + p * 64 * util::KiB,
                    coal.image.begin() + (p + 1) * 64 * util::KiB);
    EXPECT_TRUE(util::CheckPattern(got, 100 + p)) << "page " << p;
  }
}

TEST(FlushCoalescer, RewriteDuringInFlightRunReachesBacking) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  std::vector<net::NodeId> nodes{fabric.AddNode("ctrl0")};
  cache::CacheCluster::Config config;
  config.replication = 1;
  config.flush_delay_ns = 2 * util::kNsPerMs;
  config.coalesce_pages = 8;
  cache::CacheCluster cluster(engine, fabric, nodes, config);
  cache::MemBacking backing(engine, 4096);
  backing.set_latency(20 * util::kNsPerMs);  // flush runs stay in flight
  cluster.RegisterVolume(1, &backing);

  const std::uint32_t page = config.page_bytes;
  for (std::uint32_t p = 0; p < 8; ++p) {
    cluster.Write(0, 1, static_cast<std::uint64_t>(p) * page,
                  util::Payload::Copy(Pattern(page, 200 + p)), [](bool) {},
                  /*priority=*/0, {}, cache::WriteId{1, p + 1});
  }
  // Let the aged flush issue its coalesced run (in flight for 20 ms), then
  // rewrite a page in the middle of that run before it lands.
  engine.RunFor(5 * util::kNsPerMs);
  const util::Bytes rewrite = Pattern(page, 999);
  bool acked = false;
  cluster.Write(0, 1, 3ull * page, util::Payload::Copy(rewrite),
                [&](bool ok) { acked = ok; },
                /*priority=*/0, {}, cache::WriteId{1, 9});
  engine.Run();
  ASSERT_TRUE(acked);
  bool flushed = false;
  cluster.FlushAll([&](bool ok) { flushed = ok; });
  engine.Run();
  ASSERT_TRUE(flushed);
  EXPECT_EQ(cluster.DirtyPages(), 0u);

  // The rewrite (dirty-epoch bump) must win over the stale in-flight run.
  for (std::uint32_t p = 0; p < 8; ++p) {
    util::Bytes got(backing.raw().begin() + p * page,
                    backing.raw().begin() + (p + 1) * page);
    if (p == 3) {
      EXPECT_EQ(got, rewrite) << "in-flight coalesced run must not clobber "
                                 "a newer write";
    } else {
      EXPECT_TRUE(util::CheckPattern(got, 200 + p)) << "page " << p;
    }
  }
}

// --- Full-stack fixtures -----------------------------------------------------

struct StackBed {
  sim::Engine engine;
  net::Fabric fabric{engine};
  std::unique_ptr<controller::StorageSystem> system;
  obs::Hub hub{engine};
  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<host::Initiator*> inits;
  controller::VolumeId vol = 0;
  std::uint64_t vol_bytes = 0;

  StackBed(std::uint32_t hosts, std::uint64_t bytes, std::uint64_t seed,
           const char* tenant = "physics")
      : vol_bytes(bytes) {
    controller::SystemConfig sc;
    sc.disk_profile.capacity_blocks = 32 * 1024;
    sc.cache.replication = 2;
    system = std::make_unique<controller::StorageSystem>(engine, fabric, sc);
    system->AttachObs(&hub);
    vol = system->CreateVolume(tenant, vol_bytes);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      host::InitiatorConfig hc;
      hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
      hc.seed = seed + h;
      owners.push_back(std::make_unique<host::Initiator>(
          *system, "h" + std::to_string(h), hc));
      owners.back()->AttachObs(&hub);
      inits.push_back(owners.back().get());
    }
  }

  void Preload() {
    util::Bytes buf(1 * util::MiB);
    for (std::uint64_t off = 0; off < vol_bytes; off += buf.size()) {
      const std::uint64_t n =
          std::min<std::uint64_t>(buf.size(), vol_bytes - off);
      util::FillPattern(buf, off);
      bool ok = false;
      inits[0]->Write(vol, off, std::span<const std::uint8_t>(buf.data(), n),
                      [&](bool r) { ok = r; });
      engine.Run();
      ASSERT_TRUE(ok) << "preload at " << off;
    }
  }
};

// --- Batched prefetch --------------------------------------------------------

TEST(OpenBurstPrefetch, StormOpensAreStagedByBatchedReads) {
  const FileSet fs{0, 128, 4 * util::KiB};
  StackBed bed(2, fs.TotalBytes(), 11);
  bed.Preload();

  StormSpec spec{fs, 2, 384};
  const Trace trace = MetadataStorm(spec, 11);

  RunnerConfig rc;
  rc.prefetch.enabled = true;
  rc.prefetch.batch_files = 32;
  rc.prefetch.lookahead_files = 64;
  Runner runner(bed.engine, bed.inits, bed.vol, rc, &bed.hub);
  const PhaseResult r = runner.Play(trace);

  EXPECT_EQ(r.ops, 2u * 384u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.prefetch.bursts, 0u) << "the open-burst detector must arm";
  EXPECT_GT(r.prefetch.hits, r.ops / 2)
      << "most opens should be served from staged batches";
  EXPECT_LT(r.prefetch.batched_reads, r.ops / 8)
      << "batching must amortize many opens per back-end read";
  EXPECT_EQ(r.prefetch.failed_batches, 0u);
}

// --- Crash mid-burst: two runs, one digest -----------------------------------

std::uint32_t CrashMidBurstDigest(std::uint64_t seed) {
  const FileSet fs{0, 2, 2 * util::MiB};
  StackBed bed(2, fs.TotalBytes(), seed);
  bed.Preload();

  // Fail a blade while both checkpoint streams are in flight; recover
  // while they are still running.  Retry + multipath must absorb it.
  bed.engine.Schedule(5 * util::kNsPerMs,
                      [&] { bed.system->FailController(1); });
  bed.engine.Schedule(60 * util::kNsPerMs,
                      [&] { bed.system->RecoverCluster(); });

  const Trace trace =
      CheckpointBurst(BurstSpec{fs, 2, 256 * util::KiB}, seed);
  Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  const PhaseResult r = runner.Play(trace);
  EXPECT_EQ(r.ops, trace.ops.size());

  bool flushed = false;
  bed.system->cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();
  EXPECT_TRUE(flushed);
  // Exactly-once must hold through the crash and the re-driven writes.
  EXPECT_EQ(bed.system->write_dedup().stats().double_applies, 0u);
  EXPECT_EQ(bed.system->write_dedup().stats().ghost_writes, 0u);
  return bed.hub.Digest();
}

TEST(WorkloadDeterminism, CrashMidBurstDigestIdentical) {
  EXPECT_EQ(CrashMidBurstDigest(21), CrashMidBurstDigest(21));
}

// --- Metadata storm under per-tenant QoS caps --------------------------------

TEST(WorkloadQos, StormRespectsTenantRateCap) {
  const FileSet fs{0, 128, 4 * util::KiB};
  StackBed bed(2, fs.TotalBytes(), 31, "storm-lab");

  qos::TenantRegistry registry;
  const auto bronze = registry.Register("storm-lab",
                                        qos::ServiceClass::kBronze);
  qos::ClassSpec spec = registry.spec(qos::ServiceClass::kBronze);
  spec.rate_bytes_per_sec = 4ull << 20;  // 4 MB/s: far below offered load
  spec.burst_bytes = 256 * util::KiB;
  registry.SetClassSpec(qos::ServiceClass::kBronze, spec);
  qos::Scheduler qos(bed.engine, registry, bed.system->controller_count());
  bed.system->AttachQos(&qos);  // rebinds existing volumes by tenant name
  ASSERT_EQ(registry.ResolveVolume(bed.vol), bronze)
      << "volume must auto-bind to its tenant";
  bed.Preload();
  qos.slo().Reset();  // throughput window starts at the storm, not preload

  StormSpec sspec{fs, 2, 600};
  const Trace trace = MetadataStorm(sspec, 31);
  Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  const PhaseResult r = runner.Play(trace);

  const auto& stats = qos.slo().stats(bronze);
  EXPECT_GT(stats.ops, 0u) << "storm reads must be billed to the tenant";
  const double delivered = qos.slo().DeliveredMBps(bronze);
  EXPECT_GT(delivered, 0.5);
  EXPECT_LE(delivered, 5.0)
      << "token bucket must hold the storm to its class rate";
  // The cap stretches the storm: elapsed is at least bytes / rate.
  const double min_elapsed_ms =
      static_cast<double>(r.bytes) / (4.0 * 1024 * 1024) * 1000.0;
  EXPECT_GE(static_cast<double>(r.elapsed) / 1e6, 0.8 * min_elapsed_ms);
}

}  // namespace
}  // namespace nlss::workload
