// E14: end-to-end request tracing over the E3 hotspot workload.
//
// Two questions: (1) *where does time go* in the stack under skewed access
// — per-layer critical-path breakdown for the pooled coherent cluster vs a
// partitioned build (four single-controller shards, each owning a quarter
// of the dataset); (2) what does tracing cost — simulated throughput at
// 0% / 1% / 100% sampling must be identical (spans are bookkeeping, not
// events), and two same-seed runs must produce bit-identical digests.
#include "bench/common.h"

#include "obs/hub.h"
#include "qos/scheduler.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kDataset = 64 * util::MiB;
constexpr std::uint32_t kOpBytes = 64 * util::KiB;
constexpr std::size_t kHosts = 16;
constexpr std::size_t kShards = 4;
constexpr double kTheta = 0.99;
constexpr sim::Tick kWindow = util::kNsPerSec / 2;

struct Result {
  double mbps = 0;
  double peak_to_mean = 0;  // load imbalance across controllers/shards
  obs::Breakdown agg;       // summed per-layer breakdown over all traces
  std::uint64_t traces = 0;
  std::uint64_t sampled = 0;
  std::uint32_t digest = 0;
  std::uint64_t bytes = 0;
};

void PreloadAndDrop(sim::Engine& engine, controller::StorageSystem& system,
                    net::NodeId host, controller::VolumeId vol,
                    std::uint64_t bytes) {
  util::Bytes buf(8 * util::MiB);
  for (std::uint64_t off = 0; off < bytes; off += buf.size()) {
    util::FillPattern(buf, off);
    bool ok = false;
    system.Write(host, vol, off, util::Payload::Copy(buf),
                 [&](bool r) { ok = r; });
    engine.Run();
    if (!ok) std::abort();
  }
  system.cache().FlushAll([](bool) {});
  engine.Run();
  for (std::uint32_t c = 0; c < system.controller_count(); ++c) {
    system.cache().node(c).Clear();
  }
  system.cache().Recover();
}

void WarmHotSet(sim::Engine& engine, controller::StorageSystem& system,
                net::NodeId host, controller::VolumeId vol,
                std::uint64_t base, std::uint64_t bytes) {
  for (std::uint64_t off = 0; off < bytes; off += util::MiB) {
    system.Read(host, vol, base + off, util::MiB, [](bool, util::Payload) {});
    engine.Run();
  }
}

Result RunPooled(std::uint64_t seed, double sample_rate) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig config;
  config.name = "e14";
  config.controllers = 4;
  config.raid_groups = 8;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.node_capacity_pages = 1024;
  controller::StorageSystem system(engine, fabric, config);
  std::vector<net::NodeId> hosts;
  for (std::size_t h = 0; h < kHosts; ++h) {
    hosts.push_back(system.AttachHost("host" + std::to_string(h)));
  }

  qos::TenantRegistry registry;
  registry.Register("e14", qos::ServiceClass::kGold);
  qos::Scheduler qos(engine, registry, system.controller_count());
  system.AttachQos(&qos);

  obs::Tracer::Config tcfg;
  tcfg.sample_rate = sample_rate;
  obs::Hub hub(engine, tcfg);
  system.AttachObs(&hub);

  const auto vol = system.CreateVolume("e14", kDataset);
  PreloadAndDrop(engine, system, hosts[0], vol, kDataset);
  // Warm the whole set once so the Zipf head is cache-resident, as in E3.
  WarmHotSet(engine, system, hosts[0], vol, 0, kDataset);

  util::Rng rng(seed);
  const util::ZipfGenerator zipf(kDataset / kOpBytes, kTheta);
  const auto loads_before = system.cache().LoadByController();
  const sim::Tick start = engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      engine, kHosts, start + kWindow,
      [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t off = zipf.Next(rng) * kOpBytes;
        system.Read(hosts[h], vol, off, kOpBytes,
                    [done = std::move(done)](bool ok, util::Payload) {
                      done(ok, kOpBytes);
                    });
      });
  auto loads = system.cache().LoadByController();
  for (std::size_t i = 0; i < loads.size(); ++i) loads[i] -= loads_before[i];

  Result r;
  r.bytes = bytes;
  r.mbps = util::ThroughputMBps(bytes, kWindow);
  r.peak_to_mean = util::ComputeImbalance(loads).peak_to_mean;
  r.agg = hub.tracer().aggregate();
  r.traces = hub.tracer().finished();
  r.sampled = hub.tracer().sampled();
  r.digest = hub.Digest();
  return r;
}

// Partitioned build: four independent single-controller systems on one
// fabric, each statically owning a quarter of the dataset — the
// traditional-array topology, but fully traced.
Result RunPartitioned(std::uint64_t seed, double sample_rate) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  obs::Tracer::Config tcfg;
  tcfg.sample_rate = sample_rate;
  obs::Hub hub(engine, tcfg);
  qos::TenantRegistry registry;
  registry.Register("e14", qos::ServiceClass::kGold);

  struct Shard {
    std::unique_ptr<controller::StorageSystem> system;
    std::unique_ptr<qos::Scheduler> qos;
    std::vector<net::NodeId> hosts;
    controller::VolumeId vol = 0;
  };
  const std::uint64_t per_shard = kDataset / kShards;
  std::vector<Shard> shards(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    controller::SystemConfig config;
    config.name = "e14s" + std::to_string(s);
    config.controllers = 1;
    config.raid_groups = 2;
    config.disk_profile.capacity_blocks = 64 * 1024;
    config.cache.node_capacity_pages = 1024;
    shards[s].system =
        std::make_unique<controller::StorageSystem>(engine, fabric, config);
    for (std::size_t h = 0; h < kHosts / kShards; ++h) {
      shards[s].hosts.push_back(shards[s].system->AttachHost(
          "host" + std::to_string(s) + "." + std::to_string(h)));
    }
    shards[s].qos = std::make_unique<qos::Scheduler>(
        engine, registry, shards[s].system->controller_count());
    shards[s].system->AttachQos(shards[s].qos.get());
    shards[s].system->AttachObs(&hub);
    shards[s].vol = shards[s].system->CreateVolume("e14", per_shard);
    PreloadAndDrop(engine, *shards[s].system, shards[s].hosts[0],
                   shards[s].vol, per_shard);
    WarmHotSet(engine, *shards[s].system, shards[s].hosts[0], shards[s].vol,
               0, per_shard);
  }

  util::Rng rng(seed);
  const util::ZipfGenerator zipf(kDataset / kOpBytes, kTheta);
  std::vector<std::uint64_t> shard_bytes(kShards, 0);
  const sim::Tick start = engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      engine, kHosts, start + kWindow,
      [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t global = zipf.Next(rng) * kOpBytes;
        const std::size_t s = global / per_shard;  // static ownership
        Shard& shard = shards[s];
        shard.system->Read(
            shard.hosts[h % shard.hosts.size()], shard.vol,
            global % per_shard, kOpBytes,
            [&, s, done = std::move(done)](bool ok, util::Payload) {
              if (ok) shard_bytes[s] += kOpBytes;
              done(ok, kOpBytes);
            });
      });

  Result r;
  r.bytes = bytes;
  r.mbps = util::ThroughputMBps(bytes, kWindow);
  const std::vector<double> shard_load(shard_bytes.begin(),
                                       shard_bytes.end());
  r.peak_to_mean = util::ComputeImbalance(shard_load).peak_to_mean;
  r.agg = hub.tracer().aggregate();
  r.traces = hub.tracer().finished();
  r.sampled = hub.tracer().sampled();
  r.digest = hub.Digest();
  return r;
}

double Pct(sim::Tick part, sim::Tick total) {
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(total);
}

void AddBreakdownRow(util::Table& table, const char* name, const Result& r) {
  const obs::Breakdown& b = r.agg;
  table.AddRow({name, util::Table::Cell(r.mbps, 1),
                util::Table::Cell(r.peak_to_mean, 2),
                util::Table::Cell(Pct(b.queue_wait(), b.SelfSum()), 1),
                util::Table::Cell(Pct(b.service(), b.SelfSum()), 1),
                util::Table::Cell(Pct(b.network(), b.SelfSum()), 1),
                util::Table::Cell(Pct(b.disk(), b.SelfSum()), 1)});
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args = Args::Parse(argc, argv);
  PrintHeader("E14", "Per-layer latency breakdown via request tracing",
              "observability: attribute each request's latency to queue "
              "wait vs service vs network vs disk across the whole stack, "
              "at negligible cost");

  const Result pooled = RunPooled(args.seed, 1.0);
  const Result part = RunPartitioned(args.seed, 1.0);

  util::Table table({"system", "MB/s", "peak/mean", "queue %", "service %",
                     "network %", "disk %"});
  AddBreakdownRow(table, "nlss pooled (4 blades)", pooled);
  AddBreakdownRow(table, "partitioned (4 shards)", part);
  table.Print("E14 per-layer breakdown (16 hosts, 64 KiB Zipf-0.99 reads):");
  std::printf("\ntraces: pooled=%llu partitioned=%llu\n",
              (unsigned long long)pooled.traces,
              (unsigned long long)part.traces);

  // Tracer overhead: simulated throughput must not move with the sample
  // rate — spans are bookkeeping outside the event timeline.
  const Result s0 = RunPooled(args.seed, 0.0);
  const Result s1 = RunPooled(args.seed, 0.01);
  const Result s100 = pooled;
  util::Table overhead({"sampling", "MB/s", "traces sampled", "delta vs 0%"});
  const auto delta = [&](const Result& r) {
    return s0.bytes == 0 ? 0.0
                         : 100.0 * (static_cast<double>(r.bytes) -
                                    static_cast<double>(s0.bytes)) /
                               static_cast<double>(s0.bytes);
  };
  overhead.AddRow({"0%", util::Table::Cell(s0.mbps, 1),
                   util::Table::Cell(std::uint64_t{0}),
                   util::Table::Cell(0.0, 3)});
  overhead.AddRow({"1%", util::Table::Cell(s1.mbps, 1),
                   util::Table::Cell(s1.sampled),
                   util::Table::Cell(delta(s1), 3)});
  overhead.AddRow({"100%", util::Table::Cell(s100.mbps, 1),
                   util::Table::Cell(s100.sampled),
                   util::Table::Cell(delta(s100), 3)});
  overhead.Print("Tracer overhead (simulated-throughput delta, %):");
  const bool overhead_ok = delta(s1) < 1.0 && delta(s1) > -1.0;

  // Determinism: a second same-seed run must produce the same digest.
  const Result again = RunPooled(args.seed, 1.0);
  const bool digest_ok = again.digest == pooled.digest;
  std::printf("\nsampling overhead at 1%%: %s (|delta| %.3f%% < 1%%)\n",
              overhead_ok ? "PASS" : "FAIL", delta(s1));
  std::printf("same-seed digest match: %s (0x%08x)\n",
              digest_ok ? "PASS" : "FAIL", pooled.digest);

  if (args.json) {
    std::printf(
        "\nJSON: {\"experiment\":\"e14\",\"seed\":%llu,"
        "\"pooled\":{\"mbps\":%.1f,\"queue_pct\":%.1f,\"service_pct\":%.1f,"
        "\"network_pct\":%.1f,\"disk_pct\":%.1f},"
        "\"partitioned\":{\"mbps\":%.1f,\"queue_pct\":%.1f,"
        "\"service_pct\":%.1f,\"network_pct\":%.1f,\"disk_pct\":%.1f},"
        "\"overhead_1pct_delta\":%.3f,\"digest_match\":%s}\n",
        (unsigned long long)args.seed, pooled.mbps,
        Pct(pooled.agg.queue_wait(), pooled.agg.SelfSum()),
        Pct(pooled.agg.service(), pooled.agg.SelfSum()),
        Pct(pooled.agg.network(), pooled.agg.SelfSum()),
        Pct(pooled.agg.disk(), pooled.agg.SelfSum()), part.mbps,
        Pct(part.agg.queue_wait(), part.agg.SelfSum()),
        Pct(part.agg.service(), part.agg.SelfSum()),
        Pct(part.agg.network(), part.agg.SelfSum()),
        Pct(part.agg.disk(), part.agg.SelfSum()), delta(s1),
        digest_ok ? "true" : "false");
  }
  return overhead_ok && digest_ok ? 0 : 1;
}
