// Real-time microbenchmarks (google-benchmark) of the hot kernels under
// the simulation: GF(2^8) parity, Reed-Solomon coding, AES, SHA-256,
// CRC32C, cache frame management, and the DES engine itself.
#include <benchmark/benchmark.h>

#include <array>
#include <functional>

#include "cache/node.h"
#include "crypto/aes.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "raid/gf256.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace nlss;

void BM_XorInto(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Bytes a(n), b(n);
  util::FillPattern(a, 1);
  util::FillPattern(b, 2);
  for (auto _ : state) {
    util::XorInto(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_XorInto)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_GfMulInto(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Bytes a(n), b(n);
  util::FillPattern(a, 1);
  util::FillPattern(b, 2);
  for (auto _ : state) {
    raid::GfMulInto(a, b, 0x53);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_GfMulInto)->Arg(65536)->Arg(1 << 20);

void BM_Raid6PQ(benchmark::State& state) {
  // P+Q over a 4-data-disk stripe of 64 KiB units.
  constexpr std::size_t kUnit = 64 * 1024;
  std::vector<util::Bytes> data(4, util::Bytes(kUnit));
  for (std::size_t i = 0; i < data.size(); ++i) util::FillPattern(data[i], i);
  util::Bytes p(kUnit), q(kUnit);
  for (auto _ : state) {
    std::fill(p.begin(), p.end(), 0);
    std::fill(q.begin(), q.end(), 0);
    for (std::uint32_t u = 0; u < data.size(); ++u) {
      util::XorInto(p, data[u]);
      raid::GfMulInto(q, data[u], raid::Gf256::Exp(u));
    }
    benchmark::DoNotOptimize(p.data());
    benchmark::DoNotOptimize(q.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kUnit * 4);
}
BENCHMARK(BM_Raid6PQ);

void BM_AesCtr(benchmark::State& state) {
  crypto::KeyStore keys(std::string_view("bench"));
  const auto tk = keys.DeriveTransportKey("a", "b");
  const crypto::Aes aes(tk);
  util::Bytes buf(static_cast<std::size_t>(state.range(0)));
  util::FillPattern(buf, 1);
  const std::uint8_t iv[16] = {};
  for (auto _ : state) {
    crypto::CtrCrypt(aes, iv, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          buf.size());
}
BENCHMARK(BM_AesCtr)->Arg(4096)->Arg(65536);

void BM_AesXts(benchmark::State& state) {
  crypto::KeyStore keys(std::string_view("bench"));
  const auto vk = keys.DeriveVolumeKeys("t", 1);
  const crypto::Aes k1(vk.data_key), k2(vk.tweak_key);
  util::Bytes buf(static_cast<std::size_t>(state.range(0)));
  util::FillPattern(buf, 1);
  std::uint64_t sector = 0;
  for (auto _ : state) {
    crypto::XtsEncrypt(k1, k2, sector++, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          buf.size());
}
BENCHMARK(BM_AesXts)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  util::Bytes buf(static_cast<std::size_t>(state.range(0)));
  util::FillPattern(buf, 1);
  for (auto _ : state) {
    auto d = crypto::Sha256::Hash(buf);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          buf.size());
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536);

void BM_Crc32c(benchmark::State& state) {
  util::Bytes buf(static_cast<std::size_t>(state.range(0)));
  util::FillPattern(buf, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          buf.size());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_CacheNodeLookup(benchmark::State& state) {
  cache::CacheNode node(4096);
  for (std::uint64_t p = 0; p < 4096; ++p) {
    node.Emplace(cache::PageKey{1, p});
  }
  util::Rng rng(1);
  for (auto _ : state) {
    const cache::PageKey key{1, rng.Below(4096)};
    benchmark::DoNotOptimize(node.Find(key));
    node.Touch(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheNodeLookup);

void BM_CacheNodeChurn(benchmark::State& state) {
  cache::CacheNode node(1024);
  std::uint64_t p = 0;
  for (auto _ : state) {
    if (node.Full()) {
      if (auto victim = node.ChooseVictim(true)) node.Erase(*victim);
    }
    node.Emplace(cache::PageKey{1, p++});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheNodeChurn);

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.Schedule(static_cast<sim::Tick>((i * 37) % 100), [] {});
    }
    engine.Run();
    benchmark::DoNotOptimize(engine.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

// --- DES kernel throughput (BM_EngineEventsPerSec_*) -------------------------
//
// Wall-clock events/sec of the simulation kernel itself; items_per_second in
// the benchmark JSON is the CI perf-trajectory line.  Three shapes:
// empty-callback churn (queue mechanics only), mixed horizons (delays
// spanning six decades), and an E1-shaped replay (closed-loop chains with
// realistic capture sizes).

void BM_EngineEventsPerSec_Churn(benchmark::State& state) {
  // 64Ki empty callbacks spread over a 4Ki-tick near horizon: measures pure
  // schedule+dispatch cost with no callback work at all.
  constexpr int kEvents = 64 * 1024;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < kEvents; ++i) {
      engine.Schedule(static_cast<sim::Tick>((i * 37) & 4095), [] {});
    }
    engine.Run();
    benchmark::DoNotOptimize(engine.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EngineEventsPerSec_Churn);

void BM_EngineEventsPerSec_MixedHorizon(benchmark::State& state) {
  // 256 self-rescheduling chains whose delays cycle through 50 ns, 1 us,
  // 1 ms and 100 ms, so the queue always holds near and far-future events.
  constexpr int kChains = 256;
  constexpr std::uint64_t kEvents = 256 * 1024;
  constexpr sim::Tick kDelays[4] = {50, 1'000, 1'000'000, 100'000'000};
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t executed = 0;
    std::function<void(std::uint64_t)> hop = [&](std::uint64_t c) {
      if (++executed >= kEvents) return;
      engine.Schedule(kDelays[(c + executed) & 3], [&hop, c] { hop(c); });
    };
    for (std::uint64_t c = 0; c < kChains; ++c) {
      engine.Schedule(kDelays[c & 3], [&hop, c] { hop(c); });
    }
    engine.Run();
    benchmark::DoNotOptimize(engine.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EngineEventsPerSec_MixedHorizon);

void BM_EngineEventsPerSec_E1Replay(benchmark::State& state) {
  // E1-shaped closed loop: 64 streams, each op is a 3-stage chain
  // (issue -> service -> complete) whose callbacks carry the capture sizes
  // the real stack schedules (ids + a couple of pointers, ~32-48 B).
  constexpr std::size_t kStreams = 64;
  constexpr std::uint64_t kOpsPerStream = 1024;
  for (auto _ : state) {
    sim::Engine engine;
    util::Rng rng(7);
    std::array<std::uint64_t, kStreams> done{};
    std::uint64_t completed = 0;
    std::function<void(std::size_t)> issue = [&](std::size_t s) {
      if (done[s] >= kOpsPerStream) return;
      ++done[s];
      const sim::Tick link = 500 + rng.Below(1500);
      const sim::Tick service = 2'000 + rng.Below(20'000);
      engine.Schedule(link, [&engine, &issue, &completed, s, service] {
        engine.Schedule(service, [&engine, &issue, &completed, s] {
          engine.Schedule(500, [&issue, &completed, s] {
            ++completed;
            issue(s);
          });
        });
      });
    };
    for (std::size_t s = 0; s < kStreams; ++s) issue(s);
    engine.Run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * kStreams * kOpsPerStream * 3);
}
BENCHMARK(BM_EngineEventsPerSec_E1Replay);

void BM_HistogramRecord(benchmark::State& state) {
  util::Histogram h;
  util::Rng rng(1);
  for (auto _ : state) {
    h.Record(rng.Below(1'000'000'000));
  }
  benchmark::DoNotOptimize(h.Percentile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_ZipfNext(benchmark::State& state) {
  util::Rng rng(1);
  util::ZipfGenerator zipf(1 << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

}  // namespace

BENCHMARK_MAIN();
