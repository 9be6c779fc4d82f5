#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/resource.h"

namespace nlss::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(300, [&] { order.push_back(3); });
  e.Schedule(100, [&] { order.push_back(1); });
  e.Schedule(200, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, FifoAmongSameTick) {
  Engine e;
  // This test asserts the default FIFO tie-break itself, so it must hold
  // even when the environment requests a perturbed schedule.
  e.SetPerturbation(0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(50, [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, PerturbationPermutesSameTickOnly) {
  // A perturbed schedule may reorder same-tick events, but never across
  // ticks, and the same seed always yields the same permutation.
  auto run = [](std::uint64_t seed) {
    Engine e;
    e.SetPerturbation(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      e.Schedule(50, [&order, i] { order.push_back(i); });
    }
    for (int i = 16; i < 20; ++i) {
      e.Schedule(99, [&order, i] { order.push_back(i); });
    }
    e.Run();
    return order;
  };
  const auto fifo = run(0);
  const auto a = run(1);
  const auto b = run(2);
  EXPECT_EQ(run(1), a);  // same seed, same permutation
  EXPECT_NE(a, fifo);    // seed 1 permutes the 16-way tie
  EXPECT_NE(a, b);       // distinct seeds, distinct permutations
  for (const auto& order : {fifo, a, b}) {
    ASSERT_EQ(order.size(), 20u);
    // Tick-50 events all run before tick-99 events.
    for (int i = 0; i < 16; ++i) EXPECT_LT(order[i], 16);
    // Every event runs exactly once.
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Engine, PerturbationPreservesCausalOrder) {
  // A child scheduled at delay 0 can never run before its parent, no
  // matter the perturbation seed: it is inserted only while the parent
  // executes.  Chains of delay-0 continuations keep their internal order.
  for (const std::uint64_t seed : {0ull, 1ull, 7ull, 12345ull}) {
    Engine e;
    e.SetPerturbation(seed);
    std::vector<int> order;
    for (int chain = 0; chain < 4; ++chain) {
      e.Schedule(10, [&e, &order, chain] {
        order.push_back(chain * 10);
        e.Schedule(0, [&e, &order, chain] {
          order.push_back(chain * 10 + 1);
          e.Schedule(0, [&order, chain] { order.push_back(chain * 10 + 2); });
        });
      });
    }
    e.Run();
    ASSERT_EQ(order.size(), 12u);
    std::vector<std::size_t> pos(40, 0);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (int chain = 0; chain < 4; ++chain) {
      EXPECT_LT(pos[chain * 10], pos[chain * 10 + 1]) << "seed " << seed;
      EXPECT_LT(pos[chain * 10 + 1], pos[chain * 10 + 2]) << "seed " << seed;
    }
  }
}

TEST(Engine, NestedScheduling) {
  Engine e;
  std::vector<Tick> times;
  e.Schedule(10, [&] {
    times.push_back(e.now());
    e.Schedule(5, [&] { times.push_back(e.now()); });
  });
  e.Run();
  EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int ran = 0;
  e.Schedule(100, [&] { ++ran; });
  e.Schedule(200, [&] { ++ran; });
  e.Schedule(300, [&] { ++ran; });
  EXPECT_EQ(e.RunUntil(250), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), 250u);
  e.Run();
  EXPECT_EQ(ran, 3);
}

TEST(Engine, RunForIsRelative) {
  Engine e;
  int ran = 0;
  e.Schedule(100, [&] { ++ran; });
  e.RunFor(50);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.now(), 50u);
  e.RunFor(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, StepLimitsExecution) {
  Engine e;
  int ran = 0;
  for (int i = 0; i < 5; ++i) e.Schedule(10 * (i + 1), [&] { ++ran; });
  EXPECT_EQ(e.Step(2), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.PendingEvents(), 3u);
}

TEST(Engine, StopBreaksRun) {
  Engine e;
  int ran = 0;
  e.Schedule(10, [&] {
    ++ran;
    e.Stop();
  });
  e.Schedule(20, [&] { ++ran; });
  e.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.PendingEvents(), 1u);
}

TEST(Engine, ScheduleAtAbsolute) {
  Engine e;
  Tick fired = 0;
  e.ScheduleAt(777, [&] { fired = e.now(); });
  e.Run();
  EXPECT_EQ(fired, 777u);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 42; ++i) e.Schedule(i, [] {});
  e.Run();
  EXPECT_EQ(e.executed_events(), 42u);
}

TEST(Engine, StopInsideStepHaltsBatchAndResets) {
  Engine e;
  int ran = 0;
  e.Schedule(10, [&] {
    ++ran;
    e.Stop();
  });
  e.Schedule(20, [&] { ++ran; });
  e.Schedule(30, [&] { ++ran; });
  // Stop() fired by the first event must end the batch even though the
  // budget allows more.
  EXPECT_EQ(e.Step(3), 1u);
  EXPECT_EQ(ran, 1);
  // A stale Stop() must not leak into the next call: Step clears it on
  // entry, like Run/RunUntil.
  EXPECT_EQ(e.Step(5), 2u);
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, ArenaReusesNodesAcrossDrainRefill) {
  Engine e;
  auto churn = [&e] {
    for (int i = 0; i < 3000; ++i) {
      e.Schedule(static_cast<Tick>(i % 97), [] {});
    }
    e.Run();
  };
  churn();
  const Engine::ArenaStats first = e.arena_stats();
  EXPECT_GT(first.slabs, 0u);
  for (int round = 0; round < 5; ++round) churn();
  const Engine::ArenaStats later = e.arena_stats();
  // Drain/refill cycles of the same depth run entirely off the free list:
  // the arena never grows, and after a drain every node is back on it.
  EXPECT_EQ(later.slabs, first.slabs);
  EXPECT_EQ(later.capacity, first.capacity);
  EXPECT_EQ(later.free_events, later.capacity);
}

TEST(Engine, MixedHorizonScheduleRunsInKeyOrder) {
  // Differential order check at the Engine API, so any queue behind it is
  // checked where the order is observed.  A randomized schedule mixes delays
  // of 0, <100, <1e5 and <1e8 ns, with same-tick children scheduled from
  // inside callbacks; executed order must equal a sort by (when, pri) of the
  // events pending at each step.  pri is the documented tie-break: the
  // sequence number under FIFO, its splitmix64 mix under perturbation.
  auto mix = [](std::uint64_t seed, std::uint64_t seq) {
    std::uint64_t x = seq + seed * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  };
  using Key = std::pair<Tick, std::uint64_t>;  // (when, pri)
  for (const std::uint64_t seed : {0ull, 1ull, 2ull}) {
    Engine e;
    e.SetPerturbation(seed);
    std::mt19937_64 rng(42 + seed);
    std::set<Key> pending;  // reference order
    std::uint64_t seq = 0;
    std::uint64_t out_of_order = 0;
    std::function<void(Tick)> schedule = [&](Tick delay) {
      const Key key{e.now() + delay, seed == 0 ? seq : mix(seed, seq)};
      ++seq;
      pending.insert(key);
      e.Schedule(delay, [&, key] {
        if (*pending.begin() != key) ++out_of_order;
        pending.erase(key);
        if (rng() % 5 == 0) schedule(0);  // same-tick child, mid-drain
      });
    };
    for (int step = 0; step < 4000; ++step) {
      const int n_push = static_cast<int>(rng() % 4);
      for (int i = 0; i < n_push; ++i) {
        switch (rng() % 4) {
          case 0: schedule(0); break;
          case 1: schedule(rng() % 100); break;
          case 2: schedule(rng() % 100000); break;
          default: schedule(rng() % 100000000); break;
        }
      }
      e.Step(rng() % 4);
    }
    e.Run();
    EXPECT_EQ(out_of_order, 0u) << "seed " << seed;
    EXPECT_TRUE(pending.empty()) << "seed " << seed;
    EXPECT_EQ(e.executed_events(), seq) << "seed " << seed;
  }
}

TEST(Resource, UtilizationCountsOnlyServedTime) {
  Engine e;
  Resource r(e);
  e.Schedule(100, [&] { r.Acquire(500); });  // busy through tick 600
  e.RunUntil(200);
  // Only [100, 200) of the 500 ns backlog has been served; a naive
  // busy_total / now here would report 250%.
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.5);
  e.RunUntil(600);
  EXPECT_DOUBLE_EQ(r.Utilization(), 500.0 / 600.0);
  e.RunUntil(1000);
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.5);
  EXPECT_LE(r.Utilization(), 1.0);
}

TEST(Resource, ResetRollsBackUnservedBacklog) {
  Engine e;
  Resource r(e);
  e.Schedule(100, [&] { r.Acquire(500); });
  e.RunUntil(200);
  r.Reset();  // component failed: [200, 600) will never be served
  EXPECT_EQ(r.busy_until(), 200u);
  EXPECT_EQ(r.busy_total(), 100u);
  e.RunUntil(400);
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.25);
  // New work after the reset accounts normally.
  r.Acquire(100);
  e.RunUntil(500);
  EXPECT_DOUBLE_EQ(r.Utilization(), 200.0 / 500.0);
}

TEST(EngineDeathTest, GarbagePerturbEnvAborts) {
  // NLSS_PERTURB=oops silently meaning "plain FIFO" would let CI believe
  // it is perturbation-testing while it is not.
  setenv("NLSS_PERTURB", "12oops", 1);
  EXPECT_DEATH({ Engine e; }, "not an unsigned integer");
  setenv("NLSS_PERTURB", "7", 1);
  {
    Engine e;
    EXPECT_EQ(e.perturbation(), 7u);
  }
  unsetenv("NLSS_PERTURB");
}

TEST(Callback, CommonCapturesStayInline) {
  struct Fits {
    std::uint64_t a[6];  // exactly kInlineBytes
  };
  Callback fits = [c = Fits{}] { (void)c; };
  EXPECT_TRUE(fits.is_inline());
  struct Spills {
    std::uint64_t a[7];
  };
  Callback spills = [c = Spills{}] { (void)c; };
  EXPECT_FALSE(spills.is_inline());
  // Empty std::function converts to an empty Callback, preserving `if (cb)`.
  std::function<void()> none;
  Callback empty = std::move(none);
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(Engine, DeterministicInterleaving) {
  // Two identical runs produce identical event interleavings.
  auto run = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      e.Schedule(static_cast<Tick>((i * 37) % 50), [&order, i] {
        order.push_back(i);
      });
    }
    e.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace nlss::sim
