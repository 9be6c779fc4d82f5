// Sharded metadata service (E18): shard-map routing determinism +
// rebalance, ordered listing / range scans, the host dentry cache's
// coherence under rename/unlink racing a cached resolve, metadata ops
// under QoS admission, the mgmt /meta report, and crash-mid-storm two-run
// digest determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.h"
#include "controller/system.h"
#include "host/initiator.h"
#include "meta/client.h"
#include "meta/service.h"
#include "mgmt/admin_http.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "security/auth.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "workload/workload.h"

// Every heap allocation in this binary goes through here, so a test can
// count the ones a code path makes.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

// Out of line, so the compiler does not pair an inlined free() with a new
// expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nlss::meta {
namespace {

/// Deterministic splitmix64 step — seeded key streams for the tests below
/// without touching any global RNG.
std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Shard-map routing -------------------------------------------------------

TEST(ShardMap, RoutingIsDeterministicAcrossInstances) {
  sim::Engine engine_a;
  sim::Engine engine_b;
  ServiceConfig cfg;
  cfg.shards = 8;
  MetaService a(engine_a, cfg);
  MetaService b(engine_b, cfg);
  for (std::uint32_t d = 0; d < 64; ++d) {
    const std::string dir = "/d" + std::to_string(d);
    ASSERT_EQ(a.BootstrapMkdir(dir), Status::kOk);
    ASSERT_EQ(b.BootstrapMkdir(dir), Status::kOk);
  }
  bool spread = false;
  for (DirId id = kRootDir; id <= kRootDir + 64; ++id) {
    ASSERT_EQ(a.ShardOf(id), b.ShardOf(id)) << "dir " << id;
    ASSERT_LT(a.ShardOf(id), cfg.shards);
    if (a.ShardOf(id) != a.ShardOf(kRootDir)) spread = true;
  }
  EXPECT_TRUE(spread) << "the hash must not pile every directory on one shard";
}

TEST(ShardMap, MoveDirectoryRebalancesRoutingAndRecord) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 4;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/proj"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/proj/data"), Status::kOk);

  // Find /proj's DirId through a resolve.
  DirId proj = 0;
  service.Resolve("/proj", [&](Status st, Dentry d) {
    ASSERT_EQ(st, Status::kOk);
    ASSERT_TRUE(d.is_dir);
    proj = d.ino;
  });
  engine.Run();
  ASSERT_NE(proj, 0u);

  const ShardId before = service.ShardOf(proj);
  const ShardId target = (before + 1) % cfg.shards;
  EXPECT_EQ(service.MoveDirectory(proj, target), Status::kOk);
  EXPECT_EQ(service.ShardOf(proj), target);
  EXPECT_EQ(service.stats().moved_dirs, 1u);

  // The moved directory still serves lookups from its new shard.
  Status st{};
  service.Resolve("/proj/data", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_GT(service.shard(target).ops(), 0u);
}

TEST(ShardMap, BladeFailureRemapsPlacementNotRouting) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.blades = 4;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/a"), Status::kOk);

  std::vector<ShardId> routing;
  for (DirId id = kRootDir; id <= kRootDir + 1; ++id) {
    routing.push_back(service.ShardOf(id));
  }
  const std::uint64_t epoch0 = service.map_epoch();

  service.OnBladeDown(1);
  EXPECT_GT(service.map_epoch(), epoch0);
  EXPECT_GT(service.stats().remaps, 0u);
  for (ShardId s = 0; s < cfg.shards; ++s) {
    EXPECT_NE(service.BladeOf(s), 1u) << "shard " << s;
  }
  // Directory -> shard routing is untouched: only placement moved.
  for (DirId id = kRootDir; id <= kRootDir + 1; ++id) {
    EXPECT_EQ(service.ShardOf(id), routing[id - kRootDir]);
  }
  // Ops still complete with the blade down.
  Status st{};
  service.Resolve("/a", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);

  const std::uint64_t epoch1 = service.map_epoch();
  service.OnBladeUp(1);
  EXPECT_GT(service.map_epoch(), epoch1);
  bool blade1_used = false;
  for (ShardId s = 0; s < cfg.shards; ++s) {
    if (service.BladeOf(s) == 1u) blade1_used = true;
  }
  EXPECT_TRUE(blade1_used) << "revived blade must take shards back";
}

// --- Ordered listing ---------------------------------------------------------

TEST(MetaService, ListAndRangeScanMatchSortedReference) {
  sim::Engine engine;
  MetaService service(engine);
  ASSERT_EQ(service.BootstrapMkdir("/dir"), Status::kOk);
  // Insert in a deliberately non-sorted order.
  std::vector<std::string> names;
  std::uint64_t rng = 7;
  for (int i = 0; i < 200; ++i) {
    names.push_back("e" + std::to_string(Mix(rng) % 100000));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::vector<std::string> shuffled = names;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[Mix(rng) % i]);
  }
  for (const std::string& n : shuffled) {
    ASSERT_EQ(service.BootstrapCreate("/dir/" + n), Status::kOk);
  }

  std::vector<std::string> listed;
  service.List("/dir", [&](Status st, std::vector<std::string> got) {
    ASSERT_EQ(st, Status::kOk);
    listed = std::move(got);
  });
  engine.Run();
  EXPECT_EQ(listed, names) << "List must return byte (lexicographic) order";

  // Before every name, mid-directory, at the last name and past it.
  for (const std::string& cursor :
       {std::string(), names[names.size() / 2], names.back(),
        std::string("zzz")}) {
    std::vector<std::string> page;
    service.RangeScan(
        "/dir", cursor, 10,
        [&](Status st, std::vector<std::pair<std::string, Dentry>> got) {
          ASSERT_EQ(st, Status::kOk);
          for (auto& [n, d] : got) page.push_back(n);
        });
    engine.Run();
    std::vector<std::string> want;
    for (auto it = std::lower_bound(names.begin(), names.end(), cursor);
         it != names.end() && want.size() < 10; ++it) {
      want.push_back(*it);
    }
    EXPECT_EQ(page, want) << "cursor " << cursor;
  }
}

// The flat directory table stays sorted by DirId: ForEachDir ascends across
// the hole an rmdir leaves and across records a restore inserts out of
// order, and every record stays reachable.
TEST(Namespace, ForEachDirStaysAscendingAcrossRmdirAndRestore) {
  Namespace ns;
  for (const char* d : {"/a", "/b", "/c"}) {  // DirIds 2, 3, 4
    ASSERT_EQ(ns.AtPath(d, &Namespace::Mkdir).status, Status::kOk);
  }
  ASSERT_EQ(ns.AtPath("/b", &Namespace::Rmdir).status, Status::kOk);
  ns.Restore(kRootDir, "z", Dentry{9, true});
  ns.Restore(9, "y", Dentry{7, true});
  ns.Restore(kRootDir, "w", Dentry{3, true});
  ns.set_next_ino(10);
  ASSERT_EQ(ns.AtPath("/z/y/n", &Namespace::Mkdir).status, Status::kOk);
  std::vector<DirId> dirs;
  ns.ForEachDir([&dirs](DirId d) { dirs.push_back(d); });
  EXPECT_EQ(dirs, (std::vector<DirId>{1, 2, 3, 4, 7, 9, 10}));
  for (const DirId d : dirs) EXPECT_NE(ns.Find(d), nullptr) << d;
  Dentry got;
  ASSERT_EQ(ns.Resolve("/z/y/n", &got), Status::kOk);
  EXPECT_EQ(got.ino, 10u);
  EXPECT_EQ(ns.Find(10)->parent, 7u);
}

// --- Host dentry cache coherence ---------------------------------------------

TEST(DentryCache, WarmResolveIsAFullHitServedLocally) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);

  Status st{};
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(client.stats().misses, 1u);
  const sim::Tick cold_end = engine.now();

  st = Status::kNotFound;
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(client.stats().full_hits, 1u);
  EXPECT_EQ(engine.now() - cold_end, Client::kLocalHitNs)
      << "a warm hit must not visit any shard";
  EXPECT_DOUBLE_EQ(client.HitRate(), 0.5);
}

// The coherence race the cache must win: a rename's apply (and its
// synchronous invalidation push) lands at t0 + hop + mutate; a cached
// resolve issued just before that is a full hit whose serve timer fires
// just after — the entry is gone by serve time, so the hit must fall back
// to a fresh walk and return the new truth, never the stale dentry.
TEST(DentryCache, RenameRacingCachedResolveNeverServesStale) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d0"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d0/f"), Status::kOk);

  const std::uint64_t evals0 =
      check::Registry::Instance().evaluations(check::Subsystem::kMeta);
  const std::uint64_t viols0 =
      check::Registry::Instance().violations(check::Subsystem::kMeta);

  Status st{};
  client.Resolve("/d0/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);

  // "/d0" -> "/t0" is a single-component rename: no walk steps, so the
  // mutation applies exactly hop + mutate after issue.
  const sim::Tick t0 = engine.now() + 1000;
  const sim::Tick apply =
      MetaService::kHopNs + MetaService::kMutateCostNs;
  ASSERT_GT(apply, Client::kLocalHitNs)
      << "recipe needs the hit-serve window to fit before the apply";

  bool renamed = false;
  engine.ScheduleAt(t0, [&] {
    service.Rename("/d0", "/t0", [&](Status s) {
      renamed = (s == Status::kOk);
    });
  });
  // Issue the cached resolve so its local-hit timer fires just AFTER the
  // rename applies: hit taken at t0+apply-200, served at t0+apply+200.
  Status raced{};
  bool raced_done = false;
  engine.ScheduleAt(t0 + apply - Client::kLocalHitNs / 2, [&] {
    client.Resolve("/d0/f", [&](Status s, Dentry) {
      raced = s;
      raced_done = true;
    });
  });
  engine.Run();

  ASSERT_TRUE(renamed);
  ASSERT_TRUE(raced_done);
  EXPECT_EQ(raced, Status::kNotFound)
      << "the raced hit must re-walk and see the rename, not serve stale";
  EXPECT_EQ(client.stats().full_hits, 1u) << "the race WAS taken as a hit";
  EXPECT_EQ(client.stats().revalidation_fallbacks, 1u);
  EXPECT_GT(client.stats().dropped_entries, 0u);

  // The new truth resolves, and the old path stays gone.
  Status fresh{};
  client.Resolve("/t0/f", [&](Status s, Dentry) { fresh = s; });
  engine.Run();
  EXPECT_EQ(fresh, Status::kOk);

  if (check::kEnabled) {
    EXPECT_GT(check::Registry::Instance().evaluations(check::Subsystem::kMeta),
              evals0);
    EXPECT_EQ(check::Registry::Instance().violations(check::Subsystem::kMeta),
              viols0);
  }
}

TEST(DentryCache, UnlinkInvalidatesCachedEntry) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);

  Status st{};
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  ASSERT_GT(client.cached_entries(), 0u);

  bool unlinked = false;
  service.Unlink("/d/f", [&](Status s) { unlinked = (s == Status::kOk); });
  engine.Run();
  ASSERT_TRUE(unlinked);
  EXPECT_GT(client.stats().dropped_entries, 0u)
      << "the unlink push must drop the cached path";

  st = Status::kOk;
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kNotFound);

  // Recreate under the same name: the cache must serve the NEW inode.
  Ino fresh_ino = 0;
  service.Create("/d/f", [&](Status s, Ino ino) {
    ASSERT_EQ(s, Status::kOk);
    fresh_ino = ino;
  });
  engine.Run();
  Ino resolved = 0;
  client.Resolve("/d/f", [&](Status s, Dentry d) {
    ASSERT_EQ(s, Status::kOk);
    resolved = d.ino;
  });
  engine.Run();
  EXPECT_EQ(resolved, fresh_ino);
}

TEST(DentryCache, CapacityZeroBypassesAndLruEvicts) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig off;
  off.capacity = 0;
  Client bypass(service, "off", off);
  ClientConfig tiny;
  tiny.capacity = 4;
  Client lru(service, "tiny", tiny);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(service.BootstrapCreate("/d/f" + std::to_string(i)), Status::kOk);
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 8; ++i) {
      bypass.Resolve("/d/f" + std::to_string(i), [](Status s, Dentry) {
        EXPECT_EQ(s, Status::kOk);
      });
      lru.Resolve("/d/f" + std::to_string(i), [](Status s, Dentry) {
        EXPECT_EQ(s, Status::kOk);
      });
      engine.Run();
    }
  }
  EXPECT_EQ(bypass.cached_entries(), 0u);
  EXPECT_EQ(bypass.stats().full_hits, 0u);
  EXPECT_LE(lru.cached_entries(), tiny.capacity);
  EXPECT_GT(lru.stats().evictions, 0u);
}

// Root delegation (E18a): a client holds a version-stamped full copy of
// "/" and serves every walk's first component — including authoritative
// negatives — locally, instead of serializing all cold walks on the root
// directory's shard.  The copy must drop the instant the root changes.
TEST(DentryCache, RootDelegationServesRootStepsLocally) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f1"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f2"), Status::kOk);

  // Two concurrent cold resolves: the first requests the grant, the
  // second joins the in-flight fetch — exactly one DelegateDirectory.
  Status s1{}, s2{};
  client.Resolve("/d/f1", [&](Status s, Dentry) { s1 = s; });
  client.Resolve("/d/f2", [&](Status s, Dentry) { s2 = s; });
  engine.Run();
  ASSERT_EQ(s1, Status::kOk);
  ASSERT_EQ(s2, Status::kOk);
  EXPECT_EQ(client.stats().delegation_grants, 1u);
  EXPECT_EQ(client.stats().delegation_joins, 1u);
  EXPECT_EQ(client.stats().delegation_hits, 2u)
      << "both walks' root steps must serve from the copy";

  // A name absent from the root copy is an authoritative negative: no
  // shard visit (zero LookupSteps), answered in one local-hit delay.
  const std::uint64_t steps0 = client.stats().steps;
  const sim::Tick t0 = engine.now();
  Status missing{};
  client.Resolve("/nope", [&](Status s, Dentry) { missing = s; });
  engine.Run();
  EXPECT_EQ(missing, Status::kNotFound);
  EXPECT_EQ(client.stats().steps, steps0)
      << "a delegated negative must not visit any shard";
  EXPECT_EQ(engine.now() - t0, Client::kLocalHitNs);

  // Renaming a root entry bumps "/"'s version: the grant drops and the
  // next walk re-fetches a copy that holds the new truth.
  bool renamed = false;
  service.Rename("/d", "/e", [&](Status s) { renamed = (s == Status::kOk); });
  engine.Run();
  ASSERT_TRUE(renamed);
  EXPECT_EQ(client.stats().delegation_drops, 1u);

  Status fresh{}, stale{};
  client.Resolve("/e/f1", [&](Status s, Dentry) { fresh = s; });
  engine.Run();
  client.Resolve("/d/f1", [&](Status s, Dentry) { stale = s; });
  engine.Run();
  EXPECT_EQ(fresh, Status::kOk);
  EXPECT_EQ(stale, Status::kNotFound);
  EXPECT_EQ(client.stats().delegation_grants, 2u);

  // With delegation off, the same walks issue root LookupSteps.
  ClientConfig off;
  off.root_delegation = false;
  Client plain(service, "c1", off);
  Status ps{};
  plain.Resolve("/e/f1", [&](Status s, Dentry) { ps = s; });
  engine.Run();
  EXPECT_EQ(ps, Status::kOk);
  EXPECT_EQ(plain.stats().delegation_grants, 0u);
  EXPECT_EQ(plain.stats().steps, 2u);
}

// --- Host dentry cache: pinned eviction, invalidation and counters -----------

/// One resolve run to completion: its result, and whether the client
/// served it as a full-path cache hit.
struct Resolved {
  Status st = Status::kInvalidArgument;
  Dentry d;
  bool full_hit = false;
};

Resolved ResolveNow(sim::Engine& engine, Client& client,
                    const std::string& path) {
  const std::uint64_t hits0 = client.stats().full_hits;
  Resolved r;
  client.Resolve(path, [&r](Status s, Dentry d) {
    r.st = s;
    r.d = d;
  });
  engine.Run();
  r.full_hit = client.stats().full_hits > hits0;
  return r;
}

Status MutateNow(sim::Engine& engine,
                 const std::function<void(MetaService::StatusCallback)>& op) {
  Status st = Status::kInvalidArgument;
  op([&st](Status s) { st = s; });
  engine.Run();
  return st;
}

// The victim is always the least recently *touched* path: a full hit
// touches its path, and a walk from a cached ancestor touches the
// ancestor — so "/d", cached first, outlives every file under it.
TEST(DentryCache, LruEvictsLeastRecentlyTouchedAndWalksKeepAncestors) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig cc;
  cc.capacity = 3;
  Client client(service, "c0", cc);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(service.BootstrapCreate("/d/f" + std::to_string(i)),
              Status::kOk);
  }

  struct Step {
    const char* path;
    bool full_hit;
    std::uint64_t evictions;  // running total after the step
  };
  // LRU order (oldest first) after each step, in the comments.
  const Step steps[] = {
      {"/d/f0", false, 0},  // [/d f0]
      {"/d/f1", false, 0},  // [f0 /d f1]
      {"/d/f0", true, 0},   // [/d f1 f0]
      {"/d/f2", false, 1},  // touch /d, evict f1: [f0 /d f2]
      {"/d/f0", true, 1},   // [/d f2 f0]
      {"/d/f1", false, 2},  // touch /d, evict f2: [f0 /d f1]
      {"/d/f2", false, 3},  // touch /d, evict f0: [f1 /d f2]
      {"/d", true, 3},      // [f1 f2 /d]
      {"/d/f3", false, 4},  // evict f1: [f2 /d f3]
      {"/d/f2", true, 4},   // [/d f3 f2]
      {"/d/f1", false, 5},  // touch /d, evict f3: [f2 /d f1]
  };
  for (const Step& s : steps) {
    const Resolved r = ResolveNow(engine, client, s.path);
    EXPECT_EQ(r.st, Status::kOk) << s.path;
    EXPECT_EQ(r.full_hit, s.full_hit) << s.path;
    EXPECT_EQ(client.stats().evictions, s.evictions) << s.path;
    EXPECT_LE(client.cached_entries(), cc.capacity) << s.path;
  }
  EXPECT_EQ(client.cached_entries(), cc.capacity);

  // Two walks of f3 in flight around one of f0 (one tick apart, so no
  // same-tick order is involved): the second f3 reply re-learns the path
  // and makes it the most recent again.
  const sim::Tick t0 = engine.now();
  for (const auto& [dt, path] : {std::pair<sim::Tick, const char*>{1, "/d/f3"},
                                 {2, "/d/f0"},
                                 {3, "/d/f3"}}) {
    engine.ScheduleAt(t0 + dt, [&client, path = path] {
      client.Resolve(path, [](Status s, Dentry) {
        EXPECT_EQ(s, Status::kOk);
      });
    });
  }
  engine.Run();  // evict f2, then f1: [/d f0 f3]
  EXPECT_EQ(client.stats().evictions, 7u);
  EXPECT_FALSE(ResolveNow(engine, client, "/d/f1").full_hit);  // evict f0
  EXPECT_TRUE(ResolveNow(engine, client, "/d/f3").full_hit);
  EXPECT_FALSE(ResolveNow(engine, client, "/d/f0").full_hit);

  EXPECT_EQ(client.stats().misses, 1u);
  EXPECT_EQ(client.stats().partial_hits, 11u);
  EXPECT_EQ(client.stats().full_hits, 5u);
  EXPECT_EQ(client.stats().evictions, 9u);
  EXPECT_EQ(client.stats().dropped_entries, 0u);
}

// An invalidation of `dir` drops exactly the cached paths whose resolution
// read through `dir` — not `dir`'s own entry, and nothing beside it.
TEST(DentryCache, InvalidateDropsExactlyThePathsThroughTheDirectory) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  for (const char* d : {"/a", "/a/x", "/b"}) {
    ASSERT_EQ(service.BootstrapMkdir(d), Status::kOk);
  }
  for (const char* f : {"/a/x/f", "/a/y", "/b/g"}) {
    ASSERT_EQ(service.BootstrapCreate(f), Status::kOk);
  }
  for (const char* p : {"/a/x/f", "/a/y", "/b/g"}) {
    ASSERT_EQ(ResolveNow(engine, client, p).st, Status::kOk);
  }
  ASSERT_EQ(client.cached_entries(), 6u);  // /a /a/x /a/x/f /a/y /b /b/g

  // A create in /a/x bumps only /a/x: its one cached child goes.
  ASSERT_EQ(MutateNow(engine,
                      [&](MetaService::StatusCallback cb) {
                        service.Create("/a/x/n",
                                       [cb = std::move(cb)](Status s, Ino) {
                                         cb(s);
                                       });
                      }),
            Status::kOk);
  EXPECT_EQ(client.stats().dropped_entries, 1u);
  EXPECT_EQ(client.cached_entries(), 5u);
  for (const char* kept : {"/a", "/a/x", "/a/y", "/b", "/b/g"}) {
    EXPECT_TRUE(ResolveNow(engine, client, kept).full_hit) << kept;
  }
  EXPECT_FALSE(ResolveNow(engine, client, "/a/x/f").full_hit);
  ASSERT_EQ(client.cached_entries(), 6u);

  // A mkdir in /a drops everything beneath /a but keeps "/a" itself
  // (its chain is just the root) and the whole /b subtree.
  ASSERT_EQ(MutateNow(engine,
                      [&](MetaService::StatusCallback cb) {
                        service.Mkdir("/a/m", std::move(cb));
                      }),
            Status::kOk);
  EXPECT_EQ(client.stats().dropped_entries, 4u);
  EXPECT_EQ(client.cached_entries(), 3u);
  for (const char* kept : {"/a", "/b", "/b/g"}) {
    EXPECT_TRUE(ResolveNow(engine, client, kept).full_hit) << kept;
  }
  for (const char* gone : {"/a/x", "/a/y", "/a/x/f"}) {
    EXPECT_FALSE(ResolveNow(engine, client, gone).full_hit) << gone;
  }
  EXPECT_EQ(client.stats().invalidations, 2u);
}

// Every cached path reads through "/", so a root mutation empties the
// cache and drops the root delegation copy with it.
TEST(DentryCache, RootInvalidationDropsEveryPathAndTheRootGrant) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  for (const char* d : {"/a", "/a/x", "/b"}) {
    ASSERT_EQ(service.BootstrapMkdir(d), Status::kOk);
  }
  for (const char* f : {"/a/x/f", "/b/g"}) {
    ASSERT_EQ(service.BootstrapCreate(f), Status::kOk);
  }
  for (const char* p : {"/a/x/f", "/b/g"}) {
    ASSERT_EQ(ResolveNow(engine, client, p).st, Status::kOk);
  }
  ASSERT_EQ(client.cached_entries(), 5u);
  ASSERT_EQ(client.stats().delegation_grants, 1u);

  ASSERT_EQ(MutateNow(engine,
                      [&](MetaService::StatusCallback cb) {
                        service.Mkdir("/c", std::move(cb));
                      }),
            Status::kOk);
  EXPECT_EQ(client.cached_entries(), 0u);
  EXPECT_EQ(client.stats().dropped_entries, 5u);
  EXPECT_EQ(client.stats().delegation_drops, 1u);

  const Resolved again = ResolveNow(engine, client, "/a/x/f");
  EXPECT_EQ(again.st, Status::kOk);
  EXPECT_FALSE(again.full_hit);
  EXPECT_EQ(client.stats().misses, 3u) << "a walk from the root, not /a/x";
  EXPECT_EQ(client.stats().delegation_grants, 2u)
      << "the dropped grant must be fetched again";
}

// Every counter after a scripted mix of hits, walks, evictions, negative
// lookups and invalidations (capacity 4; LRU order in the comments).
TEST(DentryCache, ScriptedSequenceCountersAreExact) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig cc;
  cc.capacity = 4;
  Client client(service, "c0", cc);
  for (const char* d : {"/p", "/p/q", "/t"}) {
    ASSERT_EQ(service.BootstrapMkdir(d), Status::kOk);
  }
  for (const char* f : {"/p/q/r1", "/p/q/r2", "/p/s", "/t/u"}) {
    ASSERT_EQ(service.BootstrapCreate(f), Status::kOk);
  }
  const auto resolve = [&](const char* path) {
    return ResolveNow(engine, client, path).st;
  };

  EXPECT_EQ(resolve("/p/q/r1"), Status::kOk);  // miss: [/p /p/q r1]
  EXPECT_EQ(resolve("/p/q/r2"), Status::kOk);  // partial: [/p r1 /p/q r2]
  EXPECT_EQ(resolve("/p/s"), Status::kOk);     // partial, evict r1
  EXPECT_EQ(resolve("/p/q/r2"), Status::kOk);  // hit: [/p/q /p /p/s r2]
  EXPECT_EQ(resolve("/t/u"), Status::kOk);     // miss, evict /p/q and /p
  ASSERT_EQ(MutateNow(engine,
                      [&](MetaService::StatusCallback cb) {
                        service.Unlink("/p/q/r2", std::move(cb));
                      }),
            Status::kOk);                        // drop r2: [/p/s /t /t/u]
  EXPECT_EQ(resolve("/p/q/r2"), Status::kNotFound);  // miss, evict /p/s
  EXPECT_EQ(resolve("/p/nope"), Status::kNotFound);  // partial from /p
  ASSERT_EQ(MutateNow(engine,
                      [&](MetaService::StatusCallback cb) {
                        service.Rename("/t", "/w", std::move(cb));
                      }),
            Status::kOk);                        // root changed: drop all 4
  EXPECT_EQ(resolve("/w/u"), Status::kOk);     // miss: [/w /w/u]

  const ClientStats& s = client.stats();
  EXPECT_EQ(s.resolves, 8u);
  EXPECT_EQ(s.full_hits, 1u);
  EXPECT_EQ(s.partial_hits, 3u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.steps, 9u);
  EXPECT_EQ(s.evictions, 4u);
  EXPECT_EQ(s.invalidations, 2u);
  EXPECT_EQ(s.dropped_entries, 5u);
  EXPECT_EQ(s.revalidation_fallbacks, 0u);
  EXPECT_EQ(s.delegation_grants, 2u);
  EXPECT_EQ(s.delegation_hits, 4u);
  EXPECT_EQ(s.delegation_drops, 1u);
  EXPECT_EQ(client.cached_entries(), 2u);
}

// Seeded coherence sweep: a random mix of resolves and namespace mutations
// on a small tree, one op per Run().  Every cached client must answer
// exactly like an uncached one, never hold more than its capacity, and
// keep no directory list past the last cached path that read through it.
TEST(DentryCache, SeededSweepAnswersLikeAnUncachedClient) {
  const char* const kNames[] = {"a", "b", "c"};
  constexpr std::size_t kMaxDepth = 3;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Engine engine;
    MetaService service(engine);
    ClientConfig off;
    off.capacity = 0;
    Client reference(service, "ref", off);
    std::vector<std::unique_ptr<Client>> clients;
    for (const std::size_t capacity : {1, 3, 16}) {
      ClientConfig cc;
      cc.capacity = capacity;
      clients.push_back(std::make_unique<Client>(
          service, "c" + std::to_string(capacity), cc));
    }
    ASSERT_EQ(service.BootstrapMkdir("/a"), Status::kOk);
    ASSERT_EQ(service.BootstrapMkdir("/a/b"), Status::kOk);
    ASSERT_EQ(service.BootstrapCreate("/a/b/c"), Status::kOk);
    ASSERT_EQ(service.BootstrapCreate("/b"), Status::kOk);

    std::uint64_t rng = seed;
    const auto random_path = [&] {
      const std::uint64_t r = Mix(rng);
      std::vector<std::string> parts(1 + r % kMaxDepth);
      for (std::size_t i = 0; i < parts.size(); ++i) {
        parts[i] = kNames[(r >> (8 + 4 * i)) % 3];
      }
      return parts;
    };
    const auto join = [](const std::vector<std::string>& parts) {
      std::string out;
      for (const std::string& p : parts) out += "/" + p;
      return out;
    };

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = Mix(rng) % 8;
      const std::vector<std::string> parts = random_path();
      const std::string path = join(parts);
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step) + " op " + std::to_string(op) + " " +
                   path);
      if (op < 4) {
        Resolved want;
        reference.Resolve(path, [&want](Status s, Dentry d) {
          want.st = s;
          want.d = d;
        });
        std::vector<Resolved> got(clients.size());
        for (std::size_t i = 0; i < clients.size(); ++i) {
          clients[i]->Resolve(path, [&got, i](Status s, Dentry d) {
            got[i].st = s;
            got[i].d = d;
          });
        }
        engine.Run();
        for (std::size_t i = 0; i < clients.size(); ++i) {
          EXPECT_EQ(got[i].st, want.st) << clients[i]->name();
          EXPECT_EQ(got[i].d.ino, want.d.ino) << clients[i]->name();
          EXPECT_EQ(got[i].d.is_dir, want.d.is_dir) << clients[i]->name();
        }
      } else {
        Status st = Status::kInvalidArgument;
        const auto done = [&st](Status s) { st = s; };
        bool touches_root = parts.size() == 1;
        if (op == 4) {
          service.Create(path, [&st](Status s, Ino) { st = s; });
        } else if (op == 5) {
          service.Unlink(path, done);
        } else if (op == 6) {
          service.Mkdir(path, done);
        } else {
          const std::vector<std::string> to = random_path();
          // A move into the source's own subtree is refused and a
          // self-rename is a no-op; neither changes the tree: skip both.
          if (to.size() >= parts.size() &&
              std::equal(parts.begin(), parts.end(), to.begin())) {
            continue;
          }
          touches_root = touches_root || to.size() == 1;
          service.Rename(path, join(to), done);
        }
        engine.Run();
        if (st == Status::kOk && touches_root) {
          // Every cached path reads through "/".
          for (const auto& c : clients) {
            EXPECT_EQ(c->cached_entries(), 0u) << c->name();
            EXPECT_EQ(c->dir_lists(), 0u) << c->name();
          }
        }
      }
      for (const auto& c : clients) {
        EXPECT_LE(c->cached_entries(), c->config().capacity) << c->name();
        EXPECT_EQ(c->cached_entries() == 0, c->dir_lists() == 0)
            << c->name();
        EXPECT_LE(c->dir_lists(), kMaxDepth * c->cached_entries())
            << c->name();
      }
    }

    bool made = false;
    service.Mkdir("/z", [&made](Status s) { made = (s == Status::kOk); });
    engine.Run();
    ASSERT_TRUE(made);
    for (const auto& c : clients) {
      EXPECT_EQ(c->cached_entries(), 0u) << c->name();
      EXPECT_EQ(c->dir_lists(), 0u) << c->name();
      // The sweep must have exercised every path through the cache.
      EXPECT_GT(c->stats().full_hits, 0u) << c->name();
      EXPECT_GT(c->stats().partial_hits, 0u) << c->name();
      EXPECT_GT(c->stats().dropped_entries, 0u) << c->name();
    }
    EXPECT_GT(clients[0]->stats().evictions, 0u);
    EXPECT_GT(clients[1]->stats().evictions, 0u);
  }
}

// Heap allocations of one resolve in the meta_storm shape (8 shards on 4
// blades behind a gold QoS tenant): a walk from a cached parent allocates
// its walk record, one shard-visit record and the new entry's chain; a
// full hit only its walk record.  Every closure on the way captures the
// client or service plus one record and stays in util::Function's buffer.
TEST(DentryCache, ResolveAllocatesOnlyItsRecords) {
  sim::Engine engine;
  if (engine.race_detector() != nullptr) {
    GTEST_SKIP() << "the race detector allocates per recorded access";
  }
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.blades = 4;
  MetaService service(engine, cfg);
  qos::TenantRegistry registry;
  const auto tenant = registry.Register("bench", qos::ServiceClass::kGold);
  qos::Scheduler qos(engine, registry, cfg.blades);
  service.AttachQos(&qos, tenant);
  Client client(service, "c0");
  const workload::FileSet files{0, 64, 4 * util::KiB};
  workload::PopulateMetaNamespace(service, files, /*files_per_dir=*/16);

  std::uint64_t ok = 0;
  const auto allocations = [&](const std::string& path) {
    const std::uint64_t before = g_heap_allocations.load();
    client.Resolve(path, [&ok](Status s, Dentry) { ok += s == Status::kOk; });
    engine.Run();
    return g_heap_allocations.load() - before;
  };
  // Warm the engine's event pool, the QoS queues, the root grant and /d1
  // with a file under it.
  for (std::uint32_t f = 0; f < 20; ++f) {
    allocations(workload::MetaPathOf(f, 16));
  }
  const std::string path = workload::MetaPathOf(21, 16);  // "/d1/f21"
  const std::uint64_t walk = allocations(path);
  const std::uint64_t hit = allocations(path);
  EXPECT_EQ(ok, 22u);
  EXPECT_EQ(client.stats().partial_hits, 19u);
  EXPECT_LE(walk, 3u) << "a resolve whose parent is cached";
  EXPECT_LE(hit, 1u) << "a full hit";
}

// --- Metadata under QoS admission --------------------------------------------

TEST(MetaQos, RejectedOpsRetryToCompletion) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.blades = 2;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/ing"), Status::kOk);

  qos::TenantRegistry registry;
  const auto tenant = registry.Register("meta-lab", qos::ServiceClass::kGold);
  qos::ClassSpec spec = registry.spec(qos::ServiceClass::kGold);
  spec.max_queue_depth = 2;  // force admission rejections under the burst
  registry.SetClassSpec(qos::ServiceClass::kGold, spec);
  qos::Scheduler qos(engine, registry, cfg.blades);
  service.AttachQos(&qos, tenant);

  std::uint64_t ok = 0;
  const int kOps = 64;
  auto token = std::make_shared<int>(0);  // held by every op's callback
  for (int i = 0; i < kOps; ++i) {
    service.Create("/ing/c" + std::to_string(i), [&, token](Status s, Ino) {
      if (s == Status::kOk) ++ok;
    });
  }
  engine.Run();
  EXPECT_EQ(ok, static_cast<std::uint64_t>(kOps))
      << "every rejected op must retry until admitted";
  EXPECT_GT(service.stats().qos_rejects, 0u)
      << "the burst must actually trip admission control";
  EXPECT_EQ(token.use_count(), 1)
      << "finished ops, retried or not, must release their callbacks";
}

// --- mgmt: GET /meta ---------------------------------------------------------

TEST(MetaMgmt, AdminHttpMetaReport) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig sc;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  sc.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, sc);

  crypto::KeyStore keys(std::string_view("m"));
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

  // Without a meta service attached: 404.
  EXPECT_EQ(get("/meta").status, 404);

  MetaService service(engine);
  Client client(service, "c0");
  admin.AttachMeta(&service);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);
  for (int i = 0; i < 2; ++i) {
    client.Resolve("/d/f", [](Status s, Dentry) { EXPECT_EQ(s, Status::kOk); });
    engine.Run();
  }

  const auto r = get("/meta");
  ASSERT_EQ(r.status, 200);
  const std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(body.find("\"map_epoch\":"), std::string::npos);
  EXPECT_NE(body.find("\"dentry_cache\":{"), std::string::npos);
  EXPECT_NE(body.find("\"hit_rate\":0.5"), std::string::npos)
      << "one miss + one hit must report as 0.5: " << body;
  EXPECT_NE(body.find("\"clients\":1"), std::string::npos);
}

// --- Crash mid-storm: two runs, one digest -----------------------------------

std::uint32_t CrashMidStormDigest(std::uint64_t seed) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  obs::Hub hub(engine);
  controller::SystemConfig sc;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  sc.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, sc);
  system.AttachObs(&hub);

  const workload::FileSet fs{0, 128, 4 * util::KiB};
  const controller::VolumeId vol = system.CreateVolume("lab", fs.TotalBytes());

  ServiceConfig mc;
  mc.shards = 4;
  MetaService service(engine, mc);
  service.AttachObs(&hub);
  workload::PopulateMetaNamespace(service, fs, /*files_per_dir=*/16);

  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<host::Initiator*> inits;
  for (std::uint32_t h = 0; h < 2; ++h) {
    host::InitiatorConfig hc;
    hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
    hc.seed = seed + h;
    owners.push_back(std::make_unique<host::Initiator>(
        system, "h" + std::to_string(h), hc));
    owners.back()->AttachObs(&hub);
    clients.push_back(
        std::make_unique<Client>(service, "mc" + std::to_string(h)));
    owners.back()->AttachMeta(clients.back().get());
    inits.push_back(owners.back().get());
  }

  // Preload the volume so storm header reads hit valid data.
  {
    util::Bytes buf(64 * util::KiB);
    for (std::uint64_t off = 0; off < fs.TotalBytes(); off += buf.size()) {
      util::FillPattern(buf, off);
      bool ok = false;
      inits[0]->Write(vol, off,
                      std::span<const std::uint8_t>(buf.data(), buf.size()),
                      [&](bool r) { ok = r; });
      engine.Run();
      EXPECT_TRUE(ok);
    }
  }

  // Fail a data blade AND remap the metadata shards mid-storm, recover
  // both while opens are still in flight.
  engine.Schedule(2 * util::kNsPerMs, [&] {
    system.FailController(1);
    service.OnBladeDown(1);
  });
  engine.Schedule(20 * util::kNsPerMs, [&] {
    system.RecoverCluster();
    service.OnBladeUp(1);
  });

  workload::StormSpec spec{fs, 2, 256};
  spec.read_bytes = 4 * util::KiB;
  const workload::Trace trace = workload::MetadataStorm(spec, seed);
  workload::RunnerConfig rc;
  rc.meta_files_per_dir = 16;
  workload::Runner runner(engine, inits, vol, rc, &hub);
  const workload::PhaseResult r = runner.Play(trace);
  EXPECT_EQ(r.ops, trace.ops.size());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.meta_resolves, r.ops)
      << "every storm open must route through the dentry cache";
  EXPECT_GT(r.meta_hits, 0u);
  return hub.Digest();
}

TEST(MetaDeterminism, CrashMidStormDigestIdentical) {
  const std::uint64_t viols0 =
      check::Registry::Instance().violations(check::Subsystem::kMeta);
  EXPECT_EQ(CrashMidStormDigest(18), CrashMidStormDigest(18));
  EXPECT_EQ(check::Registry::Instance().violations(check::Subsystem::kMeta),
            viols0);
}

}  // namespace
}  // namespace nlss::meta
