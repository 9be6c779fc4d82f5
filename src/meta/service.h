// Sharded metadata service: the namespace as a scale-out service instead
// of a single controller-resident table.
//
// Directories are partitioned across shards at directory granularity — every
// op on a directory's dentry index and version stamp is served by one
// shard, chosen by a seeded hash of its DirId with an explicit override map
// on top (the controller can rebalance by moving directories, and remaps
// shards off failed blades).  The records live in one meta::Namespace,
// whose rules each shard visit applies at service time.  Every metadata op
// is DES-timed: a hop to the owning shard, FIFO service on that shard's
// queue, and a hop back, so shard count is a real throughput axis (one
// shard == the single-service baseline E18 compares against).
//
// Path resolution walks component by component, each step served by the
// shard owning the parent directory.  Mutations (mkdir/create/unlink/
// rmdir/rename) apply on the parent's shard, bump the directory's version,
// and synchronously push an invalidation to every registered host dentry
// cache (meta::Client) — the coherent-backplane model the cache cluster
// already uses — so no cached positive entry can outlive the entry it
// mirrors.
//
// QoS: when a scheduler is attached, every shard visit is classed like a
// data op — submitted to the shard's blade with a fixed byte cost, riding
// the same WFQ/token-bucket admission path; rejected ops retry after a
// deterministic backoff (metadata storms are exactly the thing admission
// control must be able to shed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "meta/namespace.h"
#include "meta/shard.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/function.h"

namespace nlss::meta {

class Client;

struct ServiceConfig {
  std::uint32_t shards = 4;
  /// Blade domain for shard placement + QoS classing (shard s lives on
  /// blade s % blades, skipping blades marked down).
  std::uint32_t blades = 4;
};

struct ServiceStats {
  std::uint64_t resolves = 0;
  std::uint64_t lookup_steps = 0;
  std::uint64_t mutations = 0;
  std::uint64_t scans = 0;
  /// Client invalidation callbacks delivered (mutations x registered
  /// clients at delivery time).
  std::uint64_t invalidations = 0;
  std::uint64_t qos_rejects = 0;  // admission rejections (op retried)
  std::uint64_t delegations = 0;  // directory-copy grants served
  std::uint64_t remaps = 0;       // shard->blade remaps (blade down/up)
  std::uint64_t moved_dirs = 0;   // explicit rebalance moves
};

class MetaService {
 public:
  using StatusCallback = util::Function<void(Status)>;
  using ResolveCallback = util::Function<void(Status, Dentry)>;
  /// Single-step lookup result: the dentry plus the parent directory's
  /// version at read time (the coherence stamp host caches record).
  using LookupCallback =
      util::Function<void(Status, Dentry, std::uint64_t dir_version)>;
  using CreateCallback = util::Function<void(Status, Ino)>;
  using ListCallback =
      util::Function<void(Status, std::vector<std::string>)>;
  using ScanCallback = util::Function<void(
      Status, std::vector<std::pair<std::string, Dentry>>)>;

  static constexpr sim::Tick kHopNs = 3000;  // one-way host<->shard hop
  static constexpr sim::Tick kMutateCostNs = 4000;  // one entry mutation

  MetaService(sim::Engine& engine, ServiceConfig config = {});
  ~MetaService();

  MetaService(const MetaService&) = delete;
  MetaService& operator=(const MetaService&) = delete;

  // --- Namespace ops (DES-timed, shard-queued) ------------------------------
  void Resolve(std::string_view path, ResolveCallback cb,
               obs::TraceContext ctx = {});
  void Mkdir(const std::string& path, StatusCallback cb,
             obs::TraceContext ctx = {});
  void Create(const std::string& path, CreateCallback cb,
              obs::TraceContext ctx = {});
  void Unlink(const std::string& path, StatusCallback cb,
              obs::TraceContext ctx = {});
  void Rmdir(const std::string& path, StatusCallback cb,
             obs::TraceContext ctx = {});
  void Rename(const std::string& from, const std::string& to,
              StatusCallback cb, obs::TraceContext ctx = {});
  /// Ordered listing of every entry name (byte order).
  void List(const std::string& path, ListCallback cb,
            obs::TraceContext ctx = {});
  /// Ordered range scan: up to `limit` entries with name >= `from`
  /// (paginated readdir; limit == 0 means all).
  void RangeScan(const std::string& path, const std::string& from,
                 std::size_t limit, ScanCallback cb,
                 obs::TraceContext ctx = {});

  /// One lookup of `name` in `dir`, served by the owning shard — the
  /// primitive host dentry caches walk with when they hold a cached
  /// ancestor and only need the tail of the path.
  void LookupStep(DirId dir, std::string_view name, LookupCallback cb,
                  obs::TraceContext ctx = {});

  /// Directory delegation (E18a hot-root fix): one scan-class visit to
  /// `dir`'s shard returns a full copy of its dentries plus the version
  /// the copy is valid at.  A client holding the copy serves lookups in
  /// `dir` locally — including authoritative negatives — until the
  /// version moves, instead of serializing every cold walk's first step
  /// on the root directory's shard.
  using DelegateCallback =
      util::Function<void(Status, DentryIndex, std::uint64_t version)>;
  void DelegateDirectory(DirId dir, DelegateCallback cb,
                         obs::TraceContext ctx = {});

  // --- Bootstrap (zero simulated time; namespace population) ----------------
  Status BootstrapMkdir(const std::string& path);
  Status BootstrapCreate(const std::string& path, Ino* out_ino = nullptr);

  // --- Shard map (controller-owned routing, rebalance-ready) ----------------
  ShardId ShardOf(DirId dir) const;
  /// Blade a shard is placed on (skips blades marked down).
  std::uint32_t BladeOf(ShardId shard) const;
  /// Rebalance: route one directory's ops to another shard.
  Status MoveDirectory(DirId dir, ShardId to);
  /// Directories the shard map currently routes to `shard`.
  std::size_t ShardDirCount(ShardId shard) const;
  /// Controller notifications: remap shards off a failed blade / rebalance
  /// back when it returns.  Bumps the map epoch.
  void OnBladeDown(std::uint32_t blade);
  void OnBladeUp(std::uint32_t blade);
  std::uint64_t map_epoch() const { return map_epoch_; }

  // --- Coherence / clients ---------------------------------------------------
  void RegisterClient(Client* client);
  void UnregisterClient(Client* client);
  /// Authoritative version of a directory (0 when it no longer exists) —
  /// what the dentry-coherence invariant checks served entries against.
  std::uint64_t DirVersion(DirId dir) const { return ns_.Version(dir); }

  // --- Wiring ----------------------------------------------------------------
  /// Class metadata ops like data ops: every shard visit is submitted to
  /// the shard's blade under `tenant` with a fixed byte cost.
  void AttachQos(qos::Scheduler* qos, qos::TenantId tenant);
  void AttachObs(obs::Hub* hub);
  obs::Hub* hub() const { return hub_; }

  // --- Introspection ---------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const MetaShard& shard(ShardId s) const { return *shards_[s]; }
  const ServiceStats& stats() const { return stats_; }
  const ServiceConfig& config() const { return config_; }
  std::size_t client_count() const { return clients_.size(); }
  /// Sum a per-client statistic over every registered client (mgmt's
  /// dentry-cache hit-rate report).
  std::uint64_t SumClientStat(
      util::FunctionRef<std::uint64_t(const Client&)> fn) const;

 private:
  /// Charge one shard visit against `dir`'s shard: hop out, queue +
  /// service on the shard (through QoS admission when attached), run
  /// `apply(result)` at service time (shard state is only read/written
  /// here), hop back, then `reply(result)`.  The hop-arrival event is the
  /// contention point — the shard executes ops strictly in arrival order —
  /// so it carries the race-detector access tag, keyed by directory.  Every
  /// closure a visit hands on captures the service and its one VisitRecord.
  template <typename Result, typename ApplyFn, typename ReplyFn>
  struct VisitRecord;
  template <typename Result, typename ApplyFn, typename ReplyFn>
  void Visit(DirId dir, MetaShard::OpClass klass, sim::Tick cost_ns,
             ApplyFn apply, ReplyFn reply, obs::TraceContext parent);

  /// Pass one shard visit through QoS admission when a scheduler is
  /// attached (deterministic backoff retry on reject); direct dispatch
  /// otherwise.
  void SubmitToBlade(ShardId shard, qos::Scheduler::Launch serve,
                     obs::TraceContext span);

  /// Walk all but the last component; cb(status, parent_dir).
  void WalkToParent(std::shared_ptr<const Path> path, std::size_t next,
                    DirId dir, util::Function<void(Status, DirId)> cb,
                    obs::TraceContext ctx);

  /// Walk to the parent, then look up the last component.
  void ResolveParts(std::shared_ptr<const Path> path, ResolveCallback done,
                    obs::TraceContext ctx);

  /// Walk to `path`'s parent, then apply `rule` there in one mutation
  /// visit to the parent's shard: the skeleton of the single-path
  /// mutations.
  void MutateLeaf(const char* name, const std::string& path,
                  Namespace::LeafRule rule, CreateCallback cb,
                  obs::TraceContext ctx);

  /// Count an applied mutation and push its invalidations to every client:
  /// each changed directory's new version, then version 0 for a removed
  /// one.
  void Publish(const Namespace::Result& r);

  /// Root-or-child span helper (inert ctx + attached hub => root trace).
  obs::TraceContext StartOp(obs::TraceContext ctx, const char* name,
                            bool* root);
  void FinishOp(obs::TraceContext op, bool root, bool ok);

  sim::Engine& engine_;
  ServiceConfig config_;
  std::vector<std::unique_ptr<MetaShard>> shards_;
  std::map<DirId, ShardId> shard_overrides_;  // rebalance moves
  std::vector<bool> blade_up_;
  std::uint64_t map_epoch_ = 1;
  Namespace ns_;
  std::vector<Client*> clients_;  // registration order: deterministic
  ServiceStats stats_;
  qos::Scheduler* qos_ = nullptr;
  qos::TenantId qos_tenant_ = qos::kAutoTenant;
  obs::Hub* hub_ = nullptr;
};

}  // namespace nlss::meta
