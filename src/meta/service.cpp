#include "meta/service.h"

#include <algorithm>
#include <tuple>

#include "check/invariant.h"
#include "check/race.h"
#include "meta/client.h"

namespace nlss::meta {

namespace {
/// QoS byte cost of one metadata shard visit — small next to data I/O, but
/// nonzero so a metadata storm draws down the tenant's token bucket and
/// queue-depth budget like any other traffic.
constexpr std::uint64_t kMetaOpCostBytes = 4096;

constexpr sim::Tick kLookupCostNs = 1500;   // one dentry lookup on a shard
constexpr sim::Tick kScanCostNs = 2500;     // ordered listing / scan base
constexpr sim::Tick kScanEntryCostNs = 50;  // per returned entry
/// Deterministic backoff before re-submitting a QoS-rejected op.
constexpr sim::Tick kQosRetryDelayNs = 500 * 1000;
constexpr std::uint64_t kMapSeed = 0x6d657461;  // shard-map hash seed ("meta")

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

MetaService::MetaService(sim::Engine& engine, ServiceConfig config)
    : engine_(engine), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.blades == 0) config_.blades = 1;
  shards_.reserve(config_.shards);
  for (ShardId s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<MetaShard>(engine_));
  }
  blade_up_.assign(config_.blades, true);
}

MetaService::~MetaService() = default;

// --- Shard map ----------------------------------------------------------------

ShardId MetaService::ShardOf(DirId dir) const {
  const auto it = shard_overrides_.find(dir);
  if (it != shard_overrides_.end()) return it->second;
  return static_cast<ShardId>(Mix64(dir ^ kMapSeed) % shards_.size());
}

std::uint32_t MetaService::BladeOf(ShardId shard) const {
  const std::uint32_t blades = static_cast<std::uint32_t>(blade_up_.size());
  const std::uint32_t base = shard % blades;
  for (std::uint32_t i = 0; i < blades; ++i) {
    const std::uint32_t b = (base + i) % blades;
    if (blade_up_[b]) return b;
  }
  return base;  // every blade down: route to the home blade regardless
}

Status MetaService::MoveDirectory(DirId dir, ShardId to) {
  if (to >= shards_.size()) return Status::kInvalidArgument;
  if (ns_.Find(dir) == nullptr) return Status::kNotFound;
  if (ShardOf(dir) == to) return Status::kOk;
  shard_overrides_[dir] = to;
  ++map_epoch_;
  ++stats_.moved_dirs;
  return Status::kOk;
}

void MetaService::OnBladeDown(std::uint32_t blade) {
  if (blade >= blade_up_.size() || !blade_up_[blade]) return;
  blade_up_[blade] = false;
  ++map_epoch_;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    if (s % blade_up_.size() == blade) ++stats_.remaps;
  }
}

void MetaService::OnBladeUp(std::uint32_t blade) {
  if (blade >= blade_up_.size() || blade_up_[blade]) return;
  blade_up_[blade] = true;
  ++map_epoch_;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    if (s % blade_up_.size() == blade) ++stats_.remaps;
  }
}

std::size_t MetaService::ShardDirCount(ShardId shard) const {
  std::size_t n = 0;
  ns_.ForEachDir([&](DirId dir) {
    if (ShardOf(dir) == shard) ++n;
  });
  return n;
}

// --- Coherence ----------------------------------------------------------------

void MetaService::RegisterClient(Client* client) {
  clients_.push_back(client);
}

void MetaService::UnregisterClient(Client* client) {
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
}

void MetaService::Publish(const Namespace::Result& r) {
  if (r.changed[0] == 0) return;  // nothing changed
  ++stats_.mutations;
  for (const DirId dir : r.changed) {
    if (dir == 0) continue;
    const std::uint64_t version = ns_.Version(dir);
    for (Client* c : clients_) c->OnDirectoryInvalidate(dir, version);
    stats_.invalidations += clients_.size();
  }
  if (r.gone == 0) return;
  shard_overrides_.erase(r.gone);
  for (Client* c : clients_) c->OnDirectoryInvalidate(r.gone, 0);
  stats_.invalidations += clients_.size();
}

// --- Shard visits -------------------------------------------------------------

template <typename Result, typename ApplyFn, typename ReplyFn>
struct MetaService::VisitRecord {
  DirId dir;
  ShardId shard;
  MetaShard::OpClass klass;
  sim::Tick cost_ns;
  obs::TraceContext span;
  qos::Scheduler::Done done;
  ApplyFn apply;
  ReplyFn reply;
  Result result{};
};

template <typename Result, typename ApplyFn, typename ReplyFn>
void MetaService::Visit(DirId dir, MetaShard::OpClass klass, sim::Tick cost_ns,
                        ApplyFn apply, ReplyFn reply,
                        obs::TraceContext parent) {
  const ShardId shard = ShardOf(dir);
  obs::TraceContext span =
      obs::StartSpan(parent, obs::Layer::kMeta, "meta.shard");
  if (span.sampled()) {
    span.tracer->Annotate(span, "shard=" + std::to_string(shard));
  }
  using Record = VisitRecord<Result, ApplyFn, ReplyFn>;
  std::unique_ptr<Record> visit(new Record{dir, shard, klass, cost_ns, span,
                                           nullptr, std::move(apply),
                                           std::move(reply)});
  // One fabric hop to reach the shard's blade, then admission.  Arrival
  // order here is what the shard's strict FIFO service preserves, so this
  // event carries the access tag: a same-tick unrelated mutation and
  // lookup of one directory would resolve before- or after-image by queue
  // order alone.
  engine_.Schedule(kHopNs, [this, visit = std::move(visit)]() mutable {
    if (visit->klass == MetaShard::OpClass::kMutation) {
      NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, visit->dir), kWrite);
    } else {
      NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, visit->dir), kRead);
    }
    const ShardId to = visit->shard;
    const obs::TraceContext at = visit->span;
    auto serve = [this, visit = std::move(visit)](
                     qos::Scheduler::Done done) mutable {
      Record& v = *visit;
      v.done = std::move(done);
      auto run = [this, visit = std::move(visit)]() mutable {
        visit->apply(visit->result);
        if (visit->done) visit->done(true);  // blade work done; reply is net
        engine_.Schedule(kHopNs, [visit = std::move(visit)]() {
          obs::EndSpan(visit->span);
          visit->reply(visit->result);
        });
      };
      shards_[v.shard]->Execute(v.klass, v.cost_ns, std::move(run));
    };
    SubmitToBlade(to, std::move(serve), at);
  });
}

void MetaService::SubmitToBlade(ShardId shard, qos::Scheduler::Launch serve,
                                obs::TraceContext span) {
  if (qos_ == nullptr) {
    serve(nullptr);
    return;
  }
  const std::uint32_t blade = BladeOf(shard) % qos_->blades();
  serve = qos_->Submit(blade, qos_tenant_, kMetaOpCostBytes, std::move(serve),
                       span);
  if (serve) {  // rejected: handed back for a deterministic retry
    ++stats_.qos_rejects;
    engine_.Schedule(kQosRetryDelayNs,
                     [this, shard, serve = std::move(serve), span]() mutable {
                       SubmitToBlade(shard, std::move(serve), span);
                     });
  }
}

// --- Lookup / resolve ---------------------------------------------------------

void MetaService::LookupStep(DirId dir, std::string_view name,
                             LookupCallback cb, obs::TraceContext ctx) {
  ++stats_.lookup_steps;
  using Found = std::tuple<Status, Dentry, std::uint64_t>;
  Visit<Found>(
      dir, MetaShard::OpClass::kLookup, kLookupCostNs,
      [this, dir, name = std::string(name)](Found& r) {
        std::get<0>(r) = Status::kNotFound;
        const Directory* d = ns_.Find(dir);
        if (d == nullptr) return;  // gone: version 0
        std::get<2>(r) = d->version;
        const auto e = d->entries.find(name);
        if (e == d->entries.end()) return;
        std::get<0>(r) = Status::kOk;
        std::get<1>(r) = e->second;
      },
      [cb = std::move(cb)](Found& r) {
        cb(std::get<0>(r), std::get<1>(r), std::get<2>(r));
      },
      ctx);
}

void MetaService::DelegateDirectory(DirId dir, DelegateCallback cb,
                                    obs::TraceContext ctx) {
  ++stats_.delegations;
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.delegate", &root);
  // Billed like a full listing: base scan cost plus every entry copied.
  const Directory* d = ns_.Find(dir);
  const std::size_t approx = d == nullptr ? 0 : d->entries.size();
  using Copy = std::tuple<Status, DentryIndex, std::uint64_t>;
  Visit<Copy>(
      dir, MetaShard::OpClass::kScan,
      kScanCostNs + kScanEntryCostNs * static_cast<sim::Tick>(approx),
      [this, dir](Copy& r) {
        const Directory* d2 = ns_.Find(dir);
        std::get<0>(r) = d2 == nullptr ? Status::kNotFound : Status::kOk;
        if (d2 == nullptr) return;
        std::get<1>(r) = d2->entries;
        std::get<2>(r) = d2->version;
      },
      [this, cb = std::move(cb), op, root](Copy& r) {
        FinishOp(op, root, std::get<0>(r) == Status::kOk);
        cb(std::get<0>(r), std::move(std::get<1>(r)), std::get<2>(r));
      },
      op);
}

void MetaService::Resolve(std::string_view path, ResolveCallback cb,
                          obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.resolve", &root);
  ++stats_.resolves;
  auto parts = std::make_shared<const Path>(path);
  auto done = [this, cb = std::move(cb), op, root](Status st, Dentry d) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, d);
  };
  if (parts->depth() == 0) {
    engine_.Schedule(0, [done = std::move(done)]() {
      done(Status::kOk, Dentry{kRootDir, true});
    });
    return;
  }
  ResolveParts(parts, std::move(done), op);
}

void MetaService::ResolveParts(std::shared_ptr<const Path> parts,
                               ResolveCallback done, obs::TraceContext ctx) {
  WalkToParent(
      parts, 0, kRootDir,
      [this, parts, done = std::move(done), ctx](Status st,
                                                 DirId parent) mutable {
        if (st != Status::kOk) {
          done(st, {});
          return;
        }
        LookupStep(parent, parts->Leaf(),
                   [done = std::move(done)](Status s, Dentry d,
                                            std::uint64_t) { done(s, d); },
                   ctx);
      },
      ctx);
}

void MetaService::WalkToParent(std::shared_ptr<const Path> parts,
                               std::size_t next, DirId dir,
                               util::Function<void(Status, DirId)> cb,
                               obs::TraceContext ctx) {
  if (next + 1 >= parts->depth()) {
    cb(Status::kOk, dir);
    return;
  }
  LookupStep(
      dir, parts->Component(next),
      [this, parts, next, cb = std::move(cb), ctx](
          Status st, Dentry d, std::uint64_t) mutable {
        if (st != Status::kOk) {
          cb(st, 0);
          return;
        }
        if (!d.is_dir) {
          cb(Status::kNotDirectory, 0);
          return;
        }
        WalkToParent(parts, next + 1, d.ino, std::move(cb), ctx);
      },
      ctx);
}

// --- Mutations ----------------------------------------------------------------

void MetaService::MutateLeaf(const char* name, const std::string& path,
                             Namespace::LeafRule rule, CreateCallback cb,
                             obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, name, &root);
  auto parts = std::make_shared<const Path>(path);
  auto done = [this, cb = std::move(cb), op, root](Status st, Ino ino) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, ino);
  };
  if (parts->depth() == 0) {
    engine_.Schedule(0, [done = std::move(done)]() {
      done(Status::kInvalidArgument, 0);
    });
    return;
  }
  WalkToParent(
      parts, 0, kRootDir,
      [this, parts, rule, done = std::move(done), op](Status st,
                                                      DirId parent) mutable {
        if (st != Status::kOk) {
          done(st, 0);
          return;
        }
        Visit<Namespace::Result>(
            parent, MetaShard::OpClass::kMutation, kMutateCostNs,
            [this, parent, rule, parts](Namespace::Result& r) {
              r = (ns_.*rule)(parent, parts->Leaf());
              Publish(r);
            },
            [done = std::move(done)](Namespace::Result& r) {
              done(r.status, r.ino);
            },
            op);
      },
      op);
}

void MetaService::Mkdir(const std::string& path, StatusCallback cb,
                        obs::TraceContext ctx) {
  MutateLeaf("meta.mkdir", path, &Namespace::Mkdir,
             [cb = std::move(cb)](Status st, Ino) { cb(st); }, ctx);
}

void MetaService::Create(const std::string& path, CreateCallback cb,
                         obs::TraceContext ctx) {
  MutateLeaf("meta.create", path, &Namespace::Create, std::move(cb), ctx);
}

void MetaService::Unlink(const std::string& path, StatusCallback cb,
                         obs::TraceContext ctx) {
  MutateLeaf("meta.unlink", path, &Namespace::Unlink,
             [cb = std::move(cb)](Status st, Ino) { cb(st); }, ctx);
}

void MetaService::Rmdir(const std::string& path, StatusCallback cb,
                        obs::TraceContext ctx) {
  MutateLeaf("meta.rmdir", path, &Namespace::Rmdir,
             [cb = std::move(cb)](Status st, Ino) { cb(st); }, ctx);
}

void MetaService::Rename(const std::string& from, const std::string& to,
                         StatusCallback cb, obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.rename", &root);
  auto from_parts = std::make_shared<const Path>(from);
  auto to_parts = std::make_shared<const Path>(to);
  auto done = [this, cb = std::move(cb), op, root](Status st) {
    FinishOp(op, root, st == Status::kOk);
    cb(st);
  };
  if (from_parts->depth() == 0 || to_parts->depth() == 0) {
    engine_.Schedule(
        0, [done = std::move(done)]() { done(Status::kInvalidArgument); });
    return;
  }
  WalkToParent(
      from_parts, 0, kRootDir,
      [this, from_parts, to_parts, done = std::move(done), op](
          Status st, DirId from_parent) mutable {
        if (st != Status::kOk) {
          done(st);
          return;
        }
        WalkToParent(
            to_parts, 0, kRootDir,
            [this, from_parts, to_parts, from_parent, done = std::move(done),
             op](Status st2, DirId to_parent) mutable {
              if (st2 != Status::kOk) {
                done(st2);
                return;
              }
              // Validate + apply both edits atomically at the source
              // parent's shard; the destination shard is charged its own
              // mutation service time to keep both queues honest.
              if (ShardOf(to_parent) != ShardOf(from_parent)) {
                shards_[ShardOf(to_parent)]->Execute(
                    MetaShard::OpClass::kMutation, kMutateCostNs, []() {});
              }
              Visit<Namespace::Result>(
                  from_parent, MetaShard::OpClass::kMutation, kMutateCostNs,
                  [this, from_parent, to_parent, from_parts,
                   to_parts](Namespace::Result& r) {
                    r = ns_.Rename(from_parent, from_parts->Leaf(), to_parent,
                                   to_parts->Leaf());
                    Publish(r);
                  },
                  [done = std::move(done)](Namespace::Result& r) {
                    done(r.status);
                  },
                  op);
            },
            op);
      },
      op);
}

// --- Ordered listing ----------------------------------------------------------

void MetaService::List(const std::string& path, ListCallback cb,
                       obs::TraceContext ctx) {
  RangeScan(path, "", 0,
            [cb = std::move(cb)](
                Status st, std::vector<std::pair<std::string, Dentry>> rows) {
              std::vector<std::string> names;
              names.reserve(rows.size());
              for (auto& r : rows) names.push_back(std::move(r.first));
              cb(st, std::move(names));
            },
            ctx);
}

void MetaService::RangeScan(const std::string& path, const std::string& from,
                            std::size_t limit, ScanCallback cb,
                            obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.scan", &root);
  ++stats_.scans;
  auto parts = std::make_shared<const Path>(path);
  auto done = [this, cb = std::move(cb), op, root](
                  Status st, std::vector<std::pair<std::string, Dentry>> rows) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, std::move(rows));
  };
  auto scan_dir = [this, from, limit, op](DirId dir, auto done) {
    const Directory* d = ns_.Find(dir);
    const std::size_t approx = d == nullptr ? 0 : d->entries.size();
    const std::size_t billed =
        limit == 0 ? approx : std::min(limit, approx);
    using Rows = std::pair<Status, std::vector<std::pair<std::string, Dentry>>>;
    Visit<Rows>(
        dir, MetaShard::OpClass::kScan,
        kScanCostNs + kScanEntryCostNs * static_cast<sim::Tick>(billed),
        [this, dir, from, limit](Rows& r) {
          r.first = ns_.Scan(dir, from, limit, &r.second);
        },
        [done = std::move(done)](Rows& r) {
          done(r.first, std::move(r.second));
        },
        op);
  };
  if (parts->depth() == 0) {
    scan_dir(kRootDir, std::move(done));
    return;
  }
  ResolveParts(parts,
               [scan_dir = std::move(scan_dir),
                done = std::move(done)](Status st, Dentry d) mutable {
                 if (st != Status::kOk) {
                   done(st, {});
                   return;
                 }
                 if (!d.is_dir) {
                   done(Status::kNotDirectory, {});
                   return;
                 }
                 scan_dir(d.ino, std::move(done));
               },
               op);
}

// --- Bootstrap ----------------------------------------------------------------

Status MetaService::BootstrapMkdir(const std::string& path) {
  return ns_.AtPath(path, &Namespace::Mkdir).status;
}

Status MetaService::BootstrapCreate(const std::string& path, Ino* out_ino) {
  const Namespace::Result r = ns_.AtPath(path, &Namespace::Create);
  if (r.status == Status::kOk && out_ino != nullptr) *out_ino = r.ino;
  return r.status;
}

// --- Wiring -------------------------------------------------------------------

void MetaService::AttachQos(qos::Scheduler* qos, qos::TenantId tenant) {
  qos_ = qos;
  qos_tenant_ = tenant;
}

std::uint64_t MetaService::SumClientStat(
    util::FunctionRef<std::uint64_t(const Client&)> fn) const {
  std::uint64_t sum = 0;
  for (const Client* c : clients_) sum += fn(*c);
  return sum;
}

void MetaService::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) return;
  obs::Registry& m = hub_->metrics();
  m.AddCallback("nlss_meta_resolves_total", "Service-side path resolves",
                [this] { return static_cast<double>(stats_.resolves); });
  m.AddCallback("nlss_meta_lookup_steps_total",
                "Single-component lookups served by shards",
                [this] { return static_cast<double>(stats_.lookup_steps); });
  m.AddCallback("nlss_meta_mutations_total",
                "Applied namespace mutations (mkdir/create/unlink/rmdir/rename)",
                [this] { return static_cast<double>(stats_.mutations); });
  m.AddCallback("nlss_meta_scans_total", "Ordered listings and range scans",
                [this] { return static_cast<double>(stats_.scans); });
  m.AddCallback("nlss_meta_invalidations_total",
                "Dentry-cache invalidation callbacks delivered",
                [this] { return static_cast<double>(stats_.invalidations); });
  m.AddCallback("nlss_meta_qos_rejects_total",
                "Metadata ops bounced by QoS admission (retried)",
                [this] { return static_cast<double>(stats_.qos_rejects); });
  m.AddCallback("nlss_meta_delegations_total",
                "Directory-copy delegation grants served (E18a)",
                [this] { return static_cast<double>(stats_.delegations); });
  m.AddCallback("nlss_meta_map_epoch", "Shard-map epoch (bumped on remaps)",
                [this] { return static_cast<double>(map_epoch_); });
  for (ShardId s = 0; s < shards_.size(); ++s) {
    const obs::Labels labels = {{"shard", std::to_string(s)}};
    m.AddCallback(
        "nlss_meta_shard_ops_total", "Metadata ops served by this shard",
        [this, s] { return static_cast<double>(shards_[s]->ops()); }, labels);
    m.AddCallback(
        "nlss_meta_shard_busy_ns", "Service time accumulated by this shard",
        [this, s] { return static_cast<double>(shards_[s]->stats().busy_ns); },
        labels);
    m.AddCallback(
        "nlss_meta_shard_dirs", "Directories currently homed on this shard",
        [this, s] { return static_cast<double>(ShardDirCount(s)); },
        labels);
  }
  m.AddCallback("nlss_meta_cache_resolves_total",
                "Host dentry-cache resolves (all clients)", [this] {
                  return static_cast<double>(SumClientStat(
                      [](const Client& c) { return c.stats().resolves; }));
                });
  m.AddCallback("nlss_meta_cache_hits_total",
                "Host dentry-cache full-path hits (all clients)", [this] {
                  return static_cast<double>(SumClientStat(
                      [](const Client& c) { return c.stats().full_hits; }));
                });
}

// --- Spans --------------------------------------------------------------------

obs::TraceContext MetaService::StartOp(obs::TraceContext ctx, const char* name,
                                       bool* root) {
  *root = false;
  if (ctx.sampled()) return obs::StartSpan(ctx, obs::Layer::kMeta, name);
  if (hub_ == nullptr) return {};
  *root = true;
  return hub_->tracer().StartTrace(obs::Layer::kMeta, name);
}

void MetaService::FinishOp(obs::TraceContext op, bool root, bool ok) {
  if (!op.sampled()) return;
  if (root) {
    op.tracer->EndTrace(op, ok);
  } else {
    op.tracer->EndSpan(op);
  }
}

}  // namespace nlss::meta
