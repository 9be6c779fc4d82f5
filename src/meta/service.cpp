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
  return static_cast<ShardId>(Mix64(dir ^ config_.map_seed) % shards_.size());
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

void MetaService::Visit(DirId dir, MetaShard::OpClass klass, sim::Tick cost_ns,
                        util::Function<void()> apply,
                        util::Function<void()> reply,
                        obs::TraceContext parent) {
  const ShardId shard = ShardOf(dir);
  obs::TraceContext span =
      obs::StartSpan(parent, obs::Layer::kMeta, "meta.shard");
  if (span.sampled()) {
    span.tracer->Annotate(span, "shard=" + std::to_string(shard));
  }
  auto serve = [this, shard, klass, cost_ns, apply = std::move(apply),
                reply = std::move(reply),
                span](qos::Scheduler::Done done) mutable {
    shards_[shard]->Execute(
        klass, cost_ns,
        [this, apply = std::move(apply), reply = std::move(reply), span,
         done = std::move(done)]() mutable {
          apply();
          if (done) done(true);  // blade work finished; reply hop is network
          engine_.Schedule(config_.hop_ns, [reply = std::move(reply), span]() {
            obs::EndSpan(span);
            reply();
          });
        });
  };
  // One fabric hop to reach the shard's blade, then admission.  Arrival
  // order here is what the shard's strict FIFO service preserves, so this
  // event carries the access tag: a same-tick unrelated mutation and
  // lookup of one directory would resolve before- or after-image by queue
  // order alone.
  const bool mutation = klass == MetaShard::OpClass::kMutation;
  engine_.Schedule(config_.hop_ns,
                   [this, shard, dir, mutation, serve = std::move(serve),
                    span]() mutable {
                     if (mutation) {
                       NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, dir),
                                   kWrite);
                     } else {
                       NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, dir),
                                   kRead);
                     }
                     SubmitToBlade(shard, std::move(serve), span);
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
    engine_.Schedule(config_.qos_retry_delay_ns,
                     [this, shard, serve = std::move(serve), span]() mutable {
                       SubmitToBlade(shard, std::move(serve), span);
                     });
  }
}

// --- Lookup / resolve ---------------------------------------------------------

void MetaService::LookupStep(DirId dir, const std::string& name,
                             LookupCallback cb, obs::TraceContext ctx) {
  ++stats_.lookup_steps;
  auto result = std::make_shared<std::tuple<Status, Dentry, std::uint64_t>>(
      Status::kNotFound, Dentry{}, 0);
  Visit(
      dir, MetaShard::OpClass::kLookup, config_.lookup_cost_ns,
      [this, dir, name, result]() {
        const Directory* d = ns_.Find(dir);
        if (d == nullptr) return;  // stays kNotFound, version 0
        const Dentry* e = d->entries.Find(name);
        std::get<2>(*result) = d->version;
        if (e == nullptr) return;
        std::get<0>(*result) = Status::kOk;
        std::get<1>(*result) = *e;
      },
      [cb = std::move(cb), result]() {
        cb(std::get<0>(*result), std::get<1>(*result), std::get<2>(*result));
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
  auto result =
      std::make_shared<std::tuple<Status, std::map<std::string, Dentry>,
                                  std::uint64_t>>(
          Status::kNotFound, std::map<std::string, Dentry>{}, 0);
  Visit(
      dir, MetaShard::OpClass::kScan,
      config_.scan_cost_ns +
          config_.scan_entry_cost_ns * static_cast<sim::Tick>(approx),
      [this, dir, result]() {
        const Directory* d2 = ns_.Find(dir);
        if (d2 == nullptr) return;  // stays kNotFound
        std::get<0>(*result) = Status::kOk;
        d2->entries.ForEach([&](const std::string& name, const Dentry& de) {
          std::get<1>(*result).emplace(name, de);
        });
        std::get<2>(*result) = d2->version;
      },
      [this, cb = std::move(cb), result, op, root]() {
        FinishOp(op, root, std::get<0>(*result) == Status::kOk);
        cb(std::get<0>(*result), std::move(std::get<1>(*result)),
           std::get<2>(*result));
      },
      op);
}

void MetaService::Resolve(const std::string& path, ResolveCallback cb,
                          obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.resolve", &root);
  ++stats_.resolves;
  auto parts = std::make_shared<std::vector<std::string>>(SplitPath(path));
  auto done = [this, cb = std::move(cb), op, root](Status st, Dentry d) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, d);
  };
  if (parts->empty()) {
    engine_.Schedule(0, [done = std::move(done)]() {
      done(Status::kOk, Dentry{kRootDir, true});
    });
    return;
  }
  ResolveParts(parts, std::move(done), op);
}

void MetaService::ResolveParts(std::shared_ptr<std::vector<std::string>> parts,
                               ResolveCallback done, obs::TraceContext ctx) {
  WalkToParent(
      parts, 0, kRootDir,
      [this, parts, done = std::move(done), ctx](Status st,
                                                 DirId parent) mutable {
        if (st != Status::kOk) {
          done(st, {});
          return;
        }
        LookupStep(parent, parts->back(),
                   [done = std::move(done)](Status s, Dentry d,
                                            std::uint64_t) { done(s, d); },
                   ctx);
      },
      ctx);
}

void MetaService::WalkToParent(
    std::shared_ptr<std::vector<std::string>> parts, std::size_t next,
    DirId dir, util::Function<void(Status, DirId)> cb, obs::TraceContext ctx) {
  if (next + 1 >= parts->size()) {
    cb(Status::kOk, dir);
    return;
  }
  LookupStep(
      dir, (*parts)[next],
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
  auto parts = std::make_shared<std::vector<std::string>>(SplitPath(path));
  auto done = [this, cb = std::move(cb), op, root](Status st, Ino ino) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, ino);
  };
  if (parts->empty()) {
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
        auto result = std::make_shared<Namespace::Result>();
        Visit(
            parent, MetaShard::OpClass::kMutation, config_.mutate_cost_ns,
            [this, parent, rule, leaf = parts->back(), result]() {
              *result = (ns_.*rule)(parent, leaf);
              Publish(*result);
            },
            [done = std::move(done), result]() {
              done(result->status, result->ino);
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
  auto from_parts = std::make_shared<std::vector<std::string>>(SplitPath(from));
  auto to_parts = std::make_shared<std::vector<std::string>>(SplitPath(to));
  auto done = [this, cb = std::move(cb), op, root](Status st) {
    FinishOp(op, root, st == Status::kOk);
    cb(st);
  };
  if (from_parts->empty() || to_parts->empty()) {
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
                    MetaShard::OpClass::kMutation, config_.mutate_cost_ns,
                    []() {});
              }
              auto result = std::make_shared<Status>(Status::kNotFound);
              Visit(
                  from_parent, MetaShard::OpClass::kMutation,
                  config_.mutate_cost_ns,
                  [this, from_parent, to_parent,
                   from_leaf = from_parts->back(),
                   to_leaf = to_parts->back(), result]() {
                    const Namespace::Result r =
                        ns_.Rename(from_parent, from_leaf, to_parent, to_leaf);
                    Publish(r);
                    *result = r.status;
                  },
                  [done = std::move(done), result]() { done(*result); }, op);
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
  auto parts = std::make_shared<std::vector<std::string>>(SplitPath(path));
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
    auto result = std::make_shared<
        std::pair<Status, std::vector<std::pair<std::string, Dentry>>>>();
    result->first = Status::kNotFound;
    Visit(
        dir, MetaShard::OpClass::kScan,
        config_.scan_cost_ns +
            config_.scan_entry_cost_ns * static_cast<sim::Tick>(billed),
        [this, dir, from, limit, result]() {
          result->first = ns_.Scan(dir, from, limit, &result->second);
        },
        [done = std::move(done), result]() {
          done(result->first, std::move(result->second));
        },
        op);
  };
  if (parts->empty()) {
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
