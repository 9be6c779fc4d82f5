#include "controller/system.h"

#include <cassert>

#include "check/invariant.h"
#include "meta/service.h"

namespace nlss::controller {

StorageSystem::StorageSystem(sim::Engine& engine, net::Fabric& fabric,
                             SystemConfig config)
    : engine_(engine), fabric_(fabric), config_(std::move(config)) {
  assert(config_.controllers >= 1);

  // Host-side switch and controller blades; full backplane mesh between
  // blades plus a host-side FC link from the switch to every blade.
  switch_node_ = fabric_.AddNode(config_.name + "-switch");
  for (std::uint32_t i = 0; i < config_.controllers; ++i) {
    const net::NodeId n =
        fabric_.AddNode(config_.name + "-ctrl" + std::to_string(i));
    fabric_.Connect(switch_node_, n, config_.host_link);
    for (const net::NodeId prev : controller_nodes_) {
      fabric_.Connect(prev, n, config_.backplane);
    }
    controller_nodes_.push_back(n);
  }

  // Disk farms and RAID groups (each group on its own shelf).
  for (std::uint32_t g = 0; g < config_.raid_groups; ++g) {
    farms_.push_back(std::make_unique<disk::DiskFarm>(
        engine_, config_.disk_profile, config_.disks_per_group,
        config_.name + "-g" + std::to_string(g) + "-d"));
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farms_[g]->size(); ++i) {
      disks.push_back(&farms_[g]->at(i));
    }
    raid::RaidGroup::Config rc;
    rc.level = config_.raid_level;
    rc.unit_blocks = config_.raid_unit_blocks;
    groups_.push_back(
        std::make_unique<raid::RaidGroup>(engine_, std::move(disks), rc));
  }

  std::vector<raid::RaidGroup*> group_ptrs;
  for (const auto& g : groups_) group_ptrs.push_back(g.get());
  pool_ = std::make_unique<virt::StoragePool>(std::move(group_ptrs),
                                              config_.extent_blocks);

  cache_ = std::make_unique<cache::CacheCluster>(engine_, fabric_,
                                                 controller_nodes_,
                                                 config_.cache);
  // The flush coalescer audits the representative write ids of the pages
  // it merges against the idempotency index (ghost-write invariants).
  cache_->SetDedupIndex(&dedup_);
  if (config_.tier.enabled) {
    tier_ = std::make_unique<tier::TierManager>(engine_, *cache_,
                                                config_.tier);
    tier_->SetDedupIndex(&dedup_);
    cache_->AttachTier(tier_.get());
  }
  rebuild_ = std::make_unique<raid::RebuildEngine>(engine_);
  for (std::uint32_t i = 0; i < config_.controllers; ++i) {
    rebuild_->AddWorker(&cache_->compute(i));
  }
  chargeback_ = std::make_unique<virt::ChargeBack>(engine_);
}

StorageSystem::~StorageSystem() = default;

net::NodeId StorageSystem::AttachHost(const std::string& name) {
  const net::NodeId host = fabric_.AddNode(name);
  fabric_.Connect(host, switch_node_, config_.host_link);
  return host;
}

VolumeId StorageSystem::CreateVolume(const std::string& tenant,
                                     std::uint64_t bytes, bool preallocate) {
  const std::uint32_t bs = pool_->block_size();
  const std::uint64_t blocks = (bytes + bs - 1) / bs;
  const VolumeId id = static_cast<VolumeId>(volumes_.size());
  volumes_.push_back(std::make_unique<virt::DemandMappedVolume>(
      engine_, *pool_, blocks, tenant, id));
  if (preallocate) {
    const bool ok = volumes_.back()->Preallocate();
    assert(ok && "pool too small for preallocated volume");
    (void)ok;
  }
  cache_->RegisterVolume(id, volumes_.back().get());
  chargeback_->Track(volumes_.back().get());
  if (qos_ != nullptr) {
    const auto t = qos_->registry().FindByName(tenant);
    if (t.has_value()) qos_->registry().BindVolume(id, *t);
  }
  return id;
}

cache::ControllerId StorageSystem::PickController(VolumeId vol) {
  switch (config_.balancing) {
    case Balancing::kStaticByVolume: {
      // Traditional LUN ownership; fall over to the next blade if dead.
      for (std::uint32_t k = 0; k < config_.controllers; ++k) {
        const cache::ControllerId c = (vol + k) % config_.controllers;
        if (cache_->IsAlive(c)) return c;
      }
      return 0;
    }
    case Balancing::kRoundRobin:
    default: {
      for (std::uint32_t k = 0; k < config_.controllers; ++k) {
        const cache::ControllerId c =
            (rr_next_ + k) % config_.controllers;
        if (cache_->IsAlive(c)) {
          rr_next_ = (c + 1) % config_.controllers;
          return c;
        }
      }
      return 0;
    }
  }
}

qos::TenantId StorageSystem::ResolveTenant(VolumeId vol,
                                           qos::TenantId hint) const {
  if (hint != qos::kAutoTenant) return hint;
  if (qos_ == nullptr) return qos::kDefaultTenant;
  return qos_->registry().ResolveVolume(vol);
}

void StorageSystem::AttachQos(qos::Scheduler* qos) {
  qos_ = qos;
  if (tier_ != nullptr) {
    // Demotion batches ride admission as their own background tenant so
    // tier traffic queues behind foreground classes.
    tier_->AttachQos(qos_, qos_ == nullptr
                               ? qos::kDefaultTenant
                               : qos_->registry().Register(
                                     "tier", qos::ServiceClass::kBronze));
  }
  if (qos_ == nullptr) return;
  // Bind existing volumes by tenant name so auto-resolution works for
  // volumes created before the scheduler was attached.
  for (VolumeId id = 0; id < volumes_.size(); ++id) {
    const auto t = qos_->registry().FindByName(volumes_[id]->tenant());
    if (t.has_value()) qos_->registry().BindVolume(id, *t);
  }
  RegisterQosMetrics();
}

void StorageSystem::RegisterQosMetrics() {
  if (hub_ == nullptr || qos_ == nullptr) return;
  obs::Registry& m = hub_->metrics();
  // One labelled series per tenant known at attach time, alongside the
  // flat aggregates (a single Prometheus scrape covers the whole
  // multi-tenant story).  Values pull from the SLO tracker at render time.
  for (const qos::Tenant& t : qos_->registry().tenants()) {
    const qos::TenantId id = t.id;
    const obs::Labels labels = {{"tenant", t.name}};
    m.AddCallback(
        "nlss_qos_ops_total", "Ops completed through QoS admission",
        [this, id] {
          return qos_ == nullptr ? 0.0 : double(qos_->slo().stats(id).ops);
        },
        labels);
    m.AddCallback(
        "nlss_qos_rejected_total", "Admission-control rejections",
        [this, id] {
          return qos_ == nullptr ? 0.0
                                 : double(qos_->slo().stats(id).rejected);
        },
        labels);
    m.AddCallback(
        "nlss_qos_bytes_total", "Bytes completed through QoS admission",
        [this, id] {
          return qos_ == nullptr ? 0.0 : double(qos_->slo().stats(id).bytes);
        },
        labels);
    m.AddCallback(
        "nlss_qos_hedges_total", "Hedge-budget grants (TryHedge)",
        [this, id] {
          return qos_ == nullptr ? 0.0 : double(qos_->slo().stats(id).hedges);
        },
        labels);
    m.AddCallback(
        "nlss_qos_hedges_shed_total",
        "Hedges denied by budget or admission pressure",
        [this, id] {
          return qos_ == nullptr ? 0.0
                                 : double(qos_->slo().stats(id).hedges_shed);
        },
        labels);
  }
}

void StorageSystem::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  // Background work (flush write-backs, rebuild jobs) roots its own spans.
  cache_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
  rebuild_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
  if (tier_ != nullptr) {
    tier_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
    tier_->AttachObs(hub_);
  }
  if (hub_ == nullptr) {
    reads_total_ = writes_total_ = io_failures_total_ = nullptr;
    read_latency_ns_ = write_latency_ns_ = nullptr;
    return;
  }
  obs::Registry& m = hub_->metrics();
  reads_total_ = &m.counter("nlss_controller_reads_total",
                            "Host/blade read requests entered");
  writes_total_ = &m.counter("nlss_controller_writes_total",
                             "Host/blade write requests entered");
  io_failures_total_ = &m.counter("nlss_controller_io_failures_total",
                                  "Requests that completed with an error");
  read_latency_ns_ = &m.histogram("nlss_controller_read_latency_ns",
                                  "End-to-end read latency incl. retries");
  write_latency_ns_ = &m.histogram("nlss_controller_write_latency_ns",
                                   "End-to-end write latency incl. retries");
  // Pull-gauges bridging the existing per-module stats structs; values are
  // read at render time so no double bookkeeping happens on the hot path.
  m.AddCallback("nlss_cache_ops_total", "Cache page operations",
                [this] { return double(cache_->Totals().ops); });
  m.AddCallback("nlss_cache_local_hits_total", "Pages served from local cache",
                [this] { return double(cache_->Totals().local_hits); });
  m.AddCallback("nlss_cache_remote_hits_total",
                "Pages forwarded from a peer cache",
                [this] { return double(cache_->Totals().remote_hits); });
  m.AddCallback("nlss_cache_misses_total", "Pages read from backing store",
                [this] { return double(cache_->Totals().misses); });
  m.AddCallback("nlss_cache_bytes_served_total", "Bytes served by the cache",
                [this] { return double(cache_->Totals().bytes_served); });
  m.AddCallback("nlss_cache_flushes_total", "Dirty-page write-backs",
                [this] { return double(cache_->Totals().flushes); });
  m.AddCallback("nlss_cache_evictions_total", "Frames evicted",
                [this] { return double(cache_->Totals().evictions); });
  m.AddCallback("nlss_cache_dirty_pages", "Dirty pages currently cached",
                [this] { return double(cache_->DirtyPages()); });
  m.AddCallback("nlss_cache_cached_pages", "Pages currently cached",
                [this] { return double(cache_->CachedPages()); });
  m.AddCallback("nlss_host_write_dedup_hits_total",
                "Duplicate write arrivals absorbed by the blade-side index",
                [this] { return double(dedup_.stats().dedup_hits); });
  m.AddCallback("nlss_host_ghost_writes_total",
                "Writes dropped at the blade after the writer reported failure",
                [this] { return double(dedup_.stats().ghost_writes); });
  m.AddCallback("nlss_write_dedup_entries",
                "Live entries in the write idempotency index",
                [this] { return double(dedup_.entries()); });
  m.AddCallback("nlss_fabric_bytes_carried_total",
                "Bytes carried by all fabric links",
                [this] { return double(fabric_.TotalBytesCarried()); });
  m.AddCallback("nlss_fabric_dropped_total",
                "Messages dropped (down node/link, no handler)",
                [this] { return double(fabric_.dropped()); });
  m.AddCallback("nlss_qos_ops_total", "Ops completed through QoS admission",
                [this] {
                  if (qos_ == nullptr) return 0.0;
                  std::uint64_t n = 0;  // exact: FP sums are order-sensitive
                  for (const auto& [t, s] : qos_->slo().all()) n += s.ops;
                  return double(n);
                });
  m.AddCallback("nlss_qos_rejected_total", "Admission-control rejections",
                [this] {
                  if (qos_ == nullptr) return 0.0;
                  std::uint64_t n = 0;
                  for (const auto& [t, s] : qos_->slo().all()) {
                    n += s.rejected;
                  }
                  return double(n);
                });
  RegisterQosMetrics();
}

obs::TraceContext StorageSystem::StartOp(obs::TraceContext ctx,
                                         const char* name, VolumeId vol,
                                         bool* root) {
  *root = false;
  const std::string tenant =
      vol < volumes_.size() ? volumes_[vol]->tenant() : std::string();
  if (ctx.sampled()) {
    ctx = obs::StartSpan(ctx, obs::Layer::kController, name);
    if (!tenant.empty()) ctx.tracer->SetTenant(ctx, tenant);
    return ctx;
  }
  if (hub_ == nullptr) return {};
  ctx = hub_->tracer().StartTrace(obs::Layer::kController, name, tenant);
  *root = ctx.sampled();
  return ctx;
}

void StorageSystem::EndOp(util::Histogram* latency, sim::Tick t0,
                          obs::TraceContext ctx, bool root, bool ok) {
  if (latency != nullptr) {
    latency->Record(engine_.now() - t0);
    if (!ok) io_failures_total_->Increment();
  }
  if (root) {
    ctx.tracer->EndTrace(ctx, ok);
  } else {
    obs::EndSpan(ctx);
  }
}

void StorageSystem::Read(net::NodeId host, VolumeId vol, std::uint64_t offset,
                         std::uint32_t length, ReadCallback cb,
                         std::uint8_t priority, qos::TenantId tenant,
                         obs::TraceContext ctx) {
  if (!FitsVolume(vol, offset, length)) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  if (reads_total_ != nullptr) reads_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.read", vol, &root);
  const sim::Tick t0 = engine_.now();
  ReadAttempt(host, vol, offset, length, priority, tenant, config_.io_retries,
              [this, t0, ctx, root, cb = std::move(cb)](bool ok,
                                                        util::Payload data) {
                EndOp(read_latency_ns_, t0, ctx, root, ok);
                cb(ok, std::move(data));
              },
              ctx);
}

void StorageSystem::ReadAttempt(net::NodeId host, VolumeId vol,
                                std::uint64_t offset, std::uint32_t length,
                                std::uint8_t priority, qos::TenantId tenant,
                                std::uint32_t retries_left, ReadCallback cb,
                                obs::TraceContext ctx) {
  ReadOnce(host, PickController(vol), vol, offset, length, priority, tenant,
           [this, host, vol, offset, length, priority, tenant, retries_left,
            cb = std::move(cb), ctx](bool ok, util::Payload data) mutable {
             if (ok || retries_left == 0) {
               cb(ok, std::move(data));
               return;
             }
             engine_.Schedule(config_.retry_delay_ns,
                              [this, host, vol, offset, length, priority,
                               tenant, retries_left, cb = std::move(cb),
                               ctx]() mutable {
                                ReadAttempt(host, vol, offset, length,
                                            priority, tenant, retries_left - 1,
                                            std::move(cb), ctx);
                              });
           },
           ctx);
}

void StorageSystem::ReadVia(net::NodeId host, cache::ControllerId via,
                            VolumeId vol, std::uint64_t offset,
                            std::uint32_t length, ReadCallback cb,
                            std::uint8_t priority, qos::TenantId tenant,
                            obs::TraceContext ctx) {
  if (!FitsVolume(vol, offset, length)) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  if (reads_total_ != nullptr) reads_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.read", vol, &root);
  const sim::Tick t0 = engine_.now();
  ReadOnce(host, via, vol, offset, length, priority, tenant,
           [this, t0, ctx, root, cb = std::move(cb)](bool ok,
                                                     util::Payload data) {
             EndOp(read_latency_ns_, t0, ctx, root, ok);
             cb(ok, std::move(data));
           },
           ctx);
}

void StorageSystem::WriteVia(net::NodeId host, cache::ControllerId via,
                             VolumeId vol, std::uint64_t offset,
                             util::Payload data, cache::WriteId wid,
                             WriteCallback cb,
                             std::uint8_t priority, qos::TenantId tenant,
                             obs::TraceContext ctx) {
  // The host initiator re-drives and hedges through this entry: every
  // write must be attributed so the blades can deduplicate it.
  NLSS_INVARIANT(kCache, wid.valid(),
                 "WriteVia without a write id (vol %u offset %llu)", vol,
                 static_cast<unsigned long long>(offset));
  if (!FitsVolume(vol, offset, data.size())) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  if (writes_total_ != nullptr) writes_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.write", vol, &root);
  const sim::Tick t0 = engine_.now();
  WriteOnce(host, via, vol, offset, std::move(data),
            config_.cache.replication, priority, tenant, wid,
            [this, t0, ctx, root, cb = std::move(cb)](bool ok) {
              EndOp(write_latency_ns_, t0, ctx, root, ok);
              cb(ok);
            },
            ctx);
}

void StorageSystem::ReadOnce(net::NodeId host, cache::ControllerId ctrl,
                             VolumeId vol, std::uint64_t offset,
                             std::uint32_t length, std::uint8_t priority,
                             qos::TenantId tenant, ReadCallback cb,
                             obs::TraceContext ctx) {
  auto shared_cb = std::make_shared<ReadCallback>(std::move(cb));
  // The blade attempt, parameterized on the QoS completion hook (empty
  // when no scheduler is attached).
  auto issue = [this, host, ctrl, vol, offset, length, priority, shared_cb,
                ctx](qos::Scheduler::Done done) {
    if (done) {  // every path then releases the QoS slot before replying
      *shared_cb = [done = std::move(done), cb = std::move(*shared_cb)](
                       bool ok, util::Payload data) {
        done(ok);
        cb(ok, std::move(data));
      };
    }
    // Request command to the blade (small), response data to the host.
    fabric_.Send(
        host, controller_nodes_[ctrl], config_.cache.ctrl_msg_bytes,
        [this, host, ctrl, vol, offset, length, priority, shared_cb, ctx] {
          cache_->Read(
              ctrl, vol, offset, length,
              [this, host, ctrl, shared_cb, ctx](bool ok,
                                                 util::Payload data) {
                if (!ok) {
                  (*shared_cb)(false, {});
                  return;
                }
                const std::size_t bytes = data.size();
                fabric_.Send(
                    controller_nodes_[ctrl], host, bytes,
                    [shared_cb, data = std::move(data)] {
                      (*shared_cb)(true, data);
                    },
                    [shared_cb] { (*shared_cb)(false, {}); }, ctx);
              },
              priority, ctx);
        },
        [shared_cb] { (*shared_cb)(false, {}); },
        ctx);
  };
  if (qos_ == nullptr) {
    issue(nullptr);
    return;
  }
  // Admission rejected (backpressure) hands `issue` back: fail the attempt;
  // the multipath retry loop re-submits after retry_delay_ns.
  if (qos_->Submit(ctrl, ResolveTenant(vol, tenant), length, std::move(issue),
                   ctx)) {
    engine_.Schedule(0, [shared_cb] { (*shared_cb)(false, {}); });
  }
}

void StorageSystem::Write(net::NodeId host, VolumeId vol, std::uint64_t offset,
                          util::Payload data, WriteCallback cb,
                          qos::TenantId tenant, obs::TraceContext ctx) {
  WriteReplicated(host, vol, offset, std::move(data),
                  config_.cache.replication, std::move(cb), 0, tenant, ctx);
}

void StorageSystem::WriteReplicated(net::NodeId host, VolumeId vol,
                                    std::uint64_t offset, util::Payload data,
                                    std::uint32_t replication,
                                    WriteCallback cb, std::uint8_t priority,
                                    qos::TenantId tenant,
                                    obs::TraceContext ctx) {
  if (!FitsVolume(vol, offset, data.size())) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  if (writes_total_ != nullptr) writes_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.write", vol, &root);
  const sim::Tick t0 = engine_.now();
  WriteAttempt(host, vol, offset, std::move(data), replication, priority,
               tenant, config_.io_retries,
               [this, t0, ctx, root, cb = std::move(cb)](bool ok) {
                 EndOp(write_latency_ns_, t0, ctx, root, ok);
                 cb(ok);
               },
               ctx);
}

void StorageSystem::WriteAttempt(net::NodeId host, VolumeId vol,
                                 std::uint64_t offset, util::Payload data,
                                 std::uint32_t replication,
                                 std::uint8_t priority, qos::TenantId tenant,
                                 std::uint32_t retries_left, WriteCallback cb,
                                 obs::TraceContext ctx) {
  // Legacy driver loop: unattributed ({} write id, no dedup).  Safe by
  // construction — each retry rewrites the identical payload at the
  // identical offset and the loop never overlaps attempts.
  WriteOnce(host, PickController(vol), vol, offset, data, replication,
            priority, tenant, cache::WriteId{},
            [this, host, vol, offset, data, replication, priority, tenant,
             retries_left, cb = std::move(cb), ctx](bool ok) mutable {
              if (ok || retries_left == 0) {
                cb(ok);
                return;
              }
              engine_.Schedule(
                  config_.retry_delay_ns,
                  [this, host, vol, offset, data = std::move(data),
                   replication, priority, tenant, retries_left,
                   cb = std::move(cb), ctx]() mutable {
                    WriteAttempt(host, vol, offset, std::move(data),
                                 replication, priority, tenant,
                                 retries_left - 1, std::move(cb), ctx);
                  });
            },
            ctx);
}

void StorageSystem::WriteOnce(net::NodeId host, cache::ControllerId ctrl,
                              VolumeId vol, std::uint64_t offset,
                              util::Payload payload,
                              std::uint32_t replication, std::uint8_t priority,
                              qos::TenantId tenant, cache::WriteId wid,
                              WriteCallback cb, obs::TraceContext ctx) {
  auto shared_cb = std::make_shared<WriteCallback>(std::move(cb));
  const std::size_t bytes = payload.size();
  auto issue = [this, host, ctrl, vol, offset, replication, priority,
                payload = std::move(payload), wid, shared_cb,
                ctx](qos::Scheduler::Done done) {
    if (done) {  // every path then releases the QoS slot before replying
      *shared_cb = [done = std::move(done),
                    cb = std::move(*shared_cb)](bool ok) {
        done(ok);
        cb(ok);
      };
    }
    // Data travels host -> blade, then the ack returns blade -> host.
    fabric_.Send(
        host, controller_nodes_[ctrl], payload.size(),
        [this, host, ctrl, vol, offset, replication, priority, payload, wid,
         shared_cb, ctx] {
          // Payload has landed on the blade: consult the cluster-wide
          // idempotency index before touching the data image.  A duplicate
          // it absorbs acks through the same continuation, so every
          // arrival acks (and releases its QoS slot) exactly once.
          cache::WriteDedupIndex::Waiter outcome = dedup_.Begin(
              wid, [this, host, ctrl, shared_cb, ctx](bool ok) {
                if (!ok) {
                  (*shared_cb)(false);
                  return;
                }
                fabric_.Send(
                    controller_nodes_[ctrl], host,
                    config_.cache.ctrl_msg_bytes,
                    [shared_cb] { (*shared_cb)(true); },
                    [shared_cb] { (*shared_cb)(false); }, ctx);
              });
          if (!outcome) return;  // absorbed
          cache_->WriteWithReplication(
              ctrl, vol, offset, payload, replication,
              [this, wid, outcome = std::move(outcome)](bool ok) {
                dedup_.Complete(wid, ok);
                outcome(ok);
              },
              priority, ctx, wid);
        },
        [shared_cb] { (*shared_cb)(false); },
        ctx);
  };
  if (qos_ == nullptr) {
    issue(nullptr);
    return;
  }
  if (qos_->Submit(ctrl, ResolveTenant(vol, tenant), bytes, std::move(issue),
                   ctx)) {  // rejected
    engine_.Schedule(0, [shared_cb] { (*shared_cb)(false); });
  }
}

void StorageSystem::BladeRead(cache::ControllerId via, VolumeId vol,
                              std::uint64_t offset, std::uint32_t length,
                              std::uint8_t priority, qos::TenantId tenant,
                              ReadCallback cb, obs::TraceContext ctx) {
  if (reads_total_ != nullptr) reads_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.read", vol, &root);
  const sim::Tick t0 = engine_.now();
  auto shared_cb = std::make_shared<ReadCallback>(
      [this, t0, ctx, root, cb = std::move(cb)](bool ok, util::Payload data) {
        EndOp(read_latency_ns_, t0, ctx, root, ok);
        cb(ok, std::move(data));
      });
  auto issue = [this, via, vol, offset, length, priority, shared_cb,
                ctx](qos::Scheduler::Done done) {
    cache_->Read(
        via, vol, offset, length,
        [shared_cb, done = std::move(done)](bool ok, util::Payload data) {
          if (done) done(ok);
          (*shared_cb)(ok, std::move(data));
        },
        priority, ctx);
  };
  if (qos_ == nullptr) {
    issue(nullptr);
    return;
  }
  if (qos_->Submit(via, ResolveTenant(vol, tenant), length, std::move(issue),
                   ctx)) {  // rejected
    engine_.Schedule(0, [shared_cb] { (*shared_cb)(false, {}); });
  }
}

void StorageSystem::BladeWrite(cache::ControllerId via, VolumeId vol,
                               std::uint64_t offset, util::Payload data,
                               std::uint32_t replication,
                               std::uint8_t priority, qos::TenantId tenant,
                               cache::WriteId wid, WriteCallback cb,
                               obs::TraceContext ctx) {
  // No bare writes: blade-entry writes must be attributed so retried or
  // duplicated submissions stay exactly-once (tools/nlss_lint enforces
  // the call-site shape; this checks the id is actually populated).
  NLSS_INVARIANT(kCache, wid.valid(),
                 "BladeWrite without a write id (vol %u offset %llu)", vol,
                 static_cast<unsigned long long>(offset));
  if (writes_total_ != nullptr) writes_total_->Increment();
  bool root = false;
  ctx = StartOp(ctx, "controller.write", vol, &root);
  const sim::Tick t0 = engine_.now();
  const std::size_t bytes = data.size();
  auto shared_cb = std::make_shared<WriteCallback>(
      [this, t0, ctx, root, cb = std::move(cb)](bool ok) {
        EndOp(write_latency_ns_, t0, ctx, root, ok);
        cb(ok);
      });
  auto issue = [this, via, vol, offset, replication, priority,
                data = std::move(data), wid, shared_cb,
                ctx](qos::Scheduler::Done done) {
    cache::WriteDedupIndex::Waiter outcome = dedup_.Begin(
        wid, [shared_cb, done = std::move(done)](bool ok) {
          if (done) done(ok);
          (*shared_cb)(ok);
        });
    if (!outcome) return;  // absorbed
    cache_->WriteWithReplication(
        via, vol, offset, data, replication,
        [this, wid, outcome = std::move(outcome)](bool ok) {
          dedup_.Complete(wid, ok);
          outcome(ok);
        },
        priority, ctx, wid);
  };
  if (qos_ == nullptr) {
    issue(nullptr);
    return;
  }
  if (qos_->Submit(via, ResolveTenant(vol, tenant), bytes, std::move(issue),
                   ctx)) {  // rejected
    engine_.Schedule(0, [shared_cb] { (*shared_cb)(false); });
  }
}

void StorageSystem::FailController(std::uint32_t i) {
  cache_->FailController(i);
  rebuild_->SetWorkerAlive(static_cast<int>(i), false);
  if (meta_ != nullptr) meta_->OnBladeDown(i);
}

void StorageSystem::ReviveController(std::uint32_t i) {
  cache_->ReviveController(i);
  rebuild_->SetWorkerAlive(static_cast<int>(i), true);
  if (meta_ != nullptr) meta_->OnBladeUp(i);
}

void StorageSystem::FailAndRebuildDisk(std::uint32_t g, std::uint32_t d,
                                       util::Function<void(bool)> on_done) {
  groups_[g]->disk(d).Fail();
  groups_[g]->RefreshMemberStates();
  groups_[g]->disk(d).Replace();
  rebuild_->Rebuild(*groups_[g], d, std::move(on_done));
}

}  // namespace nlss::controller
