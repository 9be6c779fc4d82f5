#include "mgmt/manager.h"

#include <memory>

#include "mgmt/json.h"
#include "raid/layout.h"

namespace nlss::mgmt {

// --- AlertManager --------------------------------------------------------------

void AlertManager::Raise(AlertSeverity severity, const std::string& source,
                         const std::string& message) {
  alerts_.push_back(Alert{engine_.now(), severity, source, message});
}

std::size_t AlertManager::CountAtLeast(AlertSeverity severity) const {
  std::size_t n = 0;
  for (const Alert& a : alerts_) {
    if (a.severity >= severity) ++n;
  }
  return n;
}

// --- StatusReporter --------------------------------------------------------------

std::string StatusReporter::Report() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("site", system_.config().name);
  w.Field("time_ns", system_.engine().now());

  w.Key("controllers").BeginArray();
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    const auto& stats = system_.cache().stats(c);
    w.BeginObject();
    w.Field("id", static_cast<std::uint64_t>(c));
    w.Field("alive", system_.cache().IsAlive(c));
    w.Field("ops", stats.ops);
    w.Field("local_hits", stats.local_hits);
    w.Field("remote_hits", stats.remote_hits);
    w.Field("misses", stats.misses);
    w.Field("bytes_served", stats.bytes_served);
    w.Field("utilization", system_.cache().compute(c).Utilization());
    w.EndObject();
  }
  w.EndArray();

  w.Key("pool").BeginObject();
  w.Field("total_extents", system_.pool().TotalExtents());
  w.Field("allocated_extents", system_.pool().AllocatedExtents());
  w.Field("extent_bytes", system_.pool().extent_bytes());
  w.Field("occupancy",
          system_.pool().TotalExtents() == 0
              ? 0.0
              : static_cast<double>(system_.pool().AllocatedExtents()) /
                    static_cast<double>(system_.pool().TotalExtents()));
  w.EndObject();

  w.Key("raid_groups").BeginArray();
  for (std::uint32_t g = 0; g < system_.group_count(); ++g) {
    auto& group = system_.group(g);
    group.RefreshMemberStates();
    w.BeginObject();
    w.Field("id", static_cast<std::uint64_t>(g));
    w.Field("level", raid::RaidLevelName(group.layout().level()));
    w.Field("width", static_cast<std::uint64_t>(group.width()));
    w.Field("unreadable_members",
            static_cast<std::uint64_t>(group.UnreadableCount()));
    w.Field("operational", group.Operational());
    w.EndObject();
  }
  w.EndArray();

  w.Key("volumes").BeginArray();
  for (std::uint32_t v = 0; v < system_.volume_count(); ++v) {
    auto& vol = system_.volume(v);
    w.BeginObject();
    w.Field("id", static_cast<std::uint64_t>(v));
    w.Field("tenant", vol.tenant());
    w.Field("virtual_bytes", vol.VirtualBytes());
    w.Field("allocated_bytes", vol.AllocatedBytes());
    w.EndObject();
  }
  w.EndArray();

  w.Field("dirty_pages", system_.cache().DirtyPages());
  w.EndObject();
  return w.str();
}

void StatusReporter::CheckHealth(AlertManager& alerts) const {
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    if (!system_.cache().IsAlive(c)) {
      alerts.Raise(AlertSeverity::kCritical,
                   "controller" + std::to_string(c), "controller down");
    }
  }
  for (std::uint32_t g = 0; g < system_.group_count(); ++g) {
    auto& group = system_.group(g);
    group.RefreshMemberStates();
    if (!group.Operational()) {
      alerts.Raise(AlertSeverity::kCritical, "raid" + std::to_string(g),
                   "group not operational: data loss risk");
    } else if (group.UnreadableCount() > 0) {
      alerts.Raise(AlertSeverity::kWarning, "raid" + std::to_string(g),
                   "group degraded: rebuild required");
    }
  }
}

// --- PolicyEngine ------------------------------------------------------------------

PolicyEngine::PolicyEngine(controller::StorageSystem& system,
                           AlertManager& alerts)
    : PolicyEngine(system, alerts, Config()) {}

PolicyEngine::PolicyEngine(controller::StorageSystem& system,
                           AlertManager& alerts, Config config)
    : system_(system), alerts_(alerts), config_(config) {}

std::vector<std::string> PolicyEngine::RunOnce() {
  std::vector<std::string> actions;
  const auto total = system_.pool().TotalExtents();
  const auto used = system_.pool().AllocatedExtents();
  const double occupancy =
      total == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(total);
  if (occupancy >= config_.pool_critical_fraction) {
    alerts_.Raise(AlertSeverity::kCritical, "pool",
                  "pool occupancy critical: add capacity now");
  } else if (occupancy >= config_.pool_warning_fraction) {
    alerts_.Raise(AlertSeverity::kWarning, "pool",
                  "pool occupancy high: plan capacity expansion");
  }

  // Auto-grow thin volumes approaching their advertised size — the DMSD
  // promise that "host applications never have to deal with volume
  // resizing" (paper §3).
  for (std::uint32_t v = 0; v < system_.volume_count(); ++v) {
    auto& vol = system_.volume(v);
    const double fill =
        vol.VirtualBytes() == 0
            ? 0.0
            : static_cast<double>(vol.AllocatedBytes()) /
                  static_cast<double>(vol.VirtualBytes());
    if (fill >= config_.volume_autogrow_fraction) {
      const std::uint64_t new_blocks = static_cast<std::uint64_t>(
          static_cast<double>(vol.CapacityBlocks()) *
          config_.volume_autogrow_factor);
      vol.Resize(new_blocks);
      actions.push_back("auto-grew volume " + std::to_string(v) +
                        " (tenant " + vol.tenant() + ")");
    }
  }
  return actions;
}

// --- RollingUpgrade -----------------------------------------------------------------

void RollingUpgrade::Run(sim::Tick per_controller_ns,
                         util::Function<void(Result)> done) {
  UpgradeNext(0, per_controller_ns, system_.engine().now(), std::move(done));
}

void RollingUpgrade::UpgradeNext(std::uint32_t index,
                                 sim::Tick per_controller_ns, sim::Tick started,
                                 util::Function<void(Result)> done) {
  if (index >= system_.controller_count()) {
    Result r;
    r.completed = true;
    r.controllers_upgraded = system_.controller_count();
    r.elapsed_ns = system_.engine().now() - started;
    done(r);
    return;
  }
  // Drain the blade: flush its dirty data via the cluster-wide flush, then
  // take it out, "flash" it, and bring it back.
  system_.cache().FlushAll([this, index, per_controller_ns, started,
                            done = std::move(done)](bool) mutable {
    alerts_.Raise(AlertSeverity::kInfo, "upgrade",
                  "upgrading controller " + std::to_string(index));
    system_.FailController(index);
    system_.RecoverCluster();
    system_.engine().Schedule(
        per_controller_ns, [this, index, per_controller_ns, started,
                            done = std::move(done)]() mutable {
          system_.ReviveController(index);
          system_.RecoverCluster();
          UpgradeNext(index + 1, per_controller_ns, started, std::move(done));
        });
  });
}

// --- Geo status --------------------------------------------------------------------

std::string GeoStatusReport(geo::GeoCluster& cluster) {
  JsonWriter w;
  w.BeginObject();
  w.Key("sites").BeginArray();
  for (geo::SiteId s = 0; s < cluster.site_count(); ++s) {
    auto& site = cluster.site(s);
    w.BeginObject();
    w.Field("name", site.name());
    w.Field("alive", site.alive());
    w.Field("files", site.filesystem().TotalFiles());
    w.Field("pool_allocated_extents",
            site.system().pool().AllocatedExtents());
    w.EndObject();
  }
  w.EndArray();
  w.Field("pending_async_bytes", cluster.PendingAsyncBytes());
  w.Field("lost_async_bytes", cluster.losses().lost_async_bytes);
  w.Field("unavailable_files", cluster.losses().unavailable_files);
  w.EndObject();
  return w.str();
}

}  // namespace nlss::mgmt
