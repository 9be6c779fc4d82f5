// Management plane (paper §3 "policy and administration must be automated",
// §6.3 incremental upgrades, §7.3 single-system-image management):
//   * StatusReport: a web-style JSON snapshot of the whole deployment.
//   * AlertManager: threshold alerts (pool nearly full, controller down,
//     degraded RAID group).
//   * PolicyEngine: automated pool management — auto-extends thin volumes'
//     advertised size and raises alerts instead of failing tenants.
//   * RollingUpgrade: upgrades controllers one at a time, never taking the
//     system down; I/O continues throughout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "controller/system.h"
#include "geo/geo.h"
#include "util/function.h"

namespace nlss::mgmt {

// --- Alerts ---------------------------------------------------------------

enum class AlertSeverity : std::uint8_t { kInfo, kWarning, kCritical };

struct Alert {
  sim::Tick when;
  AlertSeverity severity;
  std::string source;
  std::string message;
};

class AlertManager {
 public:
  explicit AlertManager(sim::Engine& engine) : engine_(engine) {}

  void Raise(AlertSeverity severity, const std::string& source,
             const std::string& message);

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t CountAtLeast(AlertSeverity severity) const;

 private:
  sim::Engine& engine_;
  std::vector<Alert> alerts_;
};

// --- Health / status ---------------------------------------------------------

class StatusReporter {
 public:
  explicit StatusReporter(controller::StorageSystem& system)
      : system_(system) {}

  /// JSON snapshot: controllers, cache stats, pool occupancy, RAID health,
  /// per-volume allocation.
  std::string Report() const;

  /// Scan for unhealthy conditions and push them to the alert manager.
  void CheckHealth(AlertManager& alerts) const;

 private:
  controller::StorageSystem& system_;
};

// --- Policy automation ----------------------------------------------------------

class PolicyEngine {
 public:
  struct Config {
    double pool_warning_fraction = 0.80;   // alert above this occupancy
    double pool_critical_fraction = 0.95;
    double volume_autogrow_fraction = 0.85;  // grow virtual size above this
    double volume_autogrow_factor = 1.5;
  };

  PolicyEngine(controller::StorageSystem& system, AlertManager& alerts);
  PolicyEngine(controller::StorageSystem& system, AlertManager& alerts,
               Config config);

  /// One automation sweep; call periodically.  Returns actions taken.
  std::vector<std::string> RunOnce();

 private:
  controller::StorageSystem& system_;
  AlertManager& alerts_;
  Config config_;
};

// --- Rolling upgrade ----------------------------------------------------------

class RollingUpgrade {
 public:
  struct Result {
    bool completed = false;
    std::uint32_t controllers_upgraded = 0;
    sim::Tick elapsed_ns = 0;
  };

  RollingUpgrade(controller::StorageSystem& system, AlertManager& alerts)
      : system_(system), alerts_(alerts) {}

  /// Upgrade every controller one at a time: fail it out of the cluster,
  /// "flash" it for `per_controller_ns`, then return it to service and
  /// recover coherence before moving on.  The system stays up throughout.
  void Run(sim::Tick per_controller_ns, util::Function<void(Result)> done);

 private:
  void UpgradeNext(std::uint32_t index, sim::Tick per_controller_ns,
                   sim::Tick started, util::Function<void(Result)> done);

  controller::StorageSystem& system_;
  AlertManager& alerts_;
};

/// Geo-wide status (single system image across sites, §7.3).
std::string GeoStatusReport(geo::GeoCluster& cluster);

}  // namespace nlss::mgmt
