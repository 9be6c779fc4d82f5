// Geographically distributed storage (paper §7, Figure 3).
//
// A GeoCluster joins several Sites — each a full single-site StorageSystem
// plus FileSystem — into one "metadata center" with a single data image:
//
//   * Every file has a home site and, per its FilePolicy, a set of replica
//     sites chosen by distance (nearest first, honoring min-distance).
//   * Writes execute at the home site; with geo_sync the nearest replica is
//     updated synchronously (the write waits for the WAN round trip) and
//     farther replicas asynchronously; without it all replication is
//     asynchronous via in-order per-link queues (§6.2: "synchronously
//     replicated to a center close by, then asynchronously to further
//     distances").
//   * Reads from non-replica sites fetch the touched chunks over the WAN on
//     first access and prefetch the rest of the file in the background, so
//     later reads run at local speed (§7.1 distributed data access).
//   * Frequently-read files are automatically promoted to full replicas at
//     the reading site (§7.1 "recognize files that are commonly accessed at
//     multiple locations").
//   * Site failure promotes a surviving replica to home; synchronously
//     replicated data survives with zero loss, asynchronous data loses at
//     most the queued window (real-time disaster recovery, §6.2/§7).
//
// All WAN traffic crosses the shared net::Fabric between site gateway
// nodes, so replication cost, RTT sensitivity, and link saturation are
// measurable (experiments E7, E8, E9, E12).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "controller/system.h"
#include "fs/filesystem.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "util/function.h"

namespace nlss::geo {

using SiteId = std::uint32_t;
inline constexpr SiteId kNoSite = ~0u;

struct Location {
  double x_km = 0;
  double y_km = 0;
};

double DistanceKm(const Location& a, const Location& b);

/// One lab site: a full storage system + blade-resident file system + a WAN
/// gateway node.
class Site {
 public:
  Site(sim::Engine& engine, net::Fabric& fabric, std::string name,
       controller::SystemConfig config, Location location);

  const std::string& name() const { return name_; }
  const Location& location() const { return location_; }
  controller::StorageSystem& system() { return *system_; }
  fs::FileSystem& filesystem() { return *fs_; }
  net::NodeId gateway() const { return gateway_; }
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

 private:
  std::string name_;
  Location location_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<fs::FileSystem> fs_;
  net::NodeId gateway_;
  bool alive_ = true;
};

class GeoCluster {
 public:
  struct Config {
    std::uint32_t migrate_chunk_bytes = 256 * util::KiB;
    bool prefetch = true;              // background fetch of remaining chunks
    std::uint32_t hot_promote_reads = 3;  // reads before full replication
    bool auto_promote = true;
    std::uint32_t ctrl_msg_bytes = 256;
  };

  GeoCluster(sim::Engine& engine, net::Fabric& fabric);
  GeoCluster(sim::Engine& engine, net::Fabric& fabric, Config config);

  /// Create a site; the caller then links sites with ConnectSites.
  SiteId AddSite(const std::string& name, controller::SystemConfig config,
                 Location location);
  void ConnectSites(SiteId a, SiteId b, const net::LinkProfile& wan);
  Site& site(SiteId s) { return *sites_[s]; }
  std::size_t site_count() const { return sites_.size(); }

  // --- Global namespace ------------------------------------------------------
  fs::Status Mkdir(const std::string& path);
  fs::Status Create(const std::string& path, SiteId home,
                    const fs::FilePolicy& policy = {});
  fs::Status SetPolicy(const std::string& path, const fs::FilePolicy& policy);
  bool Exists(const std::string& path) const {
    return files_.count(path) > 0;
  }
  SiteId HomeOf(const std::string& path) const;
  std::set<SiteId> ReplicasOf(const std::string& path) const;

  // --- Data plane ---------------------------------------------------------------
  using ReadCallback = fs::FileSystem::ReadCallback;
  using WriteCallback = fs::FileSystem::WriteCallback;

  /// Every site the write reaches shares `data`'s bytes.
  void Write(SiteId via, const std::string& path, std::uint64_t offset,
             util::Payload data, WriteCallback cb);
  void Read(SiteId via, const std::string& path, std::uint64_t offset,
            std::uint64_t length, ReadCallback cb);

  // --- Asynchronous replication control ------------------------------------------
  /// Bytes queued but not yet shipped (the RPO exposure).
  std::uint64_t PendingAsyncBytes() const;
  std::uint64_t PendingAsyncBytesFrom(SiteId src) const;
  /// cb fires once every queue is empty.
  void DrainAsync(util::Function<void()> cb);

  // --- Disaster recovery ------------------------------------------------------------
  /// Fail a whole site: its fabric nodes go down, queued async updates from
  /// it are lost, and each file homed there fails over to a surviving
  /// replica (files without replicas become unavailable).
  void FailSite(SiteId s);

  struct LossReport {
    std::uint64_t lost_async_updates = 0;
    std::uint64_t lost_async_bytes = 0;
    std::uint64_t unavailable_files = 0;
  };
  const LossReport& losses() const { return losses_; }

  const Config& config() const { return config_; }

  /// Root-trace each async replication shipment as a "geo.replicate" span
  /// (layer kGeo).  Pass nullptr to detach.
  void AttachObs(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct GeoFile {
    fs::FilePolicy policy;
    SiteId home = 0;
    std::uint64_t size = 0;
    std::set<SiteId> replicas;               // full replicas (incl. home)
    SiteId sync_target = kNoSite;            // nearest replica when geo_sync
    // Partial migration caches: per site, fetched chunk indices.
    std::map<SiteId, std::set<std::uint64_t>> cached_chunks;
    std::map<SiteId, std::uint32_t> reads_by_site;
    bool available = true;
  };

  struct AsyncUpdate {
    std::string path;
    std::uint64_t offset;
    util::Payload data;
  };
  struct AsyncQueue {
    std::deque<AsyncUpdate> q;
    std::uint64_t bytes = 0;
    bool draining = false;
  };

  /// WAN transfer between site gateways.
  void Ship(SiteId from, SiteId to, std::uint64_t bytes,
            util::Function<void()> delivered, util::Function<void()> dropped);

  void ChooseReplicas(const std::string& path, GeoFile& f);
  void ApplyRemoteWrite(SiteId target, const std::string& path,
                        std::uint64_t offset, const util::Payload& data,
                        util::Function<void(bool)> cb);
  void HomeWriteAndReplicate(const std::string& path, std::uint64_t offset,
                             const util::Payload& data, WriteCallback cb);
  void EnqueueAsync(SiteId from, SiteId to, AsyncUpdate update);
  void PumpQueue(SiteId from, SiteId to);
  void CheckDrained();

  void FetchChunks(SiteId via, const std::string& path,
                   std::vector<std::uint64_t> chunks,
                   util::Function<void(bool)> cb);
  void MaybePrefetch(SiteId via, const std::string& path);
  void MaybePromote(SiteId via, const std::string& path);

  std::uint64_t ChunkCount(const GeoFile& f) const;

  sim::Engine& engine_;
  net::Fabric& fabric_;
  Config config_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::map<std::string, GeoFile> files_;
  std::map<std::pair<SiteId, SiteId>, AsyncQueue> async_;
  std::vector<util::Function<void()>> drain_waiters_;
  LossReport losses_;
  obs::Tracer* tracer_ = nullptr;  // roots "geo.replicate" background spans
};

}  // namespace nlss::geo
