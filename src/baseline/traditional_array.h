// The traditional storage array the paper argues against: one or two
// controllers, each *statically owning* a set of LUNs with a private,
// non-pooled cache.  Requests for a LUN always land on its owning
// controller — so a hot LUN saturates one controller while its partner
// idles (the §2.2 "hot spot" pathology) — and write-back dirty data is
// mirrored only to the single partner (active-passive; at most one failure
// survivable, §6.1).
//
// Used as the comparison system in experiments E1 (aggregate scaling),
// E3 (hot spots) and E6 (failure survival).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "cache/backing.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "util/function.h"
#include "util/units.h"

namespace nlss::baseline {

class TraditionalArray {
 public:
  struct Config {
    std::uint32_t controllers = 2;  // classic dual-controller
    std::uint32_t page_bytes = 64 * util::KiB;
    std::uint64_t cache_pages_per_controller = 1024;
    double serve_ns_per_byte = 0.2;  // same engine speed as the new system
    sim::Tick local_access_ns = 2000;
    net::LinkProfile host_link = net::LinkProfile::FibreChannel2G();
  };

  using ReadCallback = util::Function<void(bool, util::Payload)>;
  using WriteCallback = util::Function<void(bool)>;

  TraditionalArray(sim::Engine& engine, net::Fabric& fabric, Config config);

  net::NodeId AttachHost(const std::string& name);

  /// Register a LUN; ownership is static: lun % controllers.
  std::uint32_t AddLun(cache::BackingStore* backing);

  void Read(net::NodeId host, std::uint32_t lun, std::uint64_t offset,
            std::uint32_t length, ReadCallback cb);
  void Write(net::NodeId host, std::uint32_t lun, std::uint64_t offset,
             util::Payload data, WriteCallback cb);

  /// Active-passive failover: the partner takes over the dead controller's
  /// LUNs with a cold cache (only mirrored dirty pages survive).
  void FailController(std::uint32_t c);

  std::uint32_t OwnerOf(std::uint32_t lun) const;
  std::vector<double> LoadByController() const;
  sim::Resource& compute(std::uint32_t c) { return ctrls_[c]->compute; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Page {
    util::Payload data;
    bool dirty = false;
  };
  struct Controller {
    net::NodeId node;
    sim::Resource compute;
    bool alive = true;
    std::uint64_t bytes_served = 0;
    // Private cache: (lun, page) -> Page, with LRU list.
    std::unordered_map<std::uint64_t, Page> cache;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        lru_pos;
    // Mirrored dirty pages held for the partner (active-passive safety),
    // in key order so a failover replays them deterministically.
    std::map<std::uint64_t, util::Payload> partner_mirror;

    Controller(net::NodeId n, sim::Engine& e) : node(n), compute(e) {}
  };

  static std::uint64_t Key(std::uint32_t lun, std::uint64_t page) {
    return (static_cast<std::uint64_t>(lun) << 40) | page;
  }
  std::uint32_t partner(std::uint32_t c) const {
    return config_.controllers == 1 ? c : (c + 1) % config_.controllers;
  }

  void Touch(Controller& ctrl, std::uint64_t key);
  void EvictIfNeeded(std::uint32_t c);
  void ReadPage(std::uint32_t c, std::uint32_t lun, std::uint64_t page,
                ReadCallback cb);
  void WritePage(std::uint32_t c, std::uint32_t lun, std::uint64_t page,
                 std::uint32_t off, util::Payload data, WriteCallback cb);
  void FlushKey(std::uint32_t c, std::uint32_t lun, std::uint64_t page,
                WriteCallback cb);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  Config config_;
  net::NodeId switch_node_;
  std::vector<std::unique_ptr<Controller>> ctrls_;
  std::vector<cache::BackingStore*> luns_;
  std::vector<std::uint32_t> owner_;  // current owner (failover changes it)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nlss::baseline
