#include "baseline/traditional_array.h"

#include <cassert>
#include <cstring>
#include <memory>

namespace nlss::baseline {

TraditionalArray::TraditionalArray(sim::Engine& engine, net::Fabric& fabric,
                                   Config config)
    : engine_(engine), fabric_(fabric), config_(config) {
  switch_node_ = fabric_.AddNode("array-switch");
  for (std::uint32_t c = 0; c < config_.controllers; ++c) {
    const net::NodeId n = fabric_.AddNode("array-ctrl" + std::to_string(c));
    fabric_.Connect(switch_node_, n, config_.host_link);
    ctrls_.push_back(std::make_unique<Controller>(n, engine_));
  }
  // Partner interconnect for dirty mirroring.
  for (std::uint32_t c = 0; c + 1 < config_.controllers; ++c) {
    fabric_.Connect(ctrls_[c]->node, ctrls_[c + 1]->node,
                    net::LinkProfile::Backplane());
  }
}

net::NodeId TraditionalArray::AttachHost(const std::string& name) {
  const net::NodeId host = fabric_.AddNode(name);
  fabric_.Connect(host, switch_node_, config_.host_link);
  return host;
}

std::uint32_t TraditionalArray::AddLun(cache::BackingStore* backing) {
  luns_.push_back(backing);
  const std::uint32_t lun = static_cast<std::uint32_t>(luns_.size() - 1);
  owner_.push_back(lun % config_.controllers);
  return lun;
}

std::uint32_t TraditionalArray::OwnerOf(std::uint32_t lun) const {
  return owner_[lun];
}

void TraditionalArray::Touch(Controller& ctrl, std::uint64_t key) {
  auto it = ctrl.lru_pos.find(key);
  if (it != ctrl.lru_pos.end()) {
    ctrl.lru.erase(it->second);
  }
  ctrl.lru.push_back(key);
  ctrl.lru_pos[key] = std::prev(ctrl.lru.end());
}

void TraditionalArray::EvictIfNeeded(std::uint32_t c) {
  Controller& ctrl = *ctrls_[c];
  while (ctrl.cache.size() > config_.cache_pages_per_controller &&
         !ctrl.lru.empty()) {
    // Evict the LRU clean page; dirty pages get a write-back kick and a
    // temporary overcommit, like a real array under pressure.
    bool evicted = false;
    for (auto it = ctrl.lru.begin(); it != ctrl.lru.end(); ++it) {
      const std::uint64_t key = *it;
      Page& p = ctrl.cache[key];
      if (p.dirty) continue;
      ctrl.cache.erase(key);
      ctrl.lru_pos.erase(key);
      ctrl.lru.erase(it);
      evicted = true;
      break;
    }
    if (!evicted) {
      const std::uint64_t key = ctrl.lru.front();
      const std::uint32_t lun = static_cast<std::uint32_t>(key >> 40);
      const std::uint64_t page = key & ((1ULL << 40) - 1);
      FlushKey(c, lun, page, [](bool) {});
      break;
    }
  }
}

void TraditionalArray::FlushKey(std::uint32_t c, std::uint32_t lun,
                                std::uint64_t page, WriteCallback cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  auto it = ctrl.cache.find(key);
  if (it == ctrl.cache.end() || !it->second.dirty) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  const std::uint32_t bs = luns_[lun]->block_size();
  const std::uint64_t block =
      page * (config_.page_bytes / bs);
  luns_[lun]->WriteBlocks(
      block, it->second.data,
      [this, c, lun, page, key, cb = std::move(cb)](bool ok) mutable {
        Controller& ctrl = *ctrls_[c];
        auto it = ctrl.cache.find(key);
        if (ok && it != ctrl.cache.end()) {
          it->second.dirty = false;
          // Release the partner's mirror copy.
          const std::uint32_t p = partner(c);
          if (p != c) {
            fabric_.Send(ctrl.node, ctrls_[p]->node, 64,
                         [this, p, key] {
                           ctrls_[p]->partner_mirror.erase(key);
                         },
                         nullptr);
          }
        }
        cb(ok);
      });
}

void TraditionalArray::ReadPage(std::uint32_t c, std::uint32_t lun,
                                std::uint64_t page, ReadCallback cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  auto it = ctrl.cache.find(key);
  if (it != ctrl.cache.end()) {
    ++hits_;
    ctrl.bytes_served += config_.page_bytes;
    Touch(ctrl, key);
    const sim::Tick done = ctrl.compute.AcquireBytes(
        config_.page_bytes, config_.serve_ns_per_byte);
    engine_.ScheduleAt(std::max(done, engine_.now() + config_.local_access_ns),
                       [cb = std::move(cb), data = it->second.data]() mutable {
                         cb(true, std::move(data));
                       });
    return;
  }
  ++misses_;
  const std::uint32_t bs = luns_[lun]->block_size();
  const std::uint32_t pb = config_.page_bytes / bs;
  const std::uint64_t block = page * pb;
  if (block >= luns_[lun]->CapacityBlocks()) {
    engine_.Schedule(0, [this, cb = std::move(cb)]() mutable {
      cb(true, util::Payload::Zeros(config_.page_bytes));
    });
    return;
  }
  const std::uint32_t count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      pb, luns_[lun]->CapacityBlocks() - block));
  luns_[lun]->ReadBlocks(
      block, count,
      [this, c, lun, page, key, cb = std::move(cb)](
          bool ok, util::Payload data) mutable {
        if (!ok) {
          cb(false, {});
          return;
        }
        if (data.size() < config_.page_bytes) {
          data = util::Payload(
              config_.page_bytes, [&](std::span<std::uint8_t> out) {
                std::memcpy(out.data(), data.data(), data.size());
                std::memset(out.data() + data.size(), 0,
                            out.size() - data.size());
              });
        }
        Controller& ctrl = *ctrls_[c];
        ctrl.bytes_served += config_.page_bytes;
        ctrl.cache[key] = Page{data, false};
        Touch(ctrl, key);
        EvictIfNeeded(c);
        (void)lun;
        (void)page;
        const sim::Tick done = ctrl.compute.AcquireBytes(
            config_.page_bytes, config_.serve_ns_per_byte);
        engine_.ScheduleAt(done, [cb = std::move(cb),
                                  data = std::move(data)]() mutable {
          cb(true, std::move(data));
        });
      });
}

void TraditionalArray::WritePage(std::uint32_t c, std::uint32_t lun,
                                 std::uint64_t page, std::uint32_t off,
                                 util::Payload data, WriteCallback cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  // Evaluate before `data` is moved into the continuation.
  const bool full = off == 0 && data.size() == config_.page_bytes;
  // `base` is the page's current content, empty for a full-page write.
  auto apply = [this, c, lun, page, key, off,
                data = std::move(data),
                cb = std::move(cb)](bool ok, util::Payload base) mutable {
    if (!ok) {
      cb(false);
      return;
    }
    Controller& ctrl = *ctrls_[c];
    if (base.empty()) {
      base = data;
    } else {
      base = util::Payload(base.size(), [&](std::span<std::uint8_t> out) {
        std::memcpy(out.data(), base.data(), base.size());
        std::memcpy(out.data() + off, data.data(), data.size());
      });
    }
    ctrl.cache[key] = Page{base, true};
    Touch(ctrl, key);
    EvictIfNeeded(c);
    ctrl.bytes_served += data.size();
    const sim::Tick done =
        ctrl.compute.AcquireBytes(data.size(), config_.serve_ns_per_byte);
    // Mirror the dirty page to the partner before acking (active-passive).
    const std::uint32_t p = partner(c);
    auto shared_cb = std::make_shared<WriteCallback>(std::move(cb));
    engine_.ScheduleAt(done, [this, c, p, key, base = std::move(base),
                              lun, page, shared_cb]() mutable {
      if (p == c || !ctrls_[p]->alive) {
        (*shared_cb)(true);
        FlushKey(c, lun, page, [](bool) {});
        return;
      }
      fabric_.Send(ctrls_[c]->node, ctrls_[p]->node, config_.page_bytes,
                   [this, c, p, key, lun, page, base = std::move(base),
                    shared_cb] {
                     ctrls_[p]->partner_mirror[key] = base;
                     (*shared_cb)(true);
                     FlushKey(c, lun, page, [](bool) {});
                   },
                   [shared_cb] { (*shared_cb)(false); });
    });
  };

  auto it = ctrl.cache.find(key);
  if (full) {
    apply(true, {});
  } else if (it != ctrl.cache.end()) {
    apply(true, it->second.data);
  } else {
    ReadPage(c, lun, page, [apply = std::move(apply)](
                               bool ok, util::Payload base) mutable {
      apply(ok, std::move(base));
    });
  }
}

void TraditionalArray::Read(net::NodeId host, std::uint32_t lun,
                            std::uint64_t offset, std::uint32_t length,
                            ReadCallback cb) {
  const std::uint32_t c = owner_[lun];
  if (!ctrls_[c]->alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  const std::uint32_t pb = config_.page_bytes;
  struct Piece {
    std::uint64_t page;
    std::uint32_t in_page;
    std::uint32_t len;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::uint32_t left = length;
  while (left > 0) {
    const std::uint64_t page = cur / pb;
    const std::uint32_t in_page = static_cast<std::uint32_t>(cur % pb);
    const std::uint32_t n = std::min(left, pb - in_page);
    pieces.push_back({page, in_page, n});
    cur += n;
    left -= n;
  }
  auto shared_cb = std::make_shared<ReadCallback>(std::move(cb));
  fabric_.Send(host, ctrls_[c]->node, 128, [this, c, lun, host, pieces,
                                            shared_cb, length] {
    auto parts = std::make_shared<std::vector<util::Payload>>(pieces.size());
    auto join = std::make_shared<util::Join>(
        static_cast<int>(pieces.size()),
        [this, c, host, parts, shared_cb, length](bool ok) {
          if (!ok) {
            (*shared_cb)(false, {});
            return;
          }
          fabric_.Send(ctrls_[c]->node, host, length,
                       [data = util::Payload::Concat(*parts), shared_cb] {
                         (*shared_cb)(true, data);
                       },
                       [shared_cb] { (*shared_cb)(false, {}); });
        });
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const Piece p = pieces[i];
      ReadPage(c, lun, p.page,
               [p, i, parts, join](bool ok, util::Payload page_data) {
                 if (ok) (*parts)[i] = page_data.Slice(p.in_page, p.len);
                 join->Arrive(ok);
               });
    }
  }, [shared_cb] { (*shared_cb)(false, {}); });
}

void TraditionalArray::Write(net::NodeId host, std::uint32_t lun,
                             std::uint64_t offset, util::Payload data,
                             WriteCallback cb) {
  const std::uint32_t c = owner_[lun];
  if (!ctrls_[c]->alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  const std::uint32_t pb = config_.page_bytes;
  auto shared_cb = std::make_shared<WriteCallback>(std::move(cb));
  const std::size_t bytes = data.size();
  fabric_.Send(host, ctrls_[c]->node, bytes, [this, c, lun, offset,
                                              src = std::move(data), pb,
                                              shared_cb] {
    struct Piece {
      std::uint64_t page;
      std::uint32_t in_page;
      std::size_t off;
      std::uint32_t len;
    };
    std::vector<Piece> pieces;
    std::uint64_t cur = offset;
    std::size_t soff = 0;
    std::size_t left = src.size();
    while (left > 0) {
      const std::uint64_t page = cur / pb;
      const std::uint32_t in_page = static_cast<std::uint32_t>(cur % pb);
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::size_t>(left, pb - in_page));
      pieces.push_back({page, in_page, soff, n});
      cur += n;
      soff += n;
      left -= n;
    }
    auto join = std::make_shared<util::Join>(
        static_cast<int>(pieces.size()),
        [shared_cb](bool ok) { (*shared_cb)(ok); });
    for (const Piece& p : pieces) {
      WritePage(c, lun, p.page, p.in_page, src.Slice(p.off, p.len),
                [join](bool ok) { join->Arrive(ok); });
    }
  }, [shared_cb] { (*shared_cb)(false); });
}

void TraditionalArray::FailController(std::uint32_t c) {
  Controller& dead = *ctrls_[c];
  dead.alive = false;
  fabric_.SetNodeUp(dead.node, false);
  const std::uint32_t p = partner(c);
  // Reassign LUNs to the partner.
  for (std::uint32_t lun = 0; lun < owner_.size(); ++lun) {
    if (owner_[lun] == c && p != c && ctrls_[p]->alive) {
      owner_[lun] = p;
    }
  }
  dead.cache.clear();
  dead.lru.clear();
  dead.lru_pos.clear();
  // The partner recovers the mirrored dirty pages into its own cache and
  // flushes them.
  if (p != c && ctrls_[p]->alive) {
    Controller& part = *ctrls_[p];
    for (auto& [key, data] : part.partner_mirror) {
      part.cache[key] = Page{std::move(data), true};
      Touch(part, key);
      const std::uint32_t lun = static_cast<std::uint32_t>(key >> 40);
      const std::uint64_t page = key & ((1ULL << 40) - 1);
      FlushKey(p, lun, page, [](bool) {});
    }
    part.partner_mirror.clear();
  }
}

std::vector<double> TraditionalArray::LoadByController() const {
  std::vector<double> loads;
  for (const auto& c : ctrls_) {
    loads.push_back(static_cast<double>(c->bytes_served));
  }
  return loads;
}

}  // namespace nlss::baseline
