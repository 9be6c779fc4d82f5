// BackingStore: the block-device abstraction beneath the cache.  The virt
// layer's volumes implement it (mapping through extent tables to RAID
// groups); tests use the in-memory and RAID-direct adapters below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "obs/trace.h"
#include "raid/group.h"
#include "util/bytes.h"
#include "util/function.h"
#include "util/payload.h"

namespace nlss::cache {

class BackingStore {
 public:
  using ReadCallback = util::Function<void(bool ok, util::Payload data)>;
  using WriteCallback = util::Function<void(bool ok)>;

  virtual ~BackingStore() = default;

  virtual void ReadBlocks(std::uint64_t block, std::uint32_t count,
                          ReadCallback cb, obs::TraceContext ctx = {}) = 0;
  /// `data` is immutable: an implementation may keep it (or views of it)
  /// for as long as it likes without copying.
  virtual void WriteBlocks(std::uint64_t block, util::Payload data,
                           WriteCallback cb, obs::TraceContext ctx = {}) = 0;
  virtual std::uint64_t CapacityBlocks() const = 0;
  virtual std::uint32_t block_size() const = 0;

  std::uint64_t CapacityBytes() const {
    return CapacityBlocks() * block_size();
  }
};

/// Direct adapter over a RaidGroup (no virtualization layer).
class RaidBacking final : public BackingStore {
 public:
  explicit RaidBacking(raid::RaidGroup& group) : group_(group) {}

  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {}) override {
    group_.ReadBlocks(block, count, std::move(cb), ctx);
  }
  void WriteBlocks(std::uint64_t block, util::Payload data, WriteCallback cb,
                   obs::TraceContext ctx = {}) override {
    group_.WriteBlocks(block, data, std::move(cb), ctx);
  }
  std::uint64_t CapacityBlocks() const override {
    return group_.DataCapacityBlocks();
  }
  std::uint32_t block_size() const override { return group_.block_size(); }

 private:
  raid::RaidGroup& group_;
};

/// Zero-latency in-memory store for unit tests.
class MemBacking final : public BackingStore {
 public:
  MemBacking(sim::Engine& engine, std::uint64_t capacity_blocks,
             std::uint32_t block_size = 4096)
      : engine_(engine),
        capacity_blocks_(capacity_blocks),
        block_size_(block_size),
        data_(capacity_blocks * block_size, 0) {}

  // Effects and counters apply at simulated *completion* time, so a write
  // issued before a crash but still "in flight" has not yet reached the
  // medium — matching real disk semantics.
  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext = {}) override {
    engine_.Schedule(latency_ns_, [this, block, count,
                                   cb = std::move(cb)]() mutable {
      ++reads_;
      cb(true, util::Payload::Copy(std::span<const std::uint8_t>(
                   data_.data() + block * block_size_,
                   static_cast<std::size_t>(count) * block_size_)));
    });
  }
  void WriteBlocks(std::uint64_t block, util::Payload data, WriteCallback cb,
                   obs::TraceContext = {}) override {
    engine_.Schedule(latency_ns_, [this, block, data = std::move(data),
                                   cb = std::move(cb)]() mutable {
      ++writes_;
      std::copy(data.begin(), data.end(),
                data_.begin() + static_cast<std::ptrdiff_t>(block * block_size_));
      cb(true);
    });
  }
  std::uint64_t CapacityBlocks() const override { return capacity_blocks_; }
  std::uint32_t block_size() const override { return block_size_; }

  void set_latency(sim::Tick ns) { latency_ns_ = ns; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  const util::Bytes& raw() const { return data_; }

 private:
  sim::Engine& engine_;
  std::uint64_t capacity_blocks_;
  std::uint32_t block_size_;
  util::Bytes data_;
  sim::Tick latency_ns_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace nlss::cache
