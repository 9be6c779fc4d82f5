// DemandMappedVolume — the paper's DMSD (§3): a virtual disk whose blocks
// are mapped to pool extents only when first written.  Host applications
// see a fixed-size device (possibly far larger than physical storage);
// physical consumption tracks actual data.  Freeing (trim) returns extents
// to the shared pool.
//
// Also provides point-in-time snapshots (§7.2) via extent-granular
// copy-on-write: a snapshot freezes the current mapping; writes to shared
// extents allocate a private copy first.
//
// Implements cache::BackingStore, so volumes slot directly beneath the
// coherent cache cluster.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/backing.h"
#include "util/function.h"
#include "virt/pool.h"

namespace nlss::virt {

using SnapshotId = std::uint32_t;

class DemandMappedVolume final : public cache::BackingStore {
 public:
  /// `virtual_blocks` is the advertised device size; nothing is allocated
  /// until written.
  DemandMappedVolume(sim::Engine& engine, StoragePool& pool,
                     std::uint64_t virtual_blocks, std::string tenant,
                     std::uint64_t volume_id);
  ~DemandMappedVolume() override;

  // --- BackingStore -------------------------------------------------------
  void ReadBlocks(std::uint64_t block, std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {}) override;
  void WriteBlocks(std::uint64_t block, util::Payload data, WriteCallback cb,
                   obs::TraceContext ctx = {}) override;
  std::uint64_t CapacityBlocks() const override { return virtual_blocks_; }
  std::uint32_t block_size() const override { return pool_.block_size(); }

  // --- DMSD operations ------------------------------------------------------
  /// Discard a block range.  Fully covered extents are unmapped and
  /// returned to the pool; partially covered ranges are zeroed.
  void Trim(std::uint64_t block, std::uint64_t count, WriteCallback cb);

  /// Eagerly map the whole device (traditional fully-provisioned volume).
  /// Returns false if the pool lacks space.
  bool Preallocate();

  /// Grow the advertised size (always succeeds: no physical cost).
  void Resize(std::uint64_t new_virtual_blocks);

  // --- Snapshots -------------------------------------------------------------
  SnapshotId CreateSnapshot();
  void DeleteSnapshot(SnapshotId id);
  bool HasSnapshot(SnapshotId id) const { return snapshots_.count(id) > 0; }
  /// Read from a snapshot's frozen image.
  void ReadSnapshotBlocks(SnapshotId id, std::uint64_t block,
                          std::uint32_t count, ReadCallback cb);

  // --- Accounting -------------------------------------------------------------
  std::uint64_t MappedExtents() const { return mapped_extents_; }
  std::uint64_t AllocatedBytes() const {
    return mapped_extents_ * pool_.extent_bytes();
  }
  std::uint64_t VirtualBytes() const {
    return virtual_blocks_ * block_size();
  }
  std::uint64_t cow_copies() const { return cow_copies_; }
  const std::string& tenant() const { return tenant_; }
  std::uint64_t volume_id() const { return volume_id_; }

 private:
  using ExtentMap = std::vector<std::optional<PhysExtent>>;

  std::uint64_t ExtentCount() const;
  static std::uint64_t RefKey(const PhysExtent& e) {
    return (static_cast<std::uint64_t>(e.group) << 48) | e.extent;
  }
  void Ref(const PhysExtent& e) { ++refs_[RefKey(e)]; }
  /// Decrement; frees the extent when the count reaches zero.
  void Unref(const PhysExtent& e);
  std::uint32_t RefCount(const PhysExtent& e) const;

  // Per-virtual-extent write serialization (allocation / COW transitions).
  void LockExtent(std::uint64_t vext, util::Function<void()> grant);
  void UnlockExtent(std::uint64_t vext);

  /// Write one in-extent range, handling allocate-on-write and COW.
  /// Assumes the extent lock is held; releases it before cb.
  void WriteWithinExtent(std::uint64_t vext, std::uint32_t offset_blocks,
                         util::Payload data, WriteCallback cb,
                         obs::TraceContext ctx = {});

  /// Read via an arbitrary mapping (current or snapshot).
  void ReadVia(const ExtentMap& map, std::uint64_t block, std::uint32_t count,
               ReadCallback cb, obs::TraceContext ctx = {});

  sim::Engine& engine_;
  StoragePool& pool_;
  std::uint64_t virtual_blocks_;
  std::string tenant_;
  std::uint64_t volume_id_;
  ExtentMap map_;
  std::unordered_map<std::uint64_t, std::uint32_t> refs_;
  std::map<SnapshotId, ExtentMap> snapshots_;
  SnapshotId next_snapshot_ = 1;
  std::uint64_t mapped_extents_ = 0;  // current map only (excl. snapshots)
  std::uint64_t cow_copies_ = 0;
  std::map<std::uint64_t, std::deque<util::Function<void()>>> extent_locks_;
};

}  // namespace nlss::virt
