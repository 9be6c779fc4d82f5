// StoragePool: aggregates RAID groups into one physical extent space with a
// free-extent allocator.  Virtual volumes (virt/volume.h) map their address
// space onto pool extents; the pool routes I/O to the owning RAID group.
//
// This is the substrate for the paper's §3 virtualization story: one pool,
// many volumes, slack space amortized across all of them.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "raid/group.h"
#include "util/function.h"
#include "util/payload.h"

namespace nlss::virt {

/// Physical extent handle: (group index, extent index within group).
struct PhysExtent {
  std::uint32_t group = 0;
  std::uint64_t extent = 0;
  friend bool operator==(const PhysExtent&, const PhysExtent&) = default;
};

class StoragePool {
 public:
  /// All groups must share a block size.  `extent_blocks` is the allocation
  /// granule (e.g. 1024 blocks = 4 MiB at 4 KiB blocks).
  StoragePool(std::vector<raid::RaidGroup*> groups,
              std::uint32_t extent_blocks);

  /// Allocate a free extent; nullopt when the pool is exhausted.
  std::optional<PhysExtent> Allocate();
  void Free(const PhysExtent& e);

  std::uint64_t TotalExtents() const { return total_extents_; }
  std::uint64_t FreeExtents() const { return free_.size(); }
  std::uint64_t AllocatedExtents() const {
    return total_extents_ - free_.size();
  }
  std::uint32_t extent_blocks() const { return extent_blocks_; }
  std::uint32_t block_size() const { return block_size_; }
  std::uint64_t extent_bytes() const {
    return static_cast<std::uint64_t>(extent_blocks_) * block_size_;
  }

  using ReadCallback = util::Function<void(bool, util::Payload)>;
  using WriteCallback = util::Function<void(bool)>;

  /// I/O within one extent (offset/count must not cross the extent end).
  void ReadBlocks(const PhysExtent& e, std::uint32_t offset_blocks,
                  std::uint32_t count, ReadCallback cb,
                  obs::TraceContext ctx = {});
  void WriteBlocks(const PhysExtent& e, std::uint32_t offset_blocks,
                   const util::Payload& data, WriteCallback cb,
                   obs::TraceContext ctx = {});

  raid::RaidGroup& group(std::uint32_t i) { return *groups_[i]; }
  std::size_t group_count() const { return groups_.size(); }

 private:
  std::uint64_t BaseBlock(const PhysExtent& e) const {
    return e.extent * extent_blocks_;
  }

  std::vector<raid::RaidGroup*> groups_;
  std::uint32_t extent_blocks_;
  std::uint32_t block_size_;
  std::uint64_t total_extents_ = 0;
  std::deque<PhysExtent> free_;
};

}  // namespace nlss::virt
