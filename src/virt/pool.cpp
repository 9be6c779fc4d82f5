#include "virt/pool.h"

#include <algorithm>
#include <cassert>

namespace nlss::virt {

StoragePool::StoragePool(std::vector<raid::RaidGroup*> groups,
                         std::uint32_t extent_blocks)
    : groups_(std::move(groups)),
      extent_blocks_(extent_blocks),
      block_size_(groups_.empty() ? 4096 : groups_[0]->block_size()) {
  assert(!groups_.empty());
  assert(extent_blocks_ > 0);
  // Interleave the free list across groups so that consecutively allocated
  // extents land on different groups: sequential volume traffic then
  // stripes over every group's disks instead of filling one group first.
  std::uint64_t max_extents = 0;
  std::vector<std::uint64_t> extents_per_group;
  for (std::uint32_t g = 0; g < groups_.size(); ++g) {
    assert(groups_[g]->block_size() == block_size_);
    extents_per_group.push_back(groups_[g]->DataCapacityBlocks() /
                                extent_blocks_);
    max_extents = std::max(max_extents, extents_per_group.back());
    total_extents_ += extents_per_group.back();
  }
  for (std::uint64_t e = 0; e < max_extents; ++e) {
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      if (e < extents_per_group[g]) free_.push_back(PhysExtent{g, e});
    }
  }
}

std::optional<PhysExtent> StoragePool::Allocate() {
  if (free_.empty()) return std::nullopt;
  const PhysExtent e = free_.front();
  free_.pop_front();
  return e;
}

void StoragePool::Free(const PhysExtent& e) {
  // Recycle at the back: fresh allocations prefer long-idle extents, which
  // spreads wear and load over the groups.
  free_.push_back(e);
}

void StoragePool::ReadBlocks(const PhysExtent& e, std::uint32_t offset_blocks,
                             std::uint32_t count, ReadCallback cb,
                             obs::TraceContext ctx) {
  assert(offset_blocks + count <= extent_blocks_);
  groups_[e.group]->ReadBlocks(BaseBlock(e) + offset_blocks, count,
                               std::move(cb), ctx);
}

void StoragePool::WriteBlocks(const PhysExtent& e, std::uint32_t offset_blocks,
                              const util::Payload& data, WriteCallback cb,
                              obs::TraceContext ctx) {
  assert(offset_blocks + data.size() / block_size_ <= extent_blocks_);
  groups_[e.group]->WriteBlocks(BaseBlock(e) + offset_blocks, data,
                                std::move(cb), ctx);
}

}  // namespace nlss::virt
