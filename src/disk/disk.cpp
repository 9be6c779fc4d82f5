#include "disk/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nlss::disk {

util::Payload BlockStore::Read(std::uint64_t lba, std::uint32_t count) const {
  const std::uint64_t end = lba + count;
  // Views of the extents the range overlaps, with zeros in the gaps.
  std::vector<util::Payload> out;
  std::uint64_t at = lba;  // first block not yet covered
  auto it = extents_.upper_bound(lba);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->first < end; ++it) {
    const std::uint64_t first = std::max(it->first, lba);
    const std::uint64_t last = std::min(it->first + BlocksOf(it->second), end);
    if (first >= last) continue;
    if (first > at) {
      out.push_back(util::Payload::Zeros((first - at) * block_size_));
    }
    out.push_back(it->second.Slice((first - it->first) * block_size_,
                                   (last - first) * block_size_));
    at = last;
  }
  if (end > at) out.push_back(util::Payload::Zeros((end - at) * block_size_));
  return util::Payload::Concat(out);
}

void BlockStore::Carve(std::uint64_t lba, std::uint64_t end) {
  auto it = extents_.upper_bound(lba);
  if (it != extents_.begin()) --it;
  while (it != extents_.end() && it->first < end) {
    const std::uint64_t first = it->first;
    const std::uint64_t last = first + BlocksOf(it->second);
    if (last <= lba) {
      ++it;
      continue;
    }
    const util::Payload whole = std::move(it->second);
    it = extents_.erase(it);
    allocated_blocks_ -= last - first;
    if (first < lba) {
      extents_.emplace(first, whole.Slice(0, (lba - first) * block_size_));
      allocated_blocks_ += lba - first;
    }
    if (last > end) {
      it = extents_.emplace(end, whole.Slice((end - first) * block_size_,
                                             (last - end) * block_size_))
               .first;
      allocated_blocks_ += last - end;
    }
  }
}

void BlockStore::Write(std::uint64_t lba, const util::Payload& data) {
  assert(data.size() % block_size_ == 0);
  if (data.empty()) return;
  const std::uint64_t count = BlocksOf(data);
  Carve(lba, lba + count);
  // The store outlives every other holder: a view must not keep a much
  // larger buffer alive after the cache has let go of it.  A unit sliced
  // from a chunked host write is a whole chunk, so this rarely copies.
  extents_.emplace(lba, data.Compact());
  allocated_blocks_ += count;
}

void BlockStore::Trim(std::uint64_t lba, std::uint32_t count) {
  Carve(lba, lba + count);
}

Disk::Disk(sim::Engine& engine, DiskProfile profile, std::string name)
    : engine_(engine),
      profile_(profile),
      name_(std::move(name)),
      store_(profile.block_size) {}

sim::Tick Disk::ScheduleService(std::uint64_t lba, std::uint64_t bytes) {
  // Sequential accesses skip the positioning penalty entirely.  Otherwise
  // the seek follows a + b*sqrt(distance): short strides (slightly
  // out-of-order streaming) pay about the track-to-track time plus a
  // distance-scaled share of the rotation; a full-stroke seek pays ~2x the
  // average seek plus half a rotation.
  sim::Tick positioning = 0;
  if (lba != next_sequential_lba_) {
    const std::uint64_t distance = lba > next_sequential_lba_
                                       ? lba - next_sequential_lba_
                                       : next_sequential_lba_ - lba;
    const double frac = std::min(
        1.0, static_cast<double>(distance) /
                 static_cast<double>(profile_.capacity_blocks));
    // E[sqrt(U)] = 2/3, so b = 1.5*(avg - t2t) makes the uniform-random
    // expectation equal avg_seek_ns.
    const double seek =
        static_cast<double>(profile_.track_to_track_ns) +
        1.5 *
            static_cast<double>(profile_.avg_seek_ns -
                                profile_.track_to_track_ns) *
            std::sqrt(frac);
    const double rotation =
        static_cast<double>(profile_.half_rotation_ns) *
        std::min(1.0, 0.15 + std::sqrt(frac));
    positioning = static_cast<sim::Tick>(std::llround(seek + rotation));
  }
  const auto transfer = static_cast<sim::Tick>(std::llround(
      static_cast<double>(bytes) / profile_.media_bytes_per_ns));
  const sim::Tick start = std::max(engine_.now(), busy_until_);
  busy_until_ = start + positioning + transfer;
  stats_.busy_ns += positioning + transfer;
  next_sequential_lba_ = lba + bytes / profile_.block_size;
  return busy_until_;
}

void Disk::Read(std::uint64_t lba, std::uint32_t count, ReadCallback cb,
                obs::TraceContext ctx) {
  assert(lba + count <= profile_.capacity_blocks);
  if (failed_) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(count) * profile_.block_size;
  const sim::Tick done = ScheduleService(lba, bytes);
  stats_.reads += 1;
  stats_.bytes_read += bytes;
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kDisk, "disk.read");
  engine_.ScheduleAt(done, [this, lba, count, span, inc = incarnation_,
                            cb = std::move(cb)] {
    obs::EndSpan(span);
    if (Serves(inc)) {
      cb(true, store_.Read(lba, count));
    } else {
      cb(false, {});
    }
  });
}

void Disk::Write(std::uint64_t lba, util::Payload data, WriteCallback cb,
                 obs::TraceContext ctx) {
  assert(data.size() % profile_.block_size == 0);
  assert(lba + data.size() / profile_.block_size <= profile_.capacity_blocks);
  if (failed_) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  const sim::Tick done = ScheduleService(lba, data.size());
  stats_.writes += 1;
  stats_.bytes_written += data.size();
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kDisk, "disk.write");
  // The payload is immutable, so holding it until the simulated completion
  // is enough: nothing the caller does later can change these bytes.
  engine_.ScheduleAt(done, [this, lba, data = std::move(data), span,
                            inc = incarnation_, cb = std::move(cb)] {
    obs::EndSpan(span);
    if (Serves(inc)) {
      store_.Write(lba, data);
      cb(true);
    } else {
      cb(false);
    }
  });
}

void Disk::Trim(std::uint64_t lba, std::uint32_t count) {
  if (!failed_) store_.Trim(lba, count);
}

void Disk::Replace() {
  store_.Clear();
  failed_ = false;
  ++incarnation_;
  busy_until_ = engine_.now();
  next_sequential_lba_ = 0;
}

DiskFarm::DiskFarm(sim::Engine& engine, const DiskProfile& profile,
                   std::size_t count, const std::string& name_prefix) {
  disks_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    disks_.push_back(std::make_unique<Disk>(
        engine, profile, name_prefix + std::to_string(i)));
  }
}

std::uint64_t DiskFarm::TotalCapacityBytes() const {
  std::uint64_t total = 0;
  for (const auto& d : disks_) total += d->profile().capacity_bytes();
  return total;
}

}  // namespace nlss::disk
