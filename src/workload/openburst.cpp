#include "workload/openburst.h"

#include <algorithm>
#include <utility>

#include "check/invariant.h"

namespace nlss::workload {

OpenBurstPrefetcher::OpenBurstPrefetcher(sim::Engine& engine,
                                         host::Initiator& initiator,
                                         controller::VolumeId vol,
                                         FileSet files,
                                         OpenBurstConfig config,
                                         qos::TenantId tenant)
    : initiator_(initiator),
      engine_(engine),
      vol_(vol),
      files_(files),
      config_(config),
      tenant_(tenant),
      state_(files.count, FileState::kCold) {}

void OpenBurstPrefetcher::Open(std::uint32_t file, std::uint32_t length,
                               util::Function<void(bool)> cb) {
  ++stats_.opens;
  if (!config_.enabled || file >= files_.count) {
    ++stats_.misses;
    initiator_.Read(vol_, files_.OffsetOf(file), length,
                    [cb = std::move(cb)](bool ok, util::Payload) { cb(ok); },
                    /*priority=*/0, tenant_);
    return;
  }

  // Slide the detector window.
  const sim::Tick now = engine_.now();
  recent_opens_.push_back(now);
  while (!recent_opens_.empty() &&
         now - recent_opens_.front() > config_.window_ns) {
    recent_opens_.pop_front();
  }
  if (!burst_armed_ && recent_opens_.size() >= config_.threshold) {
    burst_armed_ = true;
    ++stats_.bursts;
    frontier_ = std::max(frontier_, file + 1);
  }
  if (burst_armed_) PrefetchAhead(file);

  switch (state_[file]) {
    case FileState::kReady:
      ++stats_.hits;
      engine_.Schedule(config_.local_hit_ns,
                       [cb = std::move(cb)] { cb(true); });
      return;
    case FileState::kFetching:
      ++stats_.joined;
      waiters_[file].push_back(std::move(cb));
      return;
    case FileState::kCold:
    case FileState::kFailed:
      ++stats_.misses;
      initiator_.Read(vol_, files_.OffsetOf(file), length,
                      [cb = std::move(cb)](bool ok, util::Payload) { cb(ok); },
                      /*priority=*/0, tenant_);
      return;
  }
}

void OpenBurstPrefetcher::PrefetchAhead(std::uint32_t file) {
  // Stage FULL batches while the consumer is within `lookahead_files` of
  // the frontier.  The batch fill is deliberately not clipped to the
  // lookahead horizon: clipping would degrade into one-file "batches"
  // that creep along one open ahead of the consumer — the exact tiny-read
  // pattern the prefetcher exists to eliminate.
  while (frontier_ < files_.count &&
         frontier_ < static_cast<std::uint64_t>(file) +
                         config_.lookahead_files) {
    // Skip files already staged or in flight so a batch covers cold span.
    while (frontier_ < files_.count &&
           state_[frontier_] != FileState::kCold) {
      ++frontier_;
    }
    if (frontier_ >= files_.count) return;
    const std::uint32_t first = frontier_;
    std::uint32_t n = 0;
    while (frontier_ < files_.count && n < config_.batch_files &&
           state_[frontier_] == FileState::kCold) {
      state_[frontier_] = FileState::kFetching;
      ++frontier_;
      ++n;
    }
    const std::uint64_t batch_bytes =
        static_cast<std::uint64_t>(n) * files_.file_bytes;
    ++stats_.batched_reads;
    stats_.prefetched_files += n;
    stats_.prefetch_bytes += batch_bytes;
    // One large read for the whole contiguous span — this is the point:
    // n files for one fabric round trip instead of n.
    initiator_.Read(
        vol_, files_.OffsetOf(first), static_cast<std::uint32_t>(batch_bytes),
        [this, first, n](bool ok, util::Payload) {
          if (!ok) ++stats_.failed_batches;
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t f = first + i;
            state_[f] = ok ? FileState::kReady : FileState::kFailed;
            const auto it = waiters_.find(f);
            if (it == waiters_.end()) continue;
            auto waiters = std::move(it->second);
            waiters_.erase(it);
            for (auto& w : waiters) {
              if (w) w(ok);
            }
          }
        },
        /*priority=*/0, tenant_);
  }
}

}  // namespace nlss::workload
