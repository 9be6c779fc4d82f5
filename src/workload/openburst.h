// Batched multi-file prefetch: the host-side countermeasure to the
// metadata storm.
//
// A storm host opens thousands of small files in a predictable shared
// order, paying a full fabric round trip per open.  The prefetcher watches
// the open stream; once `threshold` opens land inside `window_ns` it
// declares a burst and starts reading AHEAD of the consumer — one large
// batched read covering the next `batch_files` contiguous files instead of
// one tiny read per file.  Subsequent opens of prefetched files are served
// from the host-local staging buffer at `local_hit_ns`; opens that catch a
// batch in flight join its waiter list and complete when it lands.
//
// Everything is driven by the DES clock through the owning initiator, so
// prefetch reads inherit multipath, hedging, and QoS accounting (the
// batch is tenant-billed like any read), and two same-seed runs are
// bit-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "host/initiator.h"
#include "util/function.h"

namespace nlss::workload {

/// Contiguous file layout on one volume: file i occupies
/// [base + i * file_bytes, base + (i + 1) * file_bytes).
struct FileSet {
  std::uint64_t base = 0;
  std::uint32_t count = 0;
  std::uint32_t file_bytes = 64 * 1024;

  std::uint64_t OffsetOf(std::uint32_t file) const {
    return base + static_cast<std::uint64_t>(file) * file_bytes;
  }
  std::uint64_t TotalBytes() const {
    return static_cast<std::uint64_t>(count) * file_bytes;
  }
};

struct OpenBurstConfig {
  bool enabled = false;
  /// Opens inside `window_ns` that arm the burst detector.
  std::uint32_t threshold = 8;
  sim::Tick window_ns = 2 * util::kNsPerMs;
  /// Files fetched per batched read (one initiator read of
  /// batch_files * file_bytes bytes).
  std::uint32_t batch_files = 64;
  /// How far ahead of the consumer's highest-opened file to stage.
  std::uint32_t lookahead_files = 128;
  /// Service time for an open satisfied from the staging buffer.
  sim::Tick local_hit_ns = 2 * util::kNsPerUs;
};

class OpenBurstPrefetcher {
 public:
  struct Stats {
    std::uint64_t opens = 0;
    std::uint64_t hits = 0;     // served from staged data
    std::uint64_t joined = 0;   // caught a batch in flight, waited for it
    std::uint64_t misses = 0;   // direct per-file read
    std::uint64_t bursts = 0;   // detector armed
    std::uint64_t batched_reads = 0;
    std::uint64_t prefetched_files = 0;
    std::uint64_t prefetch_bytes = 0;
    std::uint64_t failed_batches = 0;  // batch read failed; files demoted

    void Add(const Stats& o) {
      opens += o.opens;
      hits += o.hits;
      joined += o.joined;
      misses += o.misses;
      bursts += o.bursts;
      batched_reads += o.batched_reads;
      prefetched_files += o.prefetched_files;
      prefetch_bytes += o.prefetch_bytes;
      failed_batches += o.failed_batches;
    }
  };

  OpenBurstPrefetcher(sim::Engine& engine, host::Initiator& initiator,
                      controller::VolumeId vol, FileSet files,
                      OpenBurstConfig config,
                      qos::TenantId tenant = qos::kAutoTenant);

  /// Open `file` and read its first `length` bytes; `cb(ok)` exactly once.
  void Open(std::uint32_t file, std::uint32_t length,
            util::Function<void(bool)> cb);

  const Stats& stats() const { return stats_; }

 private:
  /// kFailed: the covering batch read failed — opens of the file fall back
  /// to direct reads and the prefetcher never re-fetches it (a failing
  /// fabric must not turn the prefetcher into a retry storm).
  enum class FileState : std::uint8_t { kCold, kFetching, kReady, kFailed };

  /// Stage batches up to `lookahead_files` past `file` once burst-armed.
  void PrefetchAhead(std::uint32_t file);

  host::Initiator& initiator_;
  sim::Engine& engine_;
  controller::VolumeId vol_;
  FileSet files_;
  OpenBurstConfig config_;
  qos::TenantId tenant_;
  std::vector<FileState> state_;
  /// Waiters per in-flight file; std::map for deterministic flush order.
  std::map<std::uint32_t, std::vector<util::Function<void(bool)>>> waiters_;
  std::deque<sim::Tick> recent_opens_;  // open timestamps inside the window
  std::uint32_t frontier_ = 0;          // first file never staged
  bool burst_armed_ = false;
  Stats stats_;
};

}  // namespace nlss::workload
