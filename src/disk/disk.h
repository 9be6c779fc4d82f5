// Simulated disk drives: a mechanical service-time model (seek + rotation +
// media transfer) over a sparse in-memory block store holding real bytes.
// Requests are serviced FIFO, one at a time, like a single-actuator drive.
// A write's payload is shared, not copied: it lands in the store at the
// simulated completion time, and a read covered by one stored extent hands
// back a view of it.
//
// Failure injection: Fail() makes every outstanding and subsequent request
// complete unsuccessfully until Replace() installs a fresh (zeroed) drive,
// which is how the RAID rebuild experiments (E4) kill and replace disks.
// Requests issued to a drive that has since been replaced fail too: they
// belong to the old incarnation, not the fresh one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/engine.h"
#include "util/function.h"
#include "util/payload.h"
#include "util/units.h"

namespace nlss::disk {

/// Mechanical parameters.  Defaults approximate a 2002-era 10k RPM FC
/// drive.  Positioning cost scales with seek distance: short strides pay
/// roughly the track-to-track time, a full-stroke seek pays ~2x the
/// average, following the classic a + b*sqrt(distance) seek curve.
struct DiskProfile {
  sim::Tick track_to_track_ns = 800 * util::kNsPerUs;
  sim::Tick avg_seek_ns = 4 * util::kNsPerMs;
  sim::Tick half_rotation_ns = 3 * util::kNsPerMs;
  double media_bytes_per_ns = util::MBpsToBytesPerNs(60.0);
  std::uint32_t block_size = 4096;
  std::uint64_t capacity_blocks = 256 * 1024;  // 1 GiB at 4 KiB blocks

  std::uint64_t capacity_bytes() const {
    return capacity_blocks * block_size;
  }
};

/// Sparse block store: an ordered map of non-overlapping payload extents
/// keyed by first LBA.  Unwritten blocks read back as zeros.
class BlockStore {
 public:
  explicit BlockStore(std::uint32_t block_size) : block_size_(block_size) {}

  /// `count` blocks starting at `lba`.  A range inside one extent is a view
  /// of it; any other range joins extent views and zeros with Concat.
  util::Payload Read(std::uint64_t lba, std::uint32_t count) const;

  /// Store `data` (a whole number of blocks) at `lba`, trimming the extents
  /// it overlaps to the views that remain outside it.
  void Write(std::uint64_t lba, const util::Payload& data);

  /// Discard blocks (read back as zeros afterwards).
  void Trim(std::uint64_t lba, std::uint32_t count);

  void Clear() {
    extents_.clear();
    allocated_blocks_ = 0;
  }

  std::uint32_t block_size() const { return block_size_; }
  std::uint64_t allocated_blocks() const { return allocated_blocks_; }

 private:
  std::uint64_t BlocksOf(const util::Payload& p) const {
    return p.size() / block_size_;
  }
  /// Cut [lba, end) out of every extent overlapping it.
  void Carve(std::uint64_t lba, std::uint64_t end);

  std::uint32_t block_size_;
  std::map<std::uint64_t, util::Payload> extents_;
  std::uint64_t allocated_blocks_ = 0;
};

struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  sim::Tick busy_ns = 0;
};

class Disk {
 public:
  using ReadCallback = util::Function<void(bool ok, util::Payload data)>;
  using WriteCallback = util::Function<void(bool ok)>;

  Disk(sim::Engine& engine, DiskProfile profile, std::string name);

  /// Asynchronous block read; callback fires at simulated completion time.
  /// A sampled `ctx` gets a disk-layer span covering FIFO queueing plus
  /// mechanical service.
  void Read(std::uint64_t lba, std::uint32_t count, ReadCallback cb,
            obs::TraceContext ctx = {});

  /// Asynchronous block write; the store keeps `data` itself, not a copy.
  void Write(std::uint64_t lba, util::Payload data, WriteCallback cb,
             obs::TraceContext ctx = {});

  /// Discard blocks; immediate (metadata-only) in this model.
  void Trim(std::uint64_t lba, std::uint32_t count);

  /// Inject a total drive failure.
  void Fail() { failed_ = true; }

  /// Swap in a fresh zeroed drive (keeps profile and identity).  Requests
  /// still in flight from the old drive complete unsuccessfully.
  void Replace();

  bool failed() const { return failed_; }
  const DiskProfile& profile() const { return profile_; }
  const std::string& name() const { return name_; }
  const DiskStats& stats() const { return stats_; }

  /// Direct (zero-time) store access for verification in tests.
  const BlockStore& store() const { return store_; }
  BlockStore& store() { return store_; }

 private:
  /// Compute service time for an access and advance the FIFO horizon.
  sim::Tick ScheduleService(std::uint64_t lba, std::uint64_t bytes);
  /// True when a request issued to `incarnation` may still complete.
  bool Serves(std::uint64_t incarnation) const {
    return !failed_ && incarnation == incarnation_;
  }

  sim::Engine& engine_;
  DiskProfile profile_;
  std::string name_;
  BlockStore store_;
  bool failed_ = false;
  std::uint64_t incarnation_ = 0;  // bumped by Replace()
  sim::Tick busy_until_ = 0;
  std::uint64_t next_sequential_lba_ = 0;  // heads position for seek model
  DiskStats stats_;
};

/// A shelf of identical disks.
class DiskFarm {
 public:
  DiskFarm(sim::Engine& engine, const DiskProfile& profile, std::size_t count,
           const std::string& name_prefix = "disk");

  Disk& at(std::size_t i) { return *disks_[i]; }
  const Disk& at(std::size_t i) const { return *disks_[i]; }
  std::size_t size() const { return disks_.size(); }

  std::uint64_t TotalCapacityBytes() const;

 private:
  std::vector<std::unique_ptr<Disk>> disks_;
};

}  // namespace nlss::disk
