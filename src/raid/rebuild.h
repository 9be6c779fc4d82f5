// Distributed rebuild engine (paper §2.4, §6.3): rebuild work is split into
// chunks of stripes and spread across the controller cluster's workers.  If
// a controller (worker) dies mid-rebuild, its in-flight chunk is re-queued
// and the rebuild "automatically continues on other available controllers".
//
// Reconstruction compute (XOR / Reed-Solomon) is charged to the worker's
// compute resource, so rebuild speed scales with live controllers until the
// member disks saturate — exactly the behaviour experiment E4 measures.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "obs/trace.h"
#include "raid/group.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "util/function.h"

namespace nlss::raid {

struct RebuildConfig {
  std::uint32_t chunk_stripes = 64;
  double xor_ns_per_byte = 0.5;  // controller reconstruction engine rate
};

class RebuildEngine {
 public:
  RebuildEngine(sim::Engine& engine, RebuildConfig config = {});

  /// Register a controller's rebuild worker; `compute` may be nullptr
  /// (infinitely fast compute).  Returns the worker id.
  int AddWorker(sim::Resource* compute);

  /// Failure injection / recovery.  Killing a worker re-queues its chunk.
  void SetWorkerAlive(int worker, bool alive);
  bool IsWorkerAlive(int worker) const { return workers_[worker].alive; }

  /// Start rebuilding `disk_index` of `group`.  The disk must have been
  /// Replace()d; this calls BeginRebuild/FinishRebuild on the group.
  /// `on_done(true)` fires when every stripe has been rebuilt.
  void Rebuild(RaidGroup& group, std::uint32_t disk_index,
               util::Function<void(bool)> on_done);

  /// Chunks completed by each worker (shows rebuild distribution).
  std::vector<std::uint64_t> ChunksByWorker() const;

  std::size_t ActiveJobs() const { return jobs_.size(); }

  /// Root-trace each rebuild job as "raid.rebuild" (background work is
  /// otherwise invisible in traces).  Pass nullptr to detach.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Job {
    RaidGroup* group;
    std::uint32_t disk_index;
    std::deque<std::uint64_t> pending_chunks;  // first stripe of each chunk
    std::uint64_t chunks_outstanding = 0;
    std::uint64_t chunks_total = 0;
    std::uint64_t chunks_done = 0;
    bool failed = false;
    util::Function<void(bool)> on_done;
    obs::TraceContext root;  // "raid.rebuild" span covering the whole job
    /// Invariant bookkeeping (Debug only): chunks already completed, to
    /// prove rebuild never re-does or re-queues written work.
    std::set<std::uint64_t> completed_chunks;
  };
  struct Worker {
    sim::Resource* compute = nullptr;
    bool alive = true;
    bool busy = false;
    std::uint64_t chunks_done = 0;
    const void* last_job = nullptr;  // affinity hint; identity only
  };

  void Dispatch();
  void DoDispatch();
  void RunChunk(int worker, const std::shared_ptr<Job>& job,
                std::uint64_t first_stripe);
  void RunStripe(int worker, const std::shared_ptr<Job>& job,
                 std::uint64_t first_stripe, std::uint64_t stripe,
                 std::uint64_t end_stripe);
  void ChunkFinished(int worker, const std::shared_ptr<Job>& job,
                     bool completed, std::uint64_t first_stripe);
  void MaybeCompleteJob(const std::shared_ptr<Job>& job);

  sim::Engine& engine_;
  RebuildConfig config_;
  std::vector<Worker> workers_;
  std::vector<std::shared_ptr<Job>> jobs_;
  std::size_t next_job_rr_ = 0;  // round-robin fairness across jobs
  bool dispatch_pending_ = false;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace nlss::raid
