#include "raid/rebuild.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "check/invariant.h"

namespace nlss::raid {

RebuildEngine::RebuildEngine(sim::Engine& engine, RebuildConfig config)
    : engine_(engine), config_(config) {}

int RebuildEngine::AddWorker(sim::Resource* compute) {
  workers_.push_back(Worker{.compute = compute, .alive = true, .busy = false,
                            .chunks_done = 0});
  return static_cast<int>(workers_.size() - 1);
}

void RebuildEngine::SetWorkerAlive(int worker, bool alive) {
  workers_[worker].alive = alive;
  if (alive) {
    Dispatch();
  }
  // If killed while busy, the in-flight chunk notices on its next step and
  // re-queues itself (see RunStripe / ChunkFinished).
}

void RebuildEngine::Rebuild(RaidGroup& group, std::uint32_t disk_index,
                            util::Function<void(bool)> on_done) {
  group.BeginRebuild(disk_index);
  auto job = std::make_shared<Job>();
  job->group = &group;
  job->disk_index = disk_index;
  job->on_done = std::move(on_done);
  const std::uint64_t stripes = group.StripeCount();
  for (std::uint64_t s = 0; s < stripes; s += config_.chunk_stripes) {
    job->pending_chunks.push_back(s);
  }
  job->chunks_total = job->pending_chunks.size();
  if (tracer_ != nullptr) {
    job->root = tracer_->StartTrace(obs::Layer::kOther, "raid.rebuild");
    if (job->root.sampled()) {
      tracer_->Annotate(job->root,
                        "disk=" + std::to_string(disk_index) + " chunks=" +
                            std::to_string(job->chunks_total));
    }
  }
  jobs_.push_back(job);
  Dispatch();
}

void RebuildEngine::Dispatch() {
  // Defer to the event loop so that jobs registered in the same tick are
  // all visible before workers pick — otherwise every free worker piles
  // onto the first job submitted.
  if (dispatch_pending_) return;
  dispatch_pending_ = true;
  // Order-tolerant coalescer: a same-tick Dispatch() either sees the flag
  // and folds into this pass, or re-arms a second pass in the same tick;
  // DoDispatch assigns from full jobs_/workers_ state either way, so every
  // interleaving converges to the same placement.
  // nlss-lint: allow(same-tick-chain)
  engine_.Schedule(0, [this] {
    dispatch_pending_ = false;
    DoDispatch();
  });
}

void RebuildEngine::DoDispatch() {
  if (jobs_.empty()) return;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    if (!worker.alive || worker.busy) continue;
    // Job selection: keep the worker on its previous job when possible
    // (sequential disk access within a group), otherwise pick the pending
    // job with the fewest active workers.  Interleaving several workers in
    // one group thrashes the member disks with seeks, so affinity matters.
    std::shared_ptr<Job> job;
    if (worker.last_job != nullptr) {
      for (auto& candidate : jobs_) {
        if (candidate.get() == worker.last_job &&
            !candidate->pending_chunks.empty()) {
          job = candidate;
          break;
        }
      }
    }
    if (!job) {
      std::uint64_t best_load = ~0ULL;
      for (std::size_t k = 0; k < jobs_.size(); ++k) {
        auto& candidate = jobs_[(next_job_rr_ + k) % jobs_.size()];
        if (candidate->pending_chunks.empty()) continue;
        if (candidate->chunks_outstanding < best_load) {
          best_load = candidate->chunks_outstanding;
          job = candidate;
        }
      }
      next_job_rr_ = (next_job_rr_ + 1) % std::max<std::size_t>(1, jobs_.size());
    }
    if (!job) return;  // nothing left to hand out
    worker.last_job = job.get();
    const std::uint64_t first = job->pending_chunks.front();
    job->pending_chunks.pop_front();
    ++job->chunks_outstanding;
    worker.busy = true;
    RunChunk(static_cast<int>(w), job, first);
  }
}

void RebuildEngine::RunChunk(int worker, const std::shared_ptr<Job>& job,
                             std::uint64_t first_stripe) {
  const std::uint64_t end =
      std::min<std::uint64_t>(first_stripe + config_.chunk_stripes,
                              job->group->StripeCount());
  RunStripe(worker, job, first_stripe, first_stripe, end);
}

void RebuildEngine::RunStripe(int worker, const std::shared_ptr<Job>& job,
                              std::uint64_t first_stripe, std::uint64_t stripe,
                              std::uint64_t end_stripe) {
  Worker& w = workers_[worker];
  if (!w.alive) {
    ChunkFinished(worker, job, /*completed=*/false, first_stripe);
    return;
  }
  if (stripe >= end_stripe) {
    ChunkFinished(worker, job, /*completed=*/true, first_stripe);
    return;
  }
  NLSS_INVARIANT(kRaid, end_stripe <= job->group->StripeCount(),
                 "chunk end %llu past group stripe count %llu",
                 static_cast<unsigned long long>(end_stripe),
                 static_cast<unsigned long long>(job->group->StripeCount()));
  // Charge the worker's reconstruction compute: it reads width-1 surviving
  // units and produces one unit.
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(job->group->width()) *
      job->group->layout().unit_blocks() * job->group->block_size();
  auto proceed = [this, worker, job, first_stripe, stripe, end_stripe] {
    job->group->RebuildStripe(
        stripe, job->disk_index,
        [this, worker, job, first_stripe, stripe, end_stripe](bool ok) {
          if (!ok) {
            // Unrecoverable stripe (too many failures): the whole job fails.
            job->failed = true;
            ChunkFinished(worker, job, /*completed=*/true, first_stripe);
            return;
          }
          RunStripe(worker, job, first_stripe, stripe + 1, end_stripe);
        });
  };
  if (w.compute != nullptr) {
    engine_.ScheduleAt(w.compute->AcquireBytes(bytes, config_.xor_ns_per_byte),
                       std::move(proceed));
  } else {
    engine_.Schedule(0, std::move(proceed));
  }
}

void RebuildEngine::ChunkFinished(int worker, const std::shared_ptr<Job>& job,
                                  bool completed, std::uint64_t first_stripe) {
  Worker& w = workers_[worker];
  w.busy = false;
  --job->chunks_outstanding;
  if (completed) {
    // Rebuild never re-does written work: each chunk completes once.
    NLSS_INVARIANT(kRaid, job->completed_chunks.count(first_stripe) == 0,
                   "chunk at stripe %llu completed twice",
                   static_cast<unsigned long long>(first_stripe));
    if constexpr (check::kEnabled) {
      job->completed_chunks.insert(first_stripe);
    }
    ++job->chunks_done;
    ++w.chunks_done;
  } else {
    // Worker died: hand the chunk back for another controller.  A chunk
    // already written must never be queued for re-rebuild.
    NLSS_INVARIANT(kRaid, job->completed_chunks.count(first_stripe) == 0,
                   "completed chunk at stripe %llu re-queued",
                   static_cast<unsigned long long>(first_stripe));
    job->pending_chunks.push_front(first_stripe);
  }
  MaybeCompleteJob(job);
  Dispatch();
}

void RebuildEngine::MaybeCompleteJob(const std::shared_ptr<Job>& job) {
  if (job->chunks_outstanding > 0 || !job->pending_chunks.empty()) return;
  if (job->chunks_done < job->chunks_total && !job->failed) return;
  // Remove from the active list.
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  if (job->root.sampled()) {
    job->root.tracer->EndTrace(job->root, !job->failed);
    job->root = {};
  }
  if (!job->failed) {
    job->group->FinishRebuild(job->disk_index);
    if (job->on_done) job->on_done(true);
  } else {
    if (job->on_done) job->on_done(false);
  }
}

std::vector<std::uint64_t> RebuildEngine::ChunksByWorker() const {
  std::vector<std::uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w.chunks_done);
  return out;
}

}  // namespace nlss::raid
