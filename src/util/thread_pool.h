// A fixed-size worker pool for CPU-bound kernels (RAID parity, rebuild
// reconstruction, encryption).  The discrete-event simulation itself is
// single-threaded and deterministic; the pool exists for real-time compute
// paths and the real-time benchmarks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function.h"

namespace nlss::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Safe from any thread, including workers.
  void Submit(Function<void()> task);

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Chunked statically; the calling thread participates.
  void ParallelFor(std::size_t n, FunctionRef<void(std::size_t)> fn);

  /// Block until all queued and running tasks are finished.
  void Wait();

  std::size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;        // wakes workers
  std::condition_variable idle_cv_;   // wakes Wait()
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace nlss::util
