#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace nlss::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(Function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(std::size_t n, FunctionRef<void(std::size_t)> fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t per = (n + chunks - 1) / chunks;
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  std::size_t launched = 0;
  for (std::size_t c = 0; c * per < n; ++c) ++launched;
  remaining.store(launched, std::memory_order_relaxed);

  for (std::size_t c = 0; c * per < n; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(n, lo + per);
    Submit([&, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(done_mu);
        done_cv.notify_all();
      }
    });
  }
  std::unique_lock lock(done_mu);
  done_cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
}

}  // namespace nlss::util
