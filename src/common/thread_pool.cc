#include "common/thread_pool.h"

#include <algorithm>

namespace crh {

size_t ThreadPool::ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return static_cast<size_t>(num_threads);
  if (num_threads == 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return 1;
}

ThreadPool::ThreadPool(int num_threads) : num_workers_(ResolveNumThreads(num_threads)) {
  helpers_.reserve(num_workers_ - 1);
  for (size_t w = 1; w < num_workers_; ++w) {
    helpers_.emplace_back([this, w]() { HelperLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& helper : helpers_) helper.join();
}

void ThreadPool::HelperLoop(size_t worker) {
  uint64_t seen = 0;
  mu_.Lock();
  for (;;) {
    while (!shutdown_ && generation_ == seen) work_cv_.Wait(&mu_);
    if (shutdown_) {
      mu_.Unlock();
      return;
    }
    seen = generation_;
    const size_t count = job_count_;
    const std::function<void(size_t)>* fn = job_fn_;
    // The job body runs unlocked: holding mu_ across user callables would
    // serialize the pool and deadlock any callable touching the registry
    // (crh_analyzer's lock-order check enforces this shape).
    mu_.Unlock();
    for (size_t index = worker; index < count; index += num_workers_) (*fn)(index);
    mu_.Lock();
    ++helpers_finished_;
    if (helpers_finished_ == num_workers_ - 1) done_cv_.NotifyOne();
  }
}

void ThreadPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (num_workers_ == 1 || count == 1) {
    // Inline fast path: identical index order, no synchronization.
    for (size_t index = 0; index < count; ++index) fn(index);
    return;
  }
  {
    const MutexLock lock(&mu_);
    job_count_ = count;
    job_fn_ = &fn;
    helpers_finished_ = 0;
    ++generation_;
  }
  work_cv_.NotifyAll();
  // The caller is worker 0.
  for (size_t index = 0; index < count; index += num_workers_) fn(index);
  mu_.Lock();
  while (helpers_finished_ != num_workers_ - 1) done_cv_.Wait(&mu_);
  job_fn_ = nullptr;
  mu_.Unlock();
}

void ThreadPool::Run(const std::vector<std::function<void()>>& tasks) {
  ParallelFor(tasks.size(), [&tasks](size_t t) { tasks[t](); });
}

}  // namespace crh
