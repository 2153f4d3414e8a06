#include "mapreduce/engine.h"

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace crh {

Status ValidateMapReduceConfig(const MapReduceConfig& config) {
  if (config.fault_injection_rate < 0.0 || config.fault_injection_rate > 1.0) {
    return Status::InvalidArgument("fault_injection_rate must be in [0, 1]");
  }
  if (config.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (config.num_mappers < 1) {
    return Status::InvalidArgument("num_mappers must be >= 1");
  }
  if (config.num_reducers < 1) {
    return Status::InvalidArgument("num_reducers must be >= 1");
  }
  if (config.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

namespace internal {

bool InjectFault(size_t phase, size_t task, int attempt, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Mix64 (common/fault_injection.h) over the (phase, task, attempt)
  // triple: deterministic, well-mixed, independent across attempts, and
  // the same mixer every other robustness decision in the library uses.
  constexpr uint64_t kMix1 = 0x9e3779b97f4a7c15u;
  constexpr uint64_t kMix2 = 0xbf58476d1ce4e5b9u;
  constexpr uint64_t kMix3 = 0x94d049bb133111ebu;
  constexpr uint64_t kMix4 = 0x2545f4914f6cdd1du;
  const uint64_t x =
      phase * kMix1 + task * kMix2 + static_cast<uint64_t>(attempt) * kMix3 + kMix4;
  return UnitUniformFromHash(Mix64(x)) < rate;
}

void RunOnThreads(std::vector<std::function<void()>> tasks, ThreadPool* pool) {
  if (pool == nullptr || pool->num_workers() <= 1 || tasks.size() <= 1) {
    for (auto& task : tasks) task();
    return;
  }
  // Static round-robin assignment (ThreadPool's contract): task t runs on
  // worker t % W, with the caller participating as worker 0.
  pool->ParallelFor(tasks.size(), [&tasks](size_t t) { tasks[t](); });
}

}  // namespace internal

}  // namespace crh
