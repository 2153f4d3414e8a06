#ifndef CRH_MAPREDUCE_ENGINE_H_
#define CRH_MAPREDUCE_ENGINE_H_

/// \file engine.h
/// An in-process MapReduce engine (the substrate standing in for the
/// paper's Hadoop cluster; Section 2.7).
///
/// The engine executes real map / shuffle / reduce semantics on a thread
/// pool:
///
///  1. the input is cut into splits, one mapper task per split;
///  2. each mapper applies the map function;
///  3. intermediate pairs are hash-partitioned across reducers;
///  4. each reducer groups its partition by key (keys processed in sorted
///     order, like Hadoop's sort phase) and applies the reduce function.
///
/// There is no mapper-side combiner: a job that wants Section 2.7.3's
/// pre-aggregation does it inside its map function (parallel CRH's weight
/// job sums each entry shard's losses before emitting).
///
/// Wall-clock on this machine is measured, and the calibrated
/// ClusterCostModel translates the record counts into simulated cluster
/// seconds for the scalability experiments.

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/cost_model.h"

namespace crh {

/// Engine configuration.
struct MapReduceConfig {
  /// Concurrent mapper tasks (split count is derived from this unless
  /// records_per_split is set).
  int num_mappers = 4;
  /// Reducer tasks (= output partitions).
  int num_reducers = 4;
  /// Records per split; 0 divides the input evenly over num_mappers.
  size_t records_per_split = 0;
  /// Number of OS threads running tasks; 0 = hardware concurrency.
  int num_threads = 0;
  /// Fault injection for testing the engine's retry path: probability that
  /// any task attempt is killed before committing its output (a simulated
  /// worker crash). Decisions are deterministic in (task, attempt).
  double fault_injection_rate = 0.0;
  /// Attempts per task before the whole job fails, as in Hadoop's
  /// mapred.map.max.attempts.
  int max_attempts = 3;
};

/// Validates a MapReduceConfig.
[[nodiscard]] Status ValidateMapReduceConfig(const MapReduceConfig& config);

/// Counters of one executed job.
struct JobStats {
  size_t input_records = 0;
  /// Task attempts that were killed and retried (both phases).
  size_t task_retries = 0;
  size_t map_output_records = 0;
  /// Records moved from mappers to reducers. The engine has no combiner,
  /// so this always equals map_output_records.
  size_t shuffle_records = 0;
  size_t reduce_groups = 0;
  size_t output_records = 0;
  size_t num_splits = 0;
  /// Measured wall-clock on this machine.
  double wall_seconds = 0.0;
};

/// Output of RunMapReduce.
template <typename Out>
struct MapReduceOutput {
  std::vector<Out> records;
  JobStats stats;
};

/// The two user functions of a job. K must be hashable and ordered.
template <typename In, typename K, typename V, typename Out>
struct MapReduceSpec {
  /// Emits zero or more (key, value) pairs per input record.
  std::function<void(const In&, std::vector<std::pair<K, V>>*)> map;
  /// Consumes one key group and appends output records.
  std::function<void(const K&, std::vector<V>&&, std::vector<Out>*)> reduce;
};

namespace internal {

/// Runs `tasks` on an existing pool (task t on worker t % W, the caller
/// participating as worker 0; exceptions must not escape the callables).
/// A null pool runs the tasks inline in order.
void RunOnThreads(std::vector<std::function<void()>> tasks, ThreadPool* pool);

/// Deterministic fault-injection decision for (phase, task, attempt).
/// Phases 0/1 kill a map/reduce attempt before it starts; phases 2/3 kill
/// it after the work but before its output commits.
bool InjectFault(size_t phase, size_t task, int attempt, double rate);

}  // namespace internal

/// Executes one MapReduce job over `input`.
template <typename In, typename K, typename V, typename Out>
[[nodiscard]] Result<MapReduceOutput<Out>> RunMapReduce(const std::vector<In>& input,
                                                        const MapReduceSpec<In, K, V, Out>& spec,
                                                        const MapReduceConfig& config = {}) {
  CRH_RETURN_NOT_OK(ValidateMapReduceConfig(config));
  if (!spec.map || !spec.reduce) {
    return Status::InvalidArgument("map and reduce functions are required");
  }

  // Task attempt wrapper. Each attempt runs `body` into attempt-local
  // buffers and publishes them with `commit` only if the attempt survives,
  // like Hadoop's task-output commit protocol: a killed attempt — whether
  // it dies before doing any work (phase 0/1) or after producing its full
  // output but before committing (phase 2/3) — leaks nothing into the job
  // output. The audit property "a failed attempt leaves no partial
  // partition output" is structural, not an invariant the bodies must
  // maintain.
  //
  // Memory-order contract for the two shared counters: tasks only ever
  // *write* them (fetch_add / store), and the driver only *reads* them
  // after RunOnThreads returns, whose ParallelFor join (mutex + condition
  // variable handshake in ThreadPool) already orders every task write
  // before the driver's read. The atomics therefore carry no ordering
  // duty of their own — they exist solely so concurrent tasks don't race
  // each other — and every access is explicitly relaxed. Verified by the
  // tsan-labeled suite (tests/engine_race_test.cc, tests/mapreduce_test.cc
  // retry-path cases under the tsan preset).
  std::atomic<size_t> total_retries{0};
  std::atomic<bool> task_failed{false};
  const auto run_with_retries = [&](size_t phase, size_t task,
                                    const std::function<void()>& body,
                                    const std::function<void()>& commit) {
    for (int attempt = 0; attempt < config.max_attempts; ++attempt) {
      // Worker crashed before starting the attempt.
      if (internal::InjectFault(phase, task, attempt, config.fault_injection_rate)) {
        total_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      body();
      // Worker crashed after the work but before the commit: the
      // attempt-local buffers are discarded on retry.
      if (internal::InjectFault(phase + 2, task, attempt, config.fault_injection_rate)) {
        total_retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      commit();
      return;
    }
    task_failed.store(true, std::memory_order_relaxed);
  };

  Stopwatch watch;
  MapReduceOutput<Out> out;
  out.stats.input_records = input.size();

  // --- Split the input.
  const size_t mappers = static_cast<size_t>(config.num_mappers);
  const size_t split_size =
      config.records_per_split > 0
          ? config.records_per_split
          : std::max<size_t>(1, (input.size() + mappers - 1) / mappers);
  const size_t num_splits = input.empty() ? 0 : (input.size() + split_size - 1) / split_size;
  out.stats.num_splits = num_splits;

  const size_t r = static_cast<size_t>(config.num_reducers);

  // One executor reused by both phases. Sized to the wider phase so neither
  // spawns more threads than it has tasks.
  const size_t job_workers = std::min(ThreadPool::ResolveNumThreads(config.num_threads),
                                      std::max<size_t>(std::max(num_splits, r), 1));
  ThreadPool job_pool(static_cast<int>(job_workers));

  // --- Map phase: each mapper partitions its output by
  // reducer so the shuffle is a simple concatenation.
  // partitioned[mapper][reducer] -> pairs.
  std::vector<std::vector<std::vector<std::pair<K, V>>>> partitioned(
      num_splits, std::vector<std::vector<std::pair<K, V>>>(r));
  std::vector<size_t> map_counts(num_splits, 0);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_splits);
    for (size_t split = 0; split < num_splits; ++split) {
      tasks.push_back([&, split]() {
        std::vector<std::vector<std::pair<K, V>>> attempt_parts;
        size_t attempt_records = 0;
        run_with_retries(
            /*phase=*/0, split,
            [&]() {
              attempt_parts.assign(r, {});
              const size_t begin = split * split_size;
              const size_t end = std::min(input.size(), begin + split_size);
              std::vector<std::pair<K, V>> buffer;
              for (size_t idx = begin; idx < end; ++idx) spec.map(input[idx], &buffer);
              attempt_records = buffer.size();
              for (auto& [key, value] : buffer) {
                const size_t part = std::hash<K>{}(key) % r;
                attempt_parts[part].emplace_back(std::move(key), std::move(value));
              }
            },
            [&]() {
              partitioned[split] = std::move(attempt_parts);
              map_counts[split] = attempt_records;
            });
      });
    }
    internal::RunOnThreads(std::move(tasks), &job_pool);
    if (task_failed.load(std::memory_order_relaxed)) {
      return Status::Internal("a map task exhausted its attempts");
    }
  }
  for (size_t split = 0; split < num_splits; ++split) {
    out.stats.map_output_records += map_counts[split];
    for (size_t part = 0; part < r; ++part) {
      out.stats.shuffle_records += partitioned[split][part].size();
    }
  }

  // --- Reduce phase: each reducer merges its partitions, groups by key in
  // sorted order, and reduces each group.
  std::vector<std::vector<Out>> reducer_outputs(r);
  std::vector<size_t> group_counts(r, 0);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(r);
    for (size_t part = 0; part < r; ++part) {
      tasks.push_back([&, part]() {
        std::vector<Out> attempt_output;
        size_t attempt_groups = 0;
        run_with_retries(
            /*phase=*/1, part,
            [&]() {
              attempt_output.clear();
              std::map<K, std::vector<V>> groups;  // ordered, like Hadoop's sort
              for (size_t split = 0; split < num_splits; ++split) {
                // Copy (not move): the shuffle output must survive for retries.
                for (const auto& [key, value] : partitioned[split][part]) {
                  groups[key].push_back(value);
                }
              }
              attempt_groups = groups.size();
              for (auto& [key, values] : groups) {
                spec.reduce(key, std::move(values), &attempt_output);
              }
            },
            [&]() {
              reducer_outputs[part] = std::move(attempt_output);
              group_counts[part] = attempt_groups;
            });
      });
    }
    internal::RunOnThreads(std::move(tasks), &job_pool);
    if (task_failed.load(std::memory_order_relaxed)) {
      return Status::Internal("a reduce task exhausted its attempts");
    }
  }
  for (size_t part = 0; part < r; ++part) {
    out.stats.reduce_groups += group_counts[part];
    out.records.insert(out.records.end(),
                       std::make_move_iterator(reducer_outputs[part].begin()),
                       std::make_move_iterator(reducer_outputs[part].end()));
  }
  out.stats.output_records = out.records.size();
  out.stats.task_retries = total_retries.load(std::memory_order_relaxed);
  out.stats.wall_seconds = watch.ElapsedSeconds();
  return out;
}

}  // namespace crh

#endif  // CRH_MAPREDUCE_ENGINE_H_
