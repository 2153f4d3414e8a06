/// \file engine_race_test.cc
/// ThreadSanitizer stress tests for the MapReduce engine (run under the
/// `tsan` preset; see docs/TOOLING.md). The tests deliberately use many
/// more threads than cores and single-record splits so the scheduler
/// produces as many distinct interleavings as possible for the race
/// detector to examine. They also assert functional results, so they are
/// meaningful (if less interesting) in uninstrumented builds.

#include "mapreduce/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/crh.h"
#include "datagen/noise.h"
#include "mapreduce/parallel_crh.h"

namespace crh {
namespace {

constexpr int kStressThreads = 16;

TEST(RunOnThreadsRaceTest, ManyThreadsSmallTasks) {
  for (int round = 0; round < 4; ++round) {
    constexpr size_t kTasks = 256;
    std::atomic<size_t> executed{0};
    std::vector<int> slots(kTasks, 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kTasks);
    for (size_t t = 0; t < kTasks; ++t) {
      tasks.push_back([&executed, &slots, t]() {
        slots[t] = 1;  // distinct element per task: must not race
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    ThreadPool pool(kStressThreads);
    internal::RunOnThreads(std::move(tasks), &pool);
    EXPECT_EQ(executed.load(), kTasks);
    for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(slots[t], 1) << "t=" << t;
  }
}

TEST(RunOnThreadsRaceTest, MoreThreadsThanTasks) {
  std::atomic<int> executed{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 3; ++t) {
    tasks.push_back([&executed]() { ++executed; });
  }
  ThreadPool pool(kStressThreads);
  internal::RunOnThreads(std::move(tasks), &pool);
  EXPECT_EQ(executed.load(), 3);
}

TEST(RunOnThreadsRaceTest, NoTasksAndSingleThreadFallback) {
  ThreadPool pool(kStressThreads);
  internal::RunOnThreads({}, &pool);  // must not hang or crash
  std::atomic<int> executed{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back([&executed]() { ++executed; });
  }
  internal::RunOnThreads(std::move(tasks), nullptr);  // inline, in order
  EXPECT_EQ(executed.load(), 8);
}

TEST(ThreadPoolRaceTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(kStressThreads);
  EXPECT_EQ(pool.num_workers(), static_cast<size_t>(kStressThreads));
  constexpr size_t kCount = 4096;
  std::vector<int> hits(kCount, 0);
  std::atomic<size_t> executed{0};
  pool.ParallelFor(kCount, [&hits, &executed](size_t i) {
    ++hits[i];  // distinct element per index: must not race
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(executed.load(), kCount);
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << "i=" << i;
}

TEST(ThreadPoolRaceTest, PoolIsReusableAcrossManyJobs) {
  // One pool, many back-to-back jobs: the generation/condvar handoff must
  // not lose wakeups or leak work between jobs.
  ThreadPool pool(8);
  for (int round = 0; round < 200; ++round) {
    const size_t count = static_cast<size_t>(1 + (round % 37));
    std::atomic<size_t> executed{0};
    pool.ParallelFor(count, [&executed](size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(executed.load(), count) << "round " << round;
  }
}

TEST(ThreadPoolRaceTest, MoreWorkersThanIndices) {
  ThreadPool pool(32);
  std::vector<int> hits(5, 0);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
  pool.ParallelFor(0, [](size_t) { FAIL() << "no index to run"; });
}

TEST(ThreadPoolRaceTest, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.ParallelFor(ran.size(), [&ran, caller](size_t i) {
    ran[i] = std::this_thread::get_id();
    EXPECT_EQ(ran[i], caller);
  });
}

TEST(ThreadPoolRaceTest, RunExecutesEveryTask) {
  ThreadPool pool(kStressThreads);
  constexpr size_t kTasks = 64;
  std::vector<int> slots(kTasks, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (size_t t = 0; t < kTasks; ++t) {
    tasks.push_back([&slots, t]() { slots[t] = 1; });
  }
  pool.Run(tasks);
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(slots[t], 1) << "t=" << t;
}

TEST(ThreadPoolRaceTest, ResolveNumThreads) {
  EXPECT_EQ(ThreadPool::ResolveNumThreads(5), 5u);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(-3), 1u);
  EXPECT_GE(ThreadPool::ResolveNumThreads(0), 1u);  // hardware concurrency
}

/// Word-count-shaped job: the canonical exercise of map + shuffle +
/// reduce with every stage contended.
MapReduceSpec<int, int, int64_t, std::pair<int, int64_t>> CountSpec() {
  MapReduceSpec<int, int, int64_t, std::pair<int, int64_t>> spec;
  spec.map = [](const int& record, std::vector<std::pair<int, int64_t>>* out) {
    out->emplace_back(record % 17, 1);
  };
  spec.reduce = [](const int& key, std::vector<int64_t>&& values,
                   std::vector<std::pair<int, int64_t>>* out) {
    int64_t sum = 0;
    for (int64_t v : values) sum += v;
    out->emplace_back(key, sum);
  };
  return spec;
}

TEST(EngineRaceTest, SingleRecordSplitsManyThreads) {
  std::vector<int> input(400);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int>(i);

  MapReduceConfig config;
  config.records_per_split = 1;  // one task per record: maximal contention
  config.num_reducers = 8;
  config.num_threads = kStressThreads;
  auto out = RunMapReduce(input, CountSpec(), config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.num_splits, input.size());
  EXPECT_EQ(out->stats.map_output_records, input.size());
  int64_t total = 0;
  for (const auto& [key, count] : out->records) total += count;
  EXPECT_EQ(total, static_cast<int64_t>(input.size()));
}

TEST(EngineRaceTest, RetryPathUnderContention) {
  std::vector<int> input(300);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int>(i);

  MapReduceConfig clean;
  clean.records_per_split = 1;
  clean.num_reducers = 8;
  clean.num_threads = kStressThreads;
  auto reference = RunMapReduce(input, CountSpec(), clean);
  ASSERT_TRUE(reference.ok());

  MapReduceConfig faulty = clean;
  faulty.fault_injection_rate = 0.3;
  faulty.max_attempts = 20;
  auto out = RunMapReduce(input, CountSpec(), faulty);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Retried task attempts must discard their buffers: the output has to be
  // identical to the fault-free run, not an accumulation of attempts.
  EXPECT_GT(out->stats.task_retries, 0u);
  EXPECT_EQ(out->stats.map_output_records, reference->stats.map_output_records);
  EXPECT_EQ(out->stats.shuffle_records, reference->stats.shuffle_records);
  ASSERT_EQ(out->records.size(), reference->records.size());
  int64_t total = 0;
  for (const auto& [key, count] : out->records) total += count;
  EXPECT_EQ(total, static_cast<int64_t>(input.size()));
}

TEST(EngineRaceTest, ExhaustedAttemptsFailCleanlyUnderThreads) {
  std::vector<int> input(64);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int>(i);
  MapReduceConfig config;
  config.records_per_split = 1;
  config.num_threads = kStressThreads;
  config.fault_injection_rate = 1.0;
  config.max_attempts = 2;
  auto out = RunMapReduce(input, CountSpec(), config);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

TEST(EngineRaceTest, ConcurrentJobsAreIndependent) {
  // The engine keeps all job state on the caller's stack, so independent
  // jobs must be runnable concurrently from different threads.
  constexpr int kJobs = 4;
  std::vector<int64_t> totals(kJobs, 0);
  std::vector<std::thread> drivers;
  drivers.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    drivers.emplace_back([j, &totals]() {
      std::vector<int> input(200);
      for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int>(i);
      MapReduceConfig config;
      config.records_per_split = 2;
      config.num_reducers = 4;
      config.num_threads = 4;
      auto out = RunMapReduce(input, CountSpec(), config);
      if (!out.ok()) return;
      for (const auto& [key, count] : out->records) totals[static_cast<size_t>(j)] += count;
    });
  }
  for (std::thread& t : drivers) t.join();
  for (size_t j = 0; j < kJobs; ++j) EXPECT_EQ(totals[j], 200) << "job " << j;
}

Dataset MakeRaceDataset(size_t n, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
  Dataset truth_data(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) truth_data.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(n, 2);
  for (size_t i = 0; i < n; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  truth_data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.6, 1.2, 1.8};
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

TEST(ParallelCrhRaceTest, ReducersUnderManyThreadsMatchSerialGeometry) {
  Dataset data = MakeRaceDataset(80, 97);

  ParallelCrhOptions serial;
  serial.max_iterations = 3;
  serial.convergence_tolerance = 0.0;
  serial.mr.num_threads = 1;
  auto reference = RunParallelCrh(data, serial);
  ASSERT_TRUE(reference.ok());

  ParallelCrhOptions stressed = serial;
  stressed.mr.num_mappers = 8;
  stressed.mr.num_reducers = 8;
  stressed.mr.records_per_split = 1;
  stressed.mr.num_threads = kStressThreads;
  auto out = RunParallelCrh(data, stressed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // Parallelism is an execution strategy: the heavily threaded run must be
  // bit-identical to the single-threaded one.
  for (size_t k = 0; k < data.num_sources(); ++k) {
    EXPECT_EQ(out->source_weights[k], reference->source_weights[k]) << "k=" << k;
  }
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      EXPECT_EQ(out->truths.Get(i, m), reference->truths.Get(i, m));
    }
  }
}

TEST(ParallelCrhRaceTest, RetriesDoNotPerturbFixedPoint) {
  Dataset data = MakeRaceDataset(60, 131);

  ParallelCrhOptions clean;
  clean.max_iterations = 2;
  clean.convergence_tolerance = 0.0;
  auto reference = RunParallelCrh(data, clean);
  ASSERT_TRUE(reference.ok());

  ParallelCrhOptions faulty = clean;
  faulty.mr.records_per_split = 1;
  faulty.mr.num_threads = kStressThreads;
  faulty.mr.fault_injection_rate = 0.2;
  faulty.mr.max_attempts = 25;
  auto out = RunParallelCrh(data, faulty);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  size_t retries = 0;
  for (const JobStats& stats : out->job_stats) retries += stats.task_retries;
  EXPECT_GT(retries, 0u);
  for (size_t k = 0; k < data.num_sources(); ++k) {
    EXPECT_EQ(out->source_weights[k], reference->source_weights[k]) << "k=" << k;
  }
}

TEST(ParallelCrhRaceTest, BatchSolverOversubscribedMatchesSequential) {
  // The in-process solver (sharded ThreadPool path, not MapReduce) at an
  // oversubscribed thread count: exercised here mainly for TSan; the result
  // must still be bit-identical to the sequential run.
  Dataset data = MakeRaceDataset(120, 173);

  CrhOptions serial;
  serial.num_threads = 1;
  auto reference = RunCrh(data, serial);
  ASSERT_TRUE(reference.ok());

  CrhOptions stressed;
  stressed.num_threads = kStressThreads;
  auto out = RunCrh(data, stressed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_EQ(out->source_weights, reference->source_weights);
  EXPECT_EQ(out->objective_history, reference->objective_history);
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      EXPECT_EQ(out->truths.Get(i, m), reference->truths.Get(i, m));
    }
  }
}

}  // namespace
}  // namespace crh
