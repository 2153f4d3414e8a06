#include "mapreduce/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "mapreduce/cost_model.h"

namespace crh {
namespace {

/// Canonical word-count job used by several tests.
MapReduceSpec<std::string, std::string, int, std::pair<std::string, int>> WordCountSpec() {
  MapReduceSpec<std::string, std::string, int, std::pair<std::string, int>> spec;
  spec.map = [](const std::string& line, std::vector<std::pair<std::string, int>>* out) {
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string::npos) end = line.size();
      if (end > pos) out->emplace_back(line.substr(pos, end - pos), 1);
      pos = end + 1;
    }
  };
  spec.reduce = [](const std::string& word, std::vector<int>&& counts,
                   std::vector<std::pair<std::string, int>>* out) {
    int total = 0;
    for (int c : counts) total += c;
    out->emplace_back(word, total);
  };
  return spec;
}

std::map<std::string, int> RunWordCount(const std::vector<std::string>& input,
                                        const MapReduceConfig& config,
                                        JobStats* stats = nullptr) {
  auto result = RunMapReduce(input, WordCountSpec(), config);
  EXPECT_TRUE(result.ok());
  std::map<std::string, int> out;
  for (const auto& [word, count] : result->records) out[word] = count;
  if (stats) *stats = result->stats;
  return out;
}

TEST(MapReduceConfigTest, Validation) {
  MapReduceConfig config;
  config.num_mappers = 0;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
  config = {};
  config.num_reducers = 0;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
  config = {};
  config.num_threads = -1;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
  EXPECT_TRUE(ValidateMapReduceConfig({}).ok());
}

TEST(MapReduceTest, RequiresMapAndReduce) {
  MapReduceSpec<int, int, int, int> spec;
  EXPECT_FALSE(RunMapReduce(std::vector<int>{1}, spec).ok());
}

TEST(MapReduceTest, WordCountCorrect) {
  const std::vector<std::string> input = {"a b a", "b c", "a"};
  const auto counts = RunWordCount(input, {});
  EXPECT_EQ(counts.at("a"), 3);
  EXPECT_EQ(counts.at("b"), 2);
  EXPECT_EQ(counts.at("c"), 1);
}

TEST(MapReduceTest, EmptyInputProducesEmptyOutput) {
  JobStats stats;
  const auto counts = RunWordCount({}, {}, &stats);
  EXPECT_TRUE(counts.empty());
  EXPECT_EQ(stats.input_records, 0u);
  EXPECT_EQ(stats.num_splits, 0u);
}

TEST(MapReduceTest, ResultIndependentOfMapperCount) {
  std::vector<std::string> input;
  for (int i = 0; i < 100; ++i) input.push_back("w" + std::to_string(i % 7) + " x");
  const auto reference = RunWordCount(input, {});
  for (int mappers : {1, 2, 5, 16}) {
    MapReduceConfig config;
    config.num_mappers = mappers;
    EXPECT_EQ(RunWordCount(input, config), reference) << mappers << " mappers";
  }
}

TEST(MapReduceTest, ResultIndependentOfReducerCount) {
  std::vector<std::string> input;
  for (int i = 0; i < 100; ++i) input.push_back("w" + std::to_string(i % 11));
  const auto reference = RunWordCount(input, {});
  for (int reducers : {1, 2, 7, 25}) {
    MapReduceConfig config;
    config.num_reducers = reducers;
    EXPECT_EQ(RunWordCount(input, config), reference) << reducers << " reducers";
  }
}


TEST(MapReduceTest, StatsAreConsistent) {
  std::vector<std::string> input = {"x y", "y z", "z z"};
  JobStats stats;
  MapReduceConfig config;
  config.num_mappers = 2;
  RunWordCount(input, config, &stats);
  EXPECT_EQ(stats.input_records, 3u);
  EXPECT_EQ(stats.map_output_records, 6u);
  EXPECT_EQ(stats.shuffle_records, stats.map_output_records);  // no combiner
  EXPECT_EQ(stats.reduce_groups, 3u);
  EXPECT_EQ(stats.output_records, 3u);
  EXPECT_EQ(stats.num_splits, 2u);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(MapReduceTest, RecordsPerSplitControlsSplitCount) {
  std::vector<std::string> input(100, "w");
  MapReduceConfig config;
  config.records_per_split = 30;
  JobStats stats;
  RunWordCount(input, config, &stats);
  EXPECT_EQ(stats.num_splits, 4u);  // 30+30+30+10
}

TEST(MapReduceTest, MultiThreadedMatchesSingleThreaded) {
  std::vector<std::string> input;
  for (int i = 0; i < 500; ++i) input.push_back("k" + std::to_string(i % 13));
  MapReduceConfig single, multi;
  single.num_threads = 1;
  multi.num_threads = 4;
  multi.num_mappers = 8;
  multi.num_reducers = 8;
  EXPECT_EQ(RunWordCount(input, single), RunWordCount(input, multi));
}

TEST(MapReduceTest, AllMappersExecute) {
  std::atomic<int> map_calls{0};
  MapReduceSpec<int, int, int, int> spec;
  spec.map = [&](const int& x, std::vector<std::pair<int, int>>* out) {
    ++map_calls;
    out->emplace_back(x % 3, x);
  };
  spec.reduce = [](const int&, std::vector<int>&& values, std::vector<int>* out) {
    out->push_back(static_cast<int>(values.size()));
  };
  std::vector<int> input(50);
  for (int i = 0; i < 50; ++i) input[static_cast<size_t>(i)] = i;
  MapReduceConfig config;
  config.num_mappers = 7;
  auto result = RunMapReduce(input, spec, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(map_calls.load(), 50);
  EXPECT_EQ(result->records.size(), 3u);
}

TEST(MapReduceTest, KeysArriveSortedWithinReducer) {
  // The engine groups with an ordered map, mirroring Hadoop's sort phase;
  // with one reducer the output order must be fully sorted.
  MapReduceSpec<int, int, int, int> spec;
  spec.map = [](const int& x, std::vector<std::pair<int, int>>* out) {
    out->emplace_back(x, x);
  };
  spec.reduce = [](const int& key, std::vector<int>&&, std::vector<int>* out) {
    out->push_back(key);
  };
  std::vector<int> input = {5, 3, 9, 1, 7};
  MapReduceConfig config;
  config.num_reducers = 1;
  auto result = RunMapReduce(input, spec, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, (std::vector<int>{1, 3, 5, 7, 9}));
}

// ---------------------------------------------------------------------------
// Fault tolerance (task retry)
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, ConfigValidation) {
  MapReduceConfig config;
  config.fault_injection_rate = -0.1;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
  config = {};
  config.fault_injection_rate = 1.5;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
  config = {};
  config.max_attempts = 0;
  EXPECT_FALSE(ValidateMapReduceConfig(config).ok());
}

TEST(FaultToleranceTest, RetriesProduceIdenticalResults) {
  std::vector<std::string> input;
  for (int i = 0; i < 300; ++i) input.push_back("w" + std::to_string(i % 13) + " x y");
  const auto reference = RunWordCount(input, {});
  MapReduceConfig faulty;
  faulty.num_mappers = 8;
  faulty.num_reducers = 6;
  faulty.fault_injection_rate = 0.3;
  faulty.max_attempts = 10;
  JobStats stats;
  const auto result = RunWordCount(input, faulty, &stats);
  EXPECT_EQ(result, reference);
  EXPECT_GT(stats.task_retries, 0u);  // failures actually happened
}

TEST(FaultToleranceTest, ExhaustedAttemptsFailTheJob) {
  std::vector<std::string> input = {"a b", "c d"};
  MapReduceConfig always_fails;
  always_fails.fault_injection_rate = 1.0;
  always_fails.max_attempts = 3;
  auto spec = WordCountSpec();
  auto result = RunMapReduce(input, spec, always_fails);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(FaultToleranceTest, KilledAttemptsNeverLeakPartialOutput) {
  // Attempts can now die *after* their body ran (post-body, pre-commit kill
  // sites), so any partial partition output or double-counted stats from a
  // killed attempt would surface as a wrong word count here. The injection
  // hash is deterministic, so passing once means passing always.
  std::vector<std::string> input;
  for (int i = 0; i < 400; ++i) {
    input.push_back("w" + std::to_string(i % 17) + " x w" + std::to_string(i % 5));
  }
  JobStats clean_stats;
  const auto reference = RunWordCount(input, {}, &clean_stats);
  for (double rate : {0.3, 0.6}) {
    MapReduceConfig faulty;
    faulty.num_mappers = 7;
    faulty.num_reducers = 5;
    faulty.fault_injection_rate = rate;
    faulty.max_attempts = 40;
    JobStats stats;
    const auto result = RunWordCount(input, faulty, &stats);
    EXPECT_EQ(result, reference) << "rate " << rate;
    EXPECT_GT(stats.task_retries, 0u) << "rate " << rate;
    // Committed stats must match the fault-free run exactly: a leaked
    // attempt would inflate the map-output or group counters.
    EXPECT_EQ(stats.map_output_records, clean_stats.map_output_records);
    EXPECT_EQ(stats.reduce_groups, clean_stats.reduce_groups);
    EXPECT_EQ(stats.output_records, clean_stats.output_records);
  }
}

TEST(FaultToleranceTest, PreCommitKillSitesAreDeterministic) {
  // Phases 2 and 3 are the post-body kill sites for map and reduce.
  for (size_t phase : {size_t{2}, size_t{3}}) {
    for (size_t task = 0; task < 5; ++task) {
      EXPECT_EQ(internal::InjectFault(phase, task, 0, 0.5),
                internal::InjectFault(phase, task, 0, 0.5));
    }
    EXPECT_FALSE(internal::InjectFault(phase, 0, 0, 0.0));
    EXPECT_TRUE(internal::InjectFault(phase, 0, 0, 1.0));
  }
}

TEST(FaultToleranceTest, NoFaultsMeansNoRetries) {
  std::vector<std::string> input = {"a b", "c d"};
  JobStats stats;
  RunWordCount(input, {}, &stats);
  EXPECT_EQ(stats.task_retries, 0u);
}

TEST(FaultToleranceTest, InjectionIsDeterministic) {
  for (size_t phase = 0; phase < 2; ++phase) {
    for (size_t task = 0; task < 5; ++task) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(internal::InjectFault(phase, task, attempt, 0.5),
                  internal::InjectFault(phase, task, attempt, 0.5));
      }
    }
  }
  EXPECT_FALSE(internal::InjectFault(0, 0, 0, 0.0));
  EXPECT_TRUE(internal::InjectFault(0, 0, 0, 1.0));
}

TEST(FaultToleranceTest, InjectionRateApproximatelyHonored) {
  int failures = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    if (internal::InjectFault(0, static_cast<size_t>(t), 0, 0.3)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / trials, 0.3, 0.04);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, SetupDominatesSmallInputs) {
  // Table 6: 1e4 .. 1e6 observations all take ~94-100 s.
  ClusterCostModel model;
  const double t4 = model.EstimateFusionSeconds(1e4, 10);
  const double t6 = model.EstimateFusionSeconds(1e6, 10);
  EXPECT_NEAR(t4, model.job_setup_seconds, 5.0);
  EXPECT_LT(t6 - t4, 40.0);
}

TEST(CostModelTest, LargeInputsGrowRoughlyLinearly) {
  ClusterCostModel model;
  const double t8 = model.EstimateFusionSeconds(1e8, 10);
  const double t48 = model.EstimateFusionSeconds(4e8, 10);
  EXPECT_GT(t48, 2.5 * t8 * 0.5);  // super-constant
  EXPECT_NEAR(t48 / t8, 4.0, 1.5);  // near-linear once map-bound
}

TEST(CostModelTest, MatchesTable6Magnitudes) {
  // Not the exact cluster, but the same order of magnitude per row.
  ClusterCostModel model;
  EXPECT_NEAR(model.EstimateFusionSeconds(1e4, 10), 94, 15);
  EXPECT_NEAR(model.EstimateFusionSeconds(1e5, 10), 96, 15);
  EXPECT_NEAR(model.EstimateFusionSeconds(1e6, 10), 100, 15);
  EXPECT_NEAR(model.EstimateFusionSeconds(1e7, 10), 193, 40);
  EXPECT_NEAR(model.EstimateFusionSeconds(1e8, 10), 669, 250);
  EXPECT_NEAR(model.EstimateFusionSeconds(4e8, 10), 1384, 400);
}

TEST(CostModelTest, ReducerCurveIsNonMonotoneWithOptimumNearTen) {
  // Fig 8: more reducers first help then hurt; optimum around 10.
  ClusterCostModel model;
  const double n = 4e8;
  double best_r = 0, best_t = 1e300;
  for (int r = 1; r <= 30; ++r) {
    const double t = model.EstimateFusionSeconds(n, r);
    if (t < best_t) {
      best_t = t;
      best_r = r;
    }
  }
  EXPECT_GE(best_r, 5);
  EXPECT_LE(best_r, 15);
  EXPECT_GT(model.EstimateFusionSeconds(n, 2), best_t);
  EXPECT_GT(model.EstimateFusionSeconds(n, 25), best_t);
}

TEST(CostModelTest, MapParallelismSaturates) {
  ClusterCostModel model;
  EXPECT_DOUBLE_EQ(model.MapParallelism(1), 1.0);
  EXPECT_DOUBLE_EQ(model.MapParallelism(model.records_per_split * 3), 3.0);
  EXPECT_DOUBLE_EQ(model.MapParallelism(1e12), static_cast<double>(model.map_slots));
}

TEST(CostModelTest, PassSecondsMonotoneInObservations) {
  ClusterCostModel model;
  double prev = 0;
  for (double n : {1e4, 1e5, 1e6, 1e7, 1e8, 1e9}) {
    const double t = model.EstimatePassSeconds(n, 10);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace crh
