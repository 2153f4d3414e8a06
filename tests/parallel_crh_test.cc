#include "mapreduce/parallel_crh.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <tuple>

#include "common/rng.h"
#include "datagen/noise.h"
#include "eval/metrics.h"

namespace crh {
namespace {

Dataset MakeMixedDataset(size_t n = 150, uint64_t seed = 61, double missing = 0.0) {
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
  noise.missing_rate = missing;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

/// Continuous, categorical and text properties with missing claims: n
/// objects give 3n entries, so n >= 683 spans at least two entry shards.
Dataset MakeHeterogeneousDataset(size_t n, uint64_t seed, double missing) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  EXPECT_TRUE(schema.AddText("name").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
  Dataset truth_data(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) truth_data.mutable_dict(1).GetOrAdd(l);
  const std::vector<std::string> stems = {"north bakery", "grand hotel", "river diner",
                                          "oak market"};
  Rng rng(seed);
  ValueTable truth(n, 3);
  for (size_t i = 0; i < n; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
    const std::string name = stems[static_cast<size_t>(rng.UniformInt(0, 3))] + " " +
                             std::to_string(rng.UniformInt(1, 99));
    truth.Set(i, 2, truth_data.InternCategorical(2, name));
  }
  truth_data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.6, 1.2, 1.8, 2.4};
  noise.missing_rate = missing;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Parallel truths and weights equal the batch solver's bit for bit: weights
/// by memcmp (so +0.0 and -0.0 differ), continuous truths by bit pattern.
void ExpectBitIdentical(const Dataset& data, const ValueTable& serial_truths,
                        const std::vector<double>& serial_weights,
                        const ParallelCrhResult& parallel) {
  ASSERT_EQ(parallel.source_weights.size(), serial_weights.size());
  EXPECT_EQ(std::memcmp(parallel.source_weights.data(), serial_weights.data(),
                        serial_weights.size() * sizeof(double)),
            0);
  for (size_t k = 0; k < serial_weights.size(); ++k) {
    EXPECT_EQ(Bits(parallel.source_weights[k]), Bits(serial_weights[k])) << "k=" << k;
  }
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      const Value& want = serial_truths.Get(i, m);
      const Value& got = parallel.truths.Get(i, m);
      ASSERT_EQ(got, want) << "entry (" << i << "," << m << ")";
      if (want.is_continuous()) {
        ASSERT_EQ(Bits(got.continuous()), Bits(want.continuous()))
            << "entry (" << i << "," << m << ")";
      }
    }
  }
}

TEST(ParallelCrhTest, RejectsSoftModel) {
  Dataset data = MakeMixedDataset(10);
  ParallelCrhOptions options;
  options.base.categorical_model = CategoricalModel::kSoftProbability;
  EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
}

TEST(ParallelCrhTest, RejectsNoSources) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {});
  EXPECT_FALSE(RunParallelCrh(data, {}).ok());
}

TEST(ParallelCrhTest, RejectsDatasetWithoutEntries) {
  // No properties: the shard kernels would step through entries i * M + m
  // with M = 0. RunCrh rejects the same input.
  Dataset data(Schema{}, {"o"}, {"s"});
  EXPECT_EQ(RunParallelCrh(data, {}).status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelCrhTest, RejectsSupervision) {
  Dataset data = MakeMixedDataset(10);
  const ValueTable labels(data.num_objects(), data.num_properties());
  ParallelCrhOptions options;
  options.base.supervision = &labels;
  EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
}

TEST(ParallelCrhTest, RejectsNonGlobalWeightGranularity) {
  Dataset data = MakeMixedDataset(10);
  for (const WeightGranularity granularity :
       {WeightGranularity::kPerType, WeightGranularity::kPerProperty}) {
    ParallelCrhOptions options;
    options.base.weight_granularity = granularity;
    EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kNotImplemented);
  }
}

TEST(ParallelCrhTest, RejectsNonPositiveIterationBudget) {
  Dataset data = MakeMixedDataset(10);
  for (const int budget : {0, -1}) {
    ParallelCrhOptions options;
    options.max_iterations = budget;
    EXPECT_EQ(RunParallelCrh(data, options).status().code(), StatusCode::kInvalidArgument);
  }
}

/// The central property: parallel CRH is an execution strategy, not a
/// different algorithm. With the same options and iteration budget it must
/// produce exactly the serial solver's truths and weights.
class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, MatchesSerialCrhExactly) {
  Dataset data = MakeMixedDataset(200, 17, 0.2);
  const int iterations = GetParam();

  CrhOptions serial_options;
  serial_options.max_iterations = iterations;
  serial_options.convergence_tolerance = 0.0;
  auto serial = RunCrh(data, serial_options);
  ASSERT_TRUE(serial.ok());

  ParallelCrhOptions parallel_options;
  parallel_options.base = serial_options;
  parallel_options.max_iterations = iterations;
  parallel_options.convergence_tolerance = 0.0;
  parallel_options.mr.num_mappers = 3;
  parallel_options.mr.num_reducers = 4;
  auto parallel = RunParallelCrh(data, parallel_options);
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(data, serial->truths, serial->source_weights, *parallel);
}

INSTANTIATE_TEST_SUITE_P(IterationBudgets, ParallelEquivalence, ::testing::Values(1, 3, 8));

/// The same property on several entry shards, for every continuous model
/// and property normalization, at every cluster geometry and under task
/// retries: the jobs run the batch solver's shard kernels and reduce the
/// shard partials in shard order, so the bits cannot differ.
class ShardedParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<ContinuousModel, PropertyLossNormalization>> {};

TEST_P(ShardedParallelEquivalence, BitIdenticalAtEveryGeometry) {
  const Dataset data = MakeHeterogeneousDataset(800, 71, 0.3);
  ASSERT_GE(data.num_entries(), 2048u);
  constexpr int kIterations = 3;

  CrhOptions serial_options;
  serial_options.continuous_model = std::get<0>(GetParam());
  serial_options.property_normalization = std::get<1>(GetParam());
  serial_options.max_iterations = kIterations;
  serial_options.convergence_tolerance = 0.0;
  auto serial = RunCrh(data, serial_options);
  ASSERT_TRUE(serial.ok());

  ParallelCrhOptions base;
  base.base = serial_options;
  base.max_iterations = kIterations;
  base.convergence_tolerance = 0.0;
  std::vector<MapReduceConfig> geometries;
  for (const int mappers : {1, 3, 7}) {
    for (const int reducers : {1, 4, 13}) {
      MapReduceConfig mr;
      mr.num_mappers = mappers;
      mr.num_reducers = reducers;
      geometries.push_back(mr);
    }
  }
  MapReduceConfig faulty;
  faulty.records_per_split = 1;
  faulty.num_threads = 4;
  faulty.fault_injection_rate = 0.2;
  faulty.max_attempts = 25;
  geometries.push_back(faulty);

  for (const MapReduceConfig& mr : geometries) {
    SCOPED_TRACE("mappers=" + std::to_string(mr.num_mappers) +
                 " reducers=" + std::to_string(mr.num_reducers) +
                 " fault_rate=" + std::to_string(mr.fault_injection_rate));
    ParallelCrhOptions options = base;
    options.mr = mr;
    auto parallel = RunParallelCrh(data, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->iterations, kIterations);
    ExpectBitIdentical(data, serial->truths, serial->source_weights, *parallel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndNormalizations, ShardedParallelEquivalence,
    ::testing::Combine(::testing::Values(ContinuousModel::kMedian, ContinuousModel::kMean),
                       ::testing::Values(PropertyLossNormalization::kSum,
                                         PropertyLossNormalization::kMax,
                                         PropertyLossNormalization::kNone)),
    [](const auto& test_param) {
      const char* model =
          std::get<0>(test_param.param) == ContinuousModel::kMedian ? "Median" : "Mean";
      const PropertyLossNormalization norm = std::get<1>(test_param.param);
      const char* by = norm == PropertyLossNormalization::kSum   ? "Sum"
                       : norm == PropertyLossNormalization::kMax ? "Max"
                                                                 : "None";
      return std::string(model) + by;
    });

TEST(ParallelCrhTest, ResultIndependentOfClusterGeometry) {
  Dataset data = MakeMixedDataset(120, 23, 0.1);
  ParallelCrhOptions reference;
  reference.max_iterations = 5;
  auto ref = RunParallelCrh(data, reference);
  ASSERT_TRUE(ref.ok());
  for (int mappers : {1, 7}) {
    for (int reducers : {1, 2, 13}) {
      ParallelCrhOptions options;
      options.max_iterations = 5;
      options.mr.num_mappers = mappers;
      options.mr.num_reducers = reducers;
      auto out = RunParallelCrh(data, options);
      ASSERT_TRUE(out.ok());
      ExpectBitIdentical(data, ref->truths, ref->source_weights, *out);
    }
  }
}

TEST(ParallelCrhTest, ConvergesAndReportsStats) {
  Dataset data = MakeMixedDataset(150, 29);
  ParallelCrhOptions options;
  options.convergence_tolerance = 1e-9;
  auto result = RunParallelCrh(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Jobs: iterations x (truth + weight) + final truth job.
  const size_t jobs = 2u * static_cast<size_t>(result->iterations) + 1u;
  EXPECT_EQ(result->job_stats.size(), jobs);
  EXPECT_GT(result->wall_seconds, 0.0);
  // Every job's input records are the entry shards.
  for (const JobStats& stats : result->job_stats) {
    EXPECT_EQ(stats.input_records, NumEntryShards(data.num_entries()));
  }
  // On the simulated cluster every job reads every claim once.
  EXPECT_DOUBLE_EQ(result->simulated_cluster_seconds,
                   options.cost_model.job_setup_seconds +
                       static_cast<double>(jobs) *
                           options.cost_model.EstimatePassSeconds(
                               static_cast<double>(data.num_observations()),
                               options.mr.num_reducers));
}

TEST(ParallelCrhTest, RecoversTruthsOnSkewedSources) {
  Dataset data = MakeMixedDataset(400, 41);
  auto result = RunParallelCrh(data, {});
  ASSERT_TRUE(result.ok());
  auto eval = Evaluate(data, result->truths);
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->error_rate, 0.1);
  EXPECT_LT(eval->mnad, 0.5);
}

TEST(ParallelCrhTest, WeightJobShufflesShardCells) {
  Dataset data = MakeMixedDataset(1500, 43, 0.2);
  ParallelCrhOptions options;
  options.max_iterations = 1;
  options.mr.num_mappers = 4;
  auto result = RunParallelCrh(data, options);
  ASSERT_TRUE(result.ok());
  // Weight job is job index 1 (truth, weight, final truth). Each map task
  // aggregates its shard's claims to at most K * M cells, so no combiner
  // runs and the shuffle carries exactly the map output.
  const size_t shards = NumEntryShards(data.num_entries());
  ASSERT_GE(shards, 2u);
  const JobStats& weight_job = result->job_stats[1];
  EXPECT_EQ(weight_job.input_records, shards);
  EXPECT_GT(weight_job.map_output_records, 0u);
  EXPECT_LE(weight_job.shuffle_records,
            shards * data.num_sources() * data.num_properties());
  EXPECT_EQ(weight_job.shuffle_records, weight_job.map_output_records);
  EXPECT_LT(weight_job.shuffle_records, data.num_observations());
}

}  // namespace
}  // namespace crh
