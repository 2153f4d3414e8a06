/// \file determinism_test.cc
/// Bit-identity regression tests for the determinism contract.
///
/// The library's guarantee is stronger than "statistically equivalent":
/// repeated runs of the same configuration are byte-for-byte identical, so
/// checkpoint fingerprints, golden files and cross-machine comparisons all
/// hold exactly. The tests here serialize results to raw bytes and compare
/// the buffers, because an EXPECT_EQ on doubles would accept -0.0 vs 0.0
/// or different NaN payloads that a written artifact would distinguish.
///
/// This is the regression net behind the unordered-container audit
/// (scripts/crh_analyzer.py's determinism-taint check): WeightedVote and the
/// MapReduce truth cache use hash maps as lookup-only indexes, and these
/// tests fail if hash-bucket order ever leaks back into results.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "core/crh.h"
#include "losses/resolvers.h"
#include "datagen/noise.h"
#include "mapreduce/parallel_crh.h"

namespace crh {
namespace {

/// Appends the exact bytes of a double (sign, payload and all).
void AppendBytes(std::string* out, double v) {
  char buf[sizeof(double)];
  std::memcpy(buf, &v, sizeof(double));
  out->append(buf, sizeof(double));
}

std::string SerializeValue(const Value& v) {
  std::string out;
  if (v.is_missing()) {
    out.push_back('\0');
  } else if (v.is_continuous()) {
    out.push_back('c');
    AppendBytes(&out, v.continuous());
  } else {
    out.push_back('k');
    const CategoryId id = v.category();
    char buf[sizeof(CategoryId)];
    std::memcpy(buf, &id, sizeof(CategoryId));
    out.append(buf, sizeof(CategoryId));
  }
  return out;
}

std::string SerializeTable(const ValueTable& table) {
  std::string out;
  for (size_t i = 0; i < table.num_objects(); ++i) {
    for (size_t m = 0; m < table.num_properties(); ++m) {
      out += SerializeValue(table.Get(i, m));
    }
  }
  return out;
}

std::string SerializeCrhResult(const CrhResult& result) {
  std::string out = SerializeTable(result.truths);
  for (const double w : result.source_weights) AppendBytes(&out, w);
  for (const auto& row : result.fine_grained_weights) {
    for (const double w : row) AppendBytes(&out, w);
  }
  for (const double obj : result.objective_history) AppendBytes(&out, obj);
  return out;
}

Dataset MakeDataset(size_t num_objects, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("reading", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("label").ok());
  std::vector<std::string> objects;
  objects.reserve(num_objects);
  for (size_t i = 0; i < num_objects; ++i) objects.push_back("o" + std::to_string(i));
  Dataset data(std::move(schema), std::move(objects), {});
  for (const char* label : {"a", "b", "c", "d"}) data.mutable_dict(1).GetOrAdd(label);
  Rng rng(seed);
  ValueTable truth(num_objects, data.num_properties());
  for (size_t i = 0; i < num_objects; ++i) {
    truth.Set(i, 0, Value::Continuous(rng.Uniform(0, 100)));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.2, 0.6, 1.0, 1.4, 1.8};
  noise.missing_rate = 0.3;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(data, noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

TEST(DeterminismTest, WeightedVoteTieBreakIsAPureFunctionOfClaims) {
  // Four sources with equal weight claim two tied categories; the winner
  // must be the ValueLess-smaller one, every single run, regardless of how
  // the dedup hash map buckets the candidates.
  const std::vector<Value> values = {
      Value::Categorical(3), Value::Categorical(1), Value::Categorical(3),
      Value::Categorical(1)};
  const std::vector<double> weights = {1.0, 1.0, 1.0, 1.0};
  for (int run = 0; run < 50; ++run) {
    const Value winner = WeightedVote(values, weights);
    ASSERT_FALSE(winner.is_missing());
    ASSERT_EQ(winner.category(), CategoryId{1}) << "run " << run;
  }
}

TEST(DeterminismTest, WeightedVoteManyWayTies) {
  // Every candidate tied: the smallest category must win; with continuous
  // claims the smallest value must win. Claim order is shuffled between
  // checks to prove the result depends on the claim *set*, not its order
  // here (ties resolve by value, not arrival).
  Rng rng(99);
  std::vector<Value> values;
  for (CategoryId id : {7, 2, 9, 4}) values.push_back(Value::Categorical(id));
  std::vector<double> weights(values.size(), 0.25);
  for (int run = 0; run < 30; ++run) {
    // Fisher-Yates with the seeded Rng: deterministic test, varying order.
    for (size_t i = values.size() - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int>(i)));
      std::swap(values[i], values[j]);
    }
    const Value winner = WeightedVote(values, weights);
    ASSERT_EQ(winner.category(), CategoryId{2}) << "run " << run;
  }
}

TEST(DeterminismTest, RepeatedCrhRunsAreBitIdentical) {
  const Dataset data = MakeDataset(150, 71);
  const CrhOptions options;
  auto first = RunCrh(data, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string reference = SerializeCrhResult(*first);
  ASSERT_FALSE(reference.empty());
  for (int run = 0; run < 3; ++run) {
    auto again = RunCrh(data, options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ASSERT_EQ(SerializeCrhResult(*again), reference) << "run " << run;
  }
}

TEST(DeterminismTest, RepeatedParallelCrhRunsAreBitIdentical) {
  // The MapReduce path runs its jobs on several threads and collects the
  // weight job's cells from hash-partitioned reducers; results must still
  // be exact across repeats because every cell lands at its fixed index and
  // each cell's shard partials are added in shard order.
  const Dataset data = MakeDataset(120, 83);
  ParallelCrhOptions options;
  options.mr.num_threads = 4;
  auto first = RunParallelCrh(data, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string reference = SerializeTable(first->truths);
  for (const double w : first->source_weights) AppendBytes(&reference, w);
  ASSERT_FALSE(reference.empty());
  for (int run = 0; run < 3; ++run) {
    auto again = RunParallelCrh(data, options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    std::string bytes = SerializeTable(again->truths);
    for (const double w : again->source_weights) AppendBytes(&bytes, w);
    ASSERT_EQ(bytes, reference) << "run " << run;
  }
}

}  // namespace
}  // namespace crh
