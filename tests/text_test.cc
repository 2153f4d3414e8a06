#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "core/crh.h"
#include "losses/resolvers.h"
#include "datagen/noise.h"
#include "eval/metrics.h"
#include "losses/text_distance.h"
#include "mapreduce/parallel_crh.h"

namespace crh {
namespace {

// ---------------------------------------------------------------------------
// Levenshtein distance
// ---------------------------------------------------------------------------

TEST(LevenshteinTest, IdenticalStringsAreZero) {
  EXPECT_EQ(LevenshteinDistance("kitten", "kitten"), 0u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
}

TEST(LevenshteinTest, ClassicExamples) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);
}

TEST(LevenshteinTest, EmptyVersusNonEmpty) {
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("cat", "cut"), 1u);   // substitution
  EXPECT_EQ(LevenshteinDistance("cat", "cart"), 1u);  // insertion
  EXPECT_EQ(LevenshteinDistance("cat", "at"), 1u);    // deletion
}

TEST(LevenshteinTest, Symmetric) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::string a, b;
    for (int i = 0; i < rng.UniformInt(0, 10); ++i) {
      a += static_cast<char>('a' + rng.UniformInt(0, 4));
    }
    for (int i = 0; i < rng.UniformInt(0, 10); ++i) {
      b += static_cast<char>('a' + rng.UniformInt(0, 4));
    }
    EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
  }
}

TEST(LevenshteinTest, TriangleInequality) {
  Rng rng(6);
  const auto random_string = [&]() {
    std::string s;
    for (int i = 0; i < rng.UniformInt(0, 8); ++i) {
      s += static_cast<char>('a' + rng.UniformInt(0, 3));
    }
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = random_string(), b = random_string(), c = random_string();
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
  }
}

TEST(NormalizedEditDistanceTest, UnitRange) {
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("abc", "xyz"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance("", "ab"), 1.0);
  EXPECT_NEAR(NormalizedEditDistance("kitten", "sitting"), 3.0 / 7.0, 1e-12);
}

// ---------------------------------------------------------------------------
// WeightedMedoid
// ---------------------------------------------------------------------------

double AbsDistance(const Value& a, const Value& b) {
  return std::abs(a.continuous() - b.continuous());
}

TEST(WeightedMedoidTest, EmptyGivesMissing) {
  EXPECT_TRUE(WeightedMedoid({}, {}, AbsDistance).is_missing());
}

TEST(WeightedMedoidTest, SingleClaimIsItself) {
  EXPECT_EQ(WeightedMedoid({Value::Continuous(5)}, {1.0}, AbsDistance),
            Value::Continuous(5));
}

TEST(WeightedMedoidTest, MatchesWeightedMedianOnNumbers) {
  // For |a-b| distances over claimed values, the medoid coincides with a
  // weighted median restricted to the claims.
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Value> values;
    std::vector<double> weights, raw;
    const int n = static_cast<int>(rng.UniformInt(1, 10));
    for (int i = 0; i < n; ++i) {
      const double v = std::round(rng.Uniform(0, 20));
      values.push_back(Value::Continuous(v));
      raw.push_back(v);
      weights.push_back(rng.Uniform(0.1, 2.0));
    }
    const Value medoid = WeightedMedoid(values, weights, AbsDistance);
    // Verify optimality directly.
    const auto cost = [&](double center) {
      double total = 0;
      for (int i = 0; i < n; ++i) {
        total += weights[static_cast<size_t>(i)] *
                 std::abs(center - raw[static_cast<size_t>(i)]);
      }
      return total;
    };
    for (double candidate : raw) {
      EXPECT_LE(cost(medoid.continuous()), cost(candidate) + 1e-9);
    }
  }
}

TEST(WeightedMedoidTest, HeavyWeightDominates) {
  const std::vector<Value> values = {Value::Continuous(0), Value::Continuous(10),
                                     Value::Continuous(11)};
  EXPECT_EQ(WeightedMedoid(values, {10.0, 1.0, 1.0}, AbsDistance), Value::Continuous(0));
}

// ---------------------------------------------------------------------------
// CRH with text properties
// ---------------------------------------------------------------------------

Dataset MakeTextTruth(size_t n, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddText("business_name").ok());
  EXPECT_TRUE(schema.AddContinuous("rating", 0.1).ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < n; ++i) objects.push_back("o" + std::to_string(i));
  Dataset data(std::move(schema), std::move(objects), {});
  Rng rng(seed);
  const std::vector<std::string> stems = {"northside bakery", "grand hotel plaza",
                                          "riverside diner",  "central pharmacy",
                                          "harbor view cafe", "oakwood market"};
  ValueTable truth(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const std::string name =
        stems[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(stems.size()) - 1))] +
        " " + std::to_string(rng.UniformInt(1, 99));
    truth.Set(i, 0, data.InternCategorical(0, name));
    truth.Set(i, 1, Value::Continuous(static_cast<double>(rng.UniformInt(10, 50)) / 10.0));
  }
  data.set_ground_truth(std::move(truth));
  return data;
}

Dataset MakeTextDataset(size_t n = 200, uint64_t seed = 23) {
  NoiseOptions noise;
  noise.gammas = {0.1, 0.8, 1.5, 2.0};
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(MakeTextTruth(n, seed), noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

TEST(TextNoiseTest, TyposLandNearTheTruth) {
  Dataset data = MakeTextDataset(300);
  ASSERT_TRUE(data.Validate().ok());
  // Corrupted claims of the unreliable source are small edits, not random
  // strings: normalized distance well below 1.
  size_t corrupted = 0;
  double total_distance = 0;
  for (size_t i = 0; i < data.num_objects(); ++i) {
    const Value& t = data.ground_truth().Get(i, 0);
    const Value& obs = data.observations(3).Get(i, 0);
    if (obs.is_missing() || obs == t) continue;
    ++corrupted;
    total_distance += NormalizedEditDistance(data.dict(0).label(t.category()),
                                             data.dict(0).label(obs.category()));
  }
  ASSERT_GT(corrupted, 50u);
  EXPECT_LT(total_distance / static_cast<double>(corrupted), 0.3);
}

TEST(TextCrhTest, RecoversNamesFromTypos) {
  Dataset data = MakeTextDataset(300);
  auto result = RunCrh(data);
  ASSERT_TRUE(result.ok());
  auto eval = Evaluate(data, result->truths);
  ASSERT_TRUE(eval.ok());
  // Text entries count toward the error rate; CRH should recover nearly all
  // names (the reliable source is almost never corrupted).
  EXPECT_LT(eval->error_rate, 0.05);
  // The reliable source earns the top weight.
  for (size_t k = 1; k < data.num_sources(); ++k) {
    EXPECT_GT(result->source_weights[0], result->source_weights[k]);
  }
}

TEST(TextCrhTest, TextTruthIsAlwaysAClaimedValue) {
  Dataset data = MakeTextDataset(100);
  auto result = RunCrh(data);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < data.num_objects(); ++i) {
    const Value& truth = result->truths.Get(i, 0);
    ASSERT_TRUE(truth.is_categorical());
    bool claimed = false;
    for (size_t k = 0; k < data.num_sources(); ++k) {
      claimed |= data.observations(k).Get(i, 0) == truth;
    }
    EXPECT_TRUE(claimed) << "medoid must be one of the claims";
  }
}

TEST(TextCrhTest, EditDistanceLossBeatsZeroOneTreatment) {
  // Treating the same strings as atomic categorical labels loses the
  // closeness information; the text loss should estimate weights at least
  // as well. (Both use voting-style truths, so compare weight rankings.)
  Dataset data = MakeTextDataset(400, 29);
  auto text_result = RunCrh(data);
  ASSERT_TRUE(text_result.ok());
  const std::vector<double> truth = TrueSourceReliability(data);
  EXPECT_GT(SpearmanCorrelation(text_result->source_weights, truth), 0.9);
}

TEST(TextCrhTest, ParallelMatchesSerialOnText) {
  Dataset data = MakeTextDataset(120, 31);
  CrhOptions serial_options;
  serial_options.max_iterations = 4;
  serial_options.convergence_tolerance = 0.0;
  auto serial = RunCrh(data, serial_options);
  ASSERT_TRUE(serial.ok());

  ParallelCrhOptions parallel_options;
  parallel_options.base = serial_options;
  parallel_options.max_iterations = 4;
  parallel_options.convergence_tolerance = 0.0;
  parallel_options.mr.num_mappers = 3;
  parallel_options.mr.num_reducers = 5;
  auto parallel = RunParallelCrh(data, parallel_options);
  ASSERT_TRUE(parallel.ok());

  // Both run the same shard kernels: weights agree bit for bit.
  for (size_t k = 0; k < data.num_sources(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(serial->source_weights[k]),
              std::bit_cast<uint64_t>(parallel->source_weights[k]))
        << "k=" << k;
  }
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      EXPECT_EQ(serial->truths.Get(i, m), parallel->truths.Get(i, m));
    }
  }
}

TEST(TextSchemaTest, TypeQueries) {
  Schema schema;
  ASSERT_TRUE(schema.AddText("name").ok());
  ASSERT_TRUE(schema.AddCategorical("cat").ok());
  ASSERT_TRUE(schema.AddContinuous("num").ok());
  EXPECT_FALSE(schema.is_categorical(0));
  EXPECT_TRUE(schema.is_discrete(0));
  EXPECT_FALSE(schema.is_continuous(0));
  EXPECT_TRUE(schema.is_discrete(1));
  EXPECT_FALSE(schema.is_discrete(2));
  EXPECT_EQ(schema.PropertiesOfType(PropertyType::kText), std::vector<size_t>{0});
  EXPECT_STREQ(PropertyTypeToString(PropertyType::kText), "text");
}

}  // namespace
}  // namespace crh
