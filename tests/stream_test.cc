#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "datagen/noise.h"
#include "eval/metrics.h"
#include "stream/checkpoint.h"
#include "stream/incremental_crh.h"

namespace crh {
namespace {

/// Mixed-type timestamped ground truth: `days` days of `per_day` objects.
Dataset MakeStreamTruth(int days, int per_day, uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  std::vector<int64_t> timestamps;
  for (int d = 0; d < days; ++d) {
    for (int j = 0; j < per_day; ++j) {
      objects.push_back("d" + std::to_string(d) + "_o" + std::to_string(j));
      timestamps.push_back(d);
    }
  }
  Dataset data(std::move(schema), std::move(objects), {});
  for (const char* l : {"a", "b", "c", "d"}) data.mutable_dict(1).GetOrAdd(l);
  Rng rng(seed);
  ValueTable truth(data.num_objects(), 2);
  for (size_t i = 0; i < data.num_objects(); ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 100))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 3))));
  }
  data.set_ground_truth(std::move(truth));
  EXPECT_TRUE(data.set_timestamps(timestamps).ok());
  return data;
}

Dataset MakeStreamDataset(int days = 10, int per_day = 60, uint64_t seed = 55) {
  NoiseOptions noise;
  noise.gammas = {0.4, 0.8, 1.3, 1.8, 1.8};
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(MakeStreamTruth(days, per_day, seed), noise);
  EXPECT_TRUE(noisy.ok());
  return std::move(noisy).ValueOrDie();
}

// ---------------------------------------------------------------------------
// SplitByWindow
// ---------------------------------------------------------------------------

TEST(SplitByWindowTest, RequiresTimestamps) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o"}, {"s"});
  EXPECT_EQ(SplitByWindow(data, 1).status().code(), StatusCode::kFailedPrecondition);
}

TEST(SplitByWindowTest, RejectsBadWindow) {
  Dataset data = MakeStreamDataset(3, 5);
  EXPECT_FALSE(SplitByWindow(data, 0).ok());
}

TEST(SplitByWindowTest, UnitWindowSplitsPerDay) {
  Dataset data = MakeStreamDataset(5, 7);
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 5u);
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_EQ((*chunks)[c].data.num_objects(), 7u);
    EXPECT_EQ((*chunks)[c].window_start, static_cast<int64_t>(c));
    EXPECT_EQ((*chunks)[c].data.num_sources(), data.num_sources());
  }
}

TEST(SplitByWindowTest, WiderWindowMergesDays) {
  Dataset data = MakeStreamDataset(5, 7);
  auto chunks = SplitByWindow(data, 2);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ((*chunks)[0].data.num_objects(), 14u);
  EXPECT_EQ((*chunks)[2].data.num_objects(), 7u);
}

TEST(SplitByWindowTest, PreservesObservationsAndTruths) {
  Dataset data = MakeStreamDataset(4, 6);
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  size_t total_obs = 0, total_truths = 0;
  for (const DataChunk& chunk : *chunks) {
    total_obs += chunk.data.num_observations();
    total_truths += chunk.data.num_ground_truths();
    // Parent mapping points back at identical cells.
    for (size_t local = 0; local < chunk.data.num_objects(); ++local) {
      const size_t parent = chunk.parent_object[local];
      EXPECT_EQ(chunk.data.object_id(local), data.object_id(parent));
      for (size_t k = 0; k < data.num_sources(); ++k) {
        EXPECT_EQ(chunk.data.observations(k).Get(local, 0),
                  data.observations(k).Get(parent, 0));
      }
    }
  }
  EXPECT_EQ(total_obs, data.num_observations());
  EXPECT_EQ(total_truths, data.num_ground_truths());
}

TEST(SplitByWindowTest, HandlesGapsInTimestamps) {
  Schema schema;
  ASSERT_TRUE(schema.AddContinuous("x").ok());
  Dataset data(schema, {"o1", "o2"}, {"s"});
  ASSERT_TRUE(data.set_timestamps({0, 10}).ok());
  data.SetObservation(0, 0, 0, Value::Continuous(1));
  data.SetObservation(0, 1, 0, Value::Continuous(2));
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(chunks->size(), 2u);  // empty windows skipped
}

/// Tiny helper for the edge-case tests: one source, one object per
/// timestamp.
Dataset MakeTimestampedDataset(std::vector<int64_t> timestamps) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < timestamps.size(); ++i) objects.push_back("o" + std::to_string(i));
  Dataset data(schema, std::move(objects), {"s"});
  for (size_t i = 0; i < timestamps.size(); ++i) {
    data.SetObservation(0, i, 0, Value::Continuous(static_cast<double>(i)));
  }
  EXPECT_TRUE(data.set_timestamps(std::move(timestamps)).ok());
  return data;
}

TEST(SplitByWindowTest, NegativeTimestampsAlignToMinimum) {
  Dataset data = MakeTimestampedDataset({-5, -3, 0});
  auto chunks = SplitByWindow(data, 2);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 3u);
  EXPECT_EQ((*chunks)[0].window_start, -5);
  EXPECT_EQ((*chunks)[1].window_start, -3);
  EXPECT_EQ((*chunks)[2].window_start, -1);
  for (const DataChunk& chunk : *chunks) EXPECT_EQ(chunk.data.num_objects(), 1u);
}

TEST(SplitByWindowTest, Int64ExtremesDoNotOverflow) {
  // ts - min_ts spans the full 2^64-1 range here; naive signed arithmetic
  // would overflow (UB) on both the offset and the window-start product.
  const int64_t min64 = std::numeric_limits<int64_t>::min();
  const int64_t max64 = std::numeric_limits<int64_t>::max();
  Dataset data = MakeTimestampedDataset({min64, max64, 0});
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 3u);
  EXPECT_EQ((*chunks)[0].window_start, min64);
  EXPECT_EQ((*chunks)[1].window_start, 0);
  EXPECT_EQ((*chunks)[2].window_start, max64);

  auto wide = SplitByWindow(data, 2);
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(wide->size(), 3u);
  EXPECT_EQ((*wide)[0].window_start, min64);
  // Window indices stay exact even when index * window_size wraps past
  // INT64_MAX transiently.
  EXPECT_EQ((*wide)[2].window_start, max64 - 1);
}

TEST(SplitByWindowTest, WindowLargerThanRangeYieldsOneChunk) {
  Dataset data = MakeTimestampedDataset({3, 5, 9});
  auto chunks = SplitByWindow(data, 100);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 1u);
  EXPECT_EQ((*chunks)[0].window_start, 3);
  EXPECT_EQ((*chunks)[0].data.num_objects(), 3u);
  // Maximal window: the whole int64 range in one chunk.
  auto max_window = SplitByWindow(data, std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(max_window.ok());
  EXPECT_EQ(max_window->size(), 1u);
}

TEST(SplitByWindowTest, MostlyEmptyWindowsAreSkipped) {
  // Two populated windows separated by ~2 million empty ones: the split
  // must produce only the populated chunks (no per-empty-window work).
  Dataset data = MakeTimestampedDataset({-1000000, 1000000});
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 2u);
  EXPECT_EQ((*chunks)[0].window_start, -1000000);
  EXPECT_EQ((*chunks)[1].window_start, 1000000);
}

// ---------------------------------------------------------------------------
// Incremental CRH
// ---------------------------------------------------------------------------

TEST(IncrementalCrhTest, ValidatesOptions) {
  Dataset data = MakeStreamDataset(3, 5);
  IncrementalCrhOptions options;
  options.decay = 1.5;
  EXPECT_FALSE(RunIncrementalCrh(data, options).ok());
}

TEST(IncrementalCrhTest, ProcessorRejectsSourceMismatch) {
  Dataset data = MakeStreamDataset(2, 5);
  IncrementalCrhProcessor processor(3, {});  // dataset has 5 sources
  EXPECT_FALSE(processor.ProcessChunk(data).ok());
}

TEST(IncrementalCrhTest, InitialWeightsAreUniform) {
  IncrementalCrhProcessor processor(4, {});
  EXPECT_EQ(processor.source_weights(), std::vector<double>(4, 1.0));
  EXPECT_EQ(processor.chunks_processed(), 0u);
}

TEST(IncrementalCrhTest, ProducesTruthsForAllChunks) {
  Dataset data = MakeStreamDataset(8, 40);
  auto result = RunIncrementalCrh(data, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->weight_history.size(), 8u);
  EXPECT_EQ(result->chunk_starts.size(), 8u);
  // Every claimed entry has a truth.
  for (size_t i = 0; i < data.num_objects(); ++i) {
    EXPECT_FALSE(result->truths.Get(i, 0).is_missing());
    EXPECT_FALSE(result->truths.Get(i, 1).is_missing());
  }
}

TEST(IncrementalCrhTest, AccuracyCloseToBatchCrh) {
  // Table 5: I-CRH trades a little accuracy for speed.
  Dataset data = MakeStreamDataset(12, 60);
  auto icrh = RunIncrementalCrh(data, {});
  ASSERT_TRUE(icrh.ok());
  auto crh = RunCrh(data);
  ASSERT_TRUE(crh.ok());
  auto icrh_eval = Evaluate(data, icrh->truths);
  auto crh_eval = Evaluate(data, crh->truths);
  ASSERT_TRUE(icrh_eval.ok());
  ASSERT_TRUE(crh_eval.ok());
  // On small data either direction can win by sampling luck; assert they
  // stay close (the paper's Table 5 gap is a few percent).
  EXPECT_NEAR(icrh_eval->error_rate, crh_eval->error_rate, 0.08);
  EXPECT_LT(icrh_eval->mnad, crh_eval->mnad + 0.3);
}

TEST(IncrementalCrhTest, WeightsStabilizeOverChunks) {
  // Fig 4a: source weights reach a stable stage after a few timestamps.
  Dataset data = MakeStreamDataset(12, 60);
  auto result = RunIncrementalCrh(data, {});
  ASSERT_TRUE(result.ok());
  const auto& history = result->weight_history;
  double early_change = 0, late_change = 0;
  for (size_t k = 0; k < data.num_sources(); ++k) {
    early_change += std::abs(history[1][k] - history[0][k]);
    late_change += std::abs(history[11][k] - history[10][k]);
  }
  EXPECT_LT(late_change, early_change);
}

TEST(IncrementalCrhTest, ConvergedWeightsMatchBatchCrhRanking) {
  // Fig 4b: after several timestamps I-CRH's weights agree with CRH's.
  Dataset data = MakeStreamDataset(12, 80);
  auto icrh = RunIncrementalCrh(data, {});
  ASSERT_TRUE(icrh.ok());
  auto crh = RunCrh(data);
  ASSERT_TRUE(crh.ok());
  EXPECT_GT(SpearmanCorrelation(icrh->source_weights, crh->source_weights), 0.89);
}

TEST(IncrementalCrhTest, DecayZeroUsesOnlyCurrentChunk) {
  Dataset data = MakeStreamDataset(6, 50);
  IncrementalCrhOptions options;
  options.decay = 0.0;
  auto result = RunIncrementalCrh(data, options);
  ASSERT_TRUE(result.ok());
  // With decay 0 the accumulated deviation equals the last chunk's only;
  // weights still identify the reliable source.
  const auto& w = result->source_weights;
  for (size_t k = 1; k < w.size(); ++k) EXPECT_GE(w[0], w[k]);
}

TEST(IncrementalCrhTest, InsensitiveToDecayOnConsistentStreams) {
  // Fig 6: performance is flat in alpha when source reliability is stable.
  Dataset data = MakeStreamDataset(10, 60);
  double min_err = 1e9, max_err = -1e9;
  for (double alpha : {0.0, 0.3, 0.6, 1.0}) {
    IncrementalCrhOptions options;
    options.decay = alpha;
    auto result = RunIncrementalCrh(data, options);
    ASSERT_TRUE(result.ok());
    auto eval = Evaluate(data, result->truths);
    ASSERT_TRUE(eval.ok());
    min_err = std::min(min_err, eval->error_rate);
    max_err = std::max(max_err, eval->error_rate);
  }
  EXPECT_LT(max_err - min_err, 0.08);
}

TEST(IncrementalCrhTest, WindowSizeTwoProcessesHalfTheChunks) {
  Dataset data = MakeStreamDataset(10, 30);
  IncrementalCrhOptions options;
  options.window_size = 2;
  auto result = RunIncrementalCrh(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->weight_history.size(), 5u);
}

TEST(IncrementalCrhTest, AdaptsWhenSourceQualityDrifts) {
  // A source that is good early and bad late: with a small decay the final
  // weights should reflect the late (bad) behavior.
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("y").ok());
  const int days = 10, per_day = 80;
  std::vector<std::string> objects;
  std::vector<int64_t> ts;
  for (int d = 0; d < days; ++d) {
    for (int j = 0; j < per_day; ++j) {
      objects.push_back("d" + std::to_string(d) + "_" + std::to_string(j));
      ts.push_back(d);
    }
  }
  Dataset data(schema, objects, {"drifter", "steady1", "steady2", "steady3", "steady4"});
  for (const char* l : {"a", "b", "c", "d"}) data.mutable_dict(0).GetOrAdd(l);
  Rng rng(71);
  ValueTable truth(data.num_objects(), 1);
  for (size_t i = 0; i < data.num_objects(); ++i) {
    const int day = static_cast<int>(i) / per_day;
    const CategoryId t = static_cast<CategoryId>(rng.UniformInt(0, 3));
    truth.Set(i, 0, Value::Categorical(t));
    const auto claim = [&](double acc) {
      if (rng.Bernoulli(acc)) return t;
      CategoryId alt = static_cast<CategoryId>(rng.UniformInt(0, 2));
      if (alt >= t) ++alt;
      return alt;
    };
    // The drifter is moderately better early so it earns the top rank
    // without fully dominating the vote (full dominance would make its
    // claims the truths and lock its deviation at zero).
    data.SetObservation(0, i, 0, Value::Categorical(claim(day < 5 ? 0.85 : 0.10)));
    data.SetObservation(1, i, 0, Value::Categorical(claim(0.7)));
    data.SetObservation(2, i, 0, Value::Categorical(claim(0.7)));
    data.SetObservation(3, i, 0, Value::Categorical(claim(0.7)));
    data.SetObservation(4, i, 0, Value::Categorical(claim(0.7)));
  }
  data.set_ground_truth(std::move(truth));
  ASSERT_TRUE(data.set_timestamps(ts).ok());

  IncrementalCrhOptions fast_forget;
  fast_forget.decay = 0.1;
  // Sum normalization keeps every source's weight bounded so the ranking
  // can actually flip after the drift (the max variant can lock in).
  fast_forget.base.weight_scheme.kind = WeightSchemeKind::kLogSum;
  auto result = RunIncrementalCrh(data, fast_forget);
  ASSERT_TRUE(result.ok());
  // After the drift, the drifting source must rank below the steady ones.
  for (size_t k = 1; k < 5; ++k) {
    EXPECT_LT(result->source_weights[0], result->source_weights[k]) << "steady " << k;
  }
  // Early in the stream it ranked first.
  EXPECT_GT(result->weight_history[3][0], result->weight_history[3][1]);
}

TEST(IncrementalCrhTest, DeterministicAcrossRuns) {
  Dataset data = MakeStreamDataset(6, 30);
  auto a = RunIncrementalCrh(data, {});
  auto b = RunIncrementalCrh(data, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t k = 0; k < data.num_sources(); ++k) {
    EXPECT_DOUBLE_EQ(a->source_weights[k], b->source_weights[k]);
  }
}

/// Property sweep over window sizes: every claimed entry receives a truth
/// regardless of chunking, and chunk truths cover the parent dataset.
class WindowSizeProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(WindowSizeProperty, CompleteCoverage) {
  Dataset data = MakeStreamDataset(9, 25);
  IncrementalCrhOptions options;
  options.window_size = GetParam();
  auto result = RunIncrementalCrh(data, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < data.num_objects(); ++i) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      EXPECT_FALSE(result->truths.Get(i, m).is_missing());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSizeProperty, ::testing::Values(1, 2, 3, 5, 9, 20));

// ---------------------------------------------------------------------------
// Quarantine of malformed claims
// ---------------------------------------------------------------------------

/// The cells corrupted by MakeDirtyDataset: (source, object, property).
struct BadClaim {
  size_t source, object, property;
  Value value;
};

std::vector<BadClaim> BadClaims() {
  return {
      {0, 0, 0, Value::Continuous(std::nan(""))},
      {0, 1, 0, Value::Continuous(std::numeric_limits<double>::infinity())},
      {2, 2, 1, Value::Categorical(99)},   // outside the 4-label dictionary
      {2, 3, 1, Value::Categorical(-7)},
      {3, 4, 0, Value::Categorical(1)},    // wrong kind for a continuous property
      {3, 5, 1, Value::Continuous(3.25)},  // wrong kind for a categorical property
  };
}

Dataset MakeDirtyDataset() {
  Dataset data = MakeStreamDataset(6, 20, 77);
  for (const BadClaim& bad : BadClaims()) {
    data.SetObservation(bad.source, bad.object, bad.property, bad.value);
  }
  return data;
}

TEST(QuarantineTest, MatchesPrecleanedRunExactly) {
  const Dataset dirty = MakeDirtyDataset();
  Dataset cleaned = MakeDirtyDataset();
  for (const BadClaim& bad : BadClaims()) {
    cleaned.mutable_observations(bad.source).Clear(bad.object, bad.property);
  }

  IncrementalCrhOptions options;
  options.decay = 0.4;
  options.quarantine_bad_claims = true;
  auto dirty_run = RunIncrementalCrh(dirty, options);
  ASSERT_TRUE(dirty_run.ok()) << dirty_run.status().message();

  options.quarantine_bad_claims = false;
  auto clean_run = RunIncrementalCrh(cleaned, options);
  ASSERT_TRUE(clean_run.ok()) << clean_run.status().message();

  // Bit-identical to processing pre-cleaned input.
  EXPECT_EQ(dirty_run->source_weights, clean_run->source_weights);
  EXPECT_EQ(dirty_run->accumulated_deviations, clean_run->accumulated_deviations);
  EXPECT_EQ(dirty_run->weight_history, clean_run->weight_history);
  ASSERT_EQ(dirty_run->truths.num_objects(), clean_run->truths.num_objects());
  for (size_t i = 0; i < dirty.num_objects(); ++i) {
    for (size_t m = 0; m < dirty.num_properties(); ++m) {
      EXPECT_TRUE(dirty_run->truths.Get(i, m) == clean_run->truths.Get(i, m))
          << "truth mismatch at (" << i << ", " << m << ")";
    }
  }

  // Exact per-source counts: sources 0, 2 and 3 each contributed two bad
  // claims; everyone else none.
  ASSERT_EQ(dirty_run->quarantined_per_source.size(), dirty.num_sources());
  EXPECT_EQ(dirty_run->quarantined_per_source[0], 2u);
  EXPECT_EQ(dirty_run->quarantined_per_source[1], 0u);
  EXPECT_EQ(dirty_run->quarantined_per_source[2], 2u);
  EXPECT_EQ(dirty_run->quarantined_per_source[3], 2u);
  EXPECT_EQ(dirty_run->quarantined_per_source[4], 0u);
  // The clean run quarantined nothing.
  for (uint64_t count : clean_run->quarantined_per_source) EXPECT_EQ(count, 0u);
}

TEST(QuarantineTest, DisabledQuarantineSurfacesAnError) {
  // Without quarantine, a NaN claim must fail the stream loudly rather
  // than silently poisoning the accumulators.
  Dataset dirty = MakeStreamDataset(3, 10, 77);
  dirty.SetObservation(0, 0, 0, Value::Continuous(std::nan("")));
  IncrementalCrhOptions options;
  EXPECT_FALSE(RunIncrementalCrh(dirty, options).ok());
}

TEST(QuarantineTest, CleanStreamQuarantinesNothing) {
  IncrementalCrhOptions options;
  options.quarantine_bad_claims = true;
  auto with = RunIncrementalCrh(MakeStreamDataset(4, 15), options);
  ASSERT_TRUE(with.ok());
  options.quarantine_bad_claims = false;
  auto without = RunIncrementalCrh(MakeStreamDataset(4, 15), options);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->source_weights, without->source_weights);
  for (uint64_t count : with->quarantined_per_source) EXPECT_EQ(count, 0u);
}

// ---------------------------------------------------------------------------
// Processor state export / import
// ---------------------------------------------------------------------------

TEST(IncrementalCrhTest, ExportImportRoundTripContinuesBitIdentically) {
  const Dataset data = MakeStreamDataset(6, 20);
  auto chunks = SplitByWindow(data, 1);
  ASSERT_TRUE(chunks.ok());

  IncrementalCrhOptions options;
  IncrementalCrhProcessor uninterrupted(data.num_sources(), options);
  IncrementalCrhProcessor first(data.num_sources(), options);
  for (size_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(uninterrupted.ProcessChunk((*chunks)[c].data).ok());
    ASSERT_TRUE(first.ProcessChunk((*chunks)[c].data).ok());
  }
  // Hand off through a snapshot, as a crash + restore would.
  IncrementalCrhProcessor second(data.num_sources(), options);
  ASSERT_TRUE(second.ImportState(first.ExportState()).ok());
  EXPECT_EQ(second.chunks_processed(), 3u);
  for (size_t c = 3; c < chunks->size(); ++c) {
    auto a = uninterrupted.ProcessChunk((*chunks)[c].data);
    auto b = second.ProcessChunk((*chunks)[c].data);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(second.source_weights(), uninterrupted.source_weights());
  EXPECT_EQ(second.accumulated_deviations(), uninterrupted.accumulated_deviations());
}

TEST(IncrementalCrhTest, ImportStateRejectsMalformedSnapshots) {
  IncrementalCrhOptions options;
  IncrementalCrhProcessor proc(3, options);
  IncrementalCrhState state;
  state.weights = {1.0, 1.0};  // wrong source count
  state.accumulated = {0.0, 0.0};
  state.quarantined_per_source = {0, 0};
  EXPECT_FALSE(proc.ImportState(state).ok());

  state.weights = {1.0, std::nan(""), 1.0};
  state.accumulated = {0.0, 0.0, 0.0};
  state.quarantined_per_source = {0, 0, 0};
  EXPECT_FALSE(proc.ImportState(state).ok());

  state.weights = {1.0, 1.0, 1.0};
  state.accumulated = {0.0, -1.0, 0.0};  // deviations cannot be negative
  EXPECT_FALSE(proc.ImportState(state).ok());

  // The failed imports left the processor untouched.
  EXPECT_EQ(proc.source_weights(), (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_EQ(proc.chunks_processed(), 0u);
}

// ---------------------------------------------------------------------------
// Cumulative re-solve (DeltaSolveMode::kFull)
// ---------------------------------------------------------------------------

bool BitIdentical(const Value& a, const Value& b) {
  if (a.is_continuous() != b.is_continuous() || a.is_categorical() != b.is_categorical()) {
    return false;
  }
  if (a.is_continuous()) {
    const double da = a.continuous();
    const double db = b.continuous();
    uint64_t bits_a = 0;
    uint64_t bits_b = 0;
    std::memcpy(&bits_a, &da, sizeof(bits_a));
    std::memcpy(&bits_b, &db, sizeof(bits_b));
    return bits_a == bits_b;
  }
  if (a.is_categorical()) return a.category() == b.category();
  return true;
}

void ExpectTablesBitIdentical(const ValueTable& want, const ValueTable& got,
                              const std::string& label) {
  ASSERT_EQ(want.num_objects(), got.num_objects()) << label;
  ASSERT_EQ(want.num_properties(), got.num_properties()) << label;
  for (size_t i = 0; i < want.num_objects(); ++i) {
    for (size_t m = 0; m < want.num_properties(); ++m) {
      EXPECT_TRUE(BitIdentical(want.Get(i, m), got.Get(i, m)))
          << label << ": entry (" << i << ", " << m << ")";
    }
  }
}

/// A sparse multi-source stream whose chunk-arrival order follows \p perm:
/// object i lands in the time window perm[i % perm.size()], so different
/// permutations deliver the same object partition in a different order.
Dataset MakePermutedStream(size_t num_objects, const std::vector<int64_t>& perm,
                           uint64_t seed) {
  Schema schema;
  EXPECT_TRUE(schema.AddContinuous("x", 0.0).ok());
  EXPECT_TRUE(schema.AddCategorical("y").ok());
  std::vector<std::string> objects;
  for (size_t i = 0; i < num_objects; ++i) objects.push_back("o" + std::to_string(i));
  Dataset truth_data(std::move(schema), std::move(objects), {});
  for (const char* label : {"a", "b", "c"}) truth_data.mutable_dict(1).GetOrAdd(label);
  Rng rng(seed);
  ValueTable truth(num_objects, 2);
  for (size_t i = 0; i < num_objects; ++i) {
    truth.Set(i, 0, Value::Continuous(std::round(rng.Uniform(0, 40))));
    truth.Set(i, 1, Value::Categorical(static_cast<CategoryId>(rng.UniformInt(0, 2))));
  }
  truth_data.set_ground_truth(std::move(truth));
  NoiseOptions noise;
  noise.gammas = {0.1, 0.5, 0.9, 1.4, 1.9, 0.3};
  noise.missing_rate = 0.45;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth_data, noise);
  EXPECT_TRUE(noisy.ok());
  Dataset data = std::move(noisy).ValueOrDie();
  std::vector<int64_t> timestamps(num_objects);
  for (size_t i = 0; i < num_objects; ++i) timestamps[i] = perm[i % perm.size()];
  EXPECT_TRUE(data.set_timestamps(std::move(timestamps)).ok());
  return data;
}

IncrementalCrhOptions StreamOptions(DeltaSolveMode mode, int threads) {
  IncrementalCrhOptions options;
  options.window_size = 1;
  options.delta_solve = mode;
  options.base.num_threads = threads;
  return options;
}

const std::vector<std::vector<int64_t>>& ChunkOrders() {
  static const std::vector<std::vector<int64_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  return orders;
}

TEST(CumulativeResolveTest, FullMatchesWholeStreamOracleAcrossChunkOrders) {
  // The kFull invariant, checked against an independent oracle: after the
  // last chunk the fused table is one truth pass over the WHOLE stream
  // (its own freshly built claim index) at the final weights — for any
  // chunk-arrival order and any thread count.
  for (const auto& perm : ChunkOrders()) {
    const Dataset data = MakePermutedStream(48, perm, 29);
    auto legacy = RunIncrementalCrhResilient(data, StreamOptions(DeltaSolveMode::kOff, 1),
                                             StreamResilienceOptions{});
    ASSERT_TRUE(legacy.ok());
    for (const int threads : {1, 4}) {
      const IncrementalCrhOptions options = StreamOptions(DeltaSolveMode::kFull, threads);
      const std::string label = "full@" + std::to_string(threads);
      auto result = RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
      ExpectTablesBitIdentical(
          ComputeTruthsGivenWeights(data, result->source_weights, options.base),
          result->truths, label);
      // The weight path is shared with the legacy mode: byte-identical even
      // though kOff's truth table keeps the per-chunk patchwork semantics.
      EXPECT_EQ(legacy->source_weights, result->source_weights) << label;
      EXPECT_EQ(legacy->accumulated_deviations, result->accumulated_deviations) << label;
      EXPECT_EQ(legacy->weight_history, result->weight_history) << label;
    }
  }
}

TEST(CumulativeResolveTest, QuarantinedFullMatchesOracleOnPrecleanedStream) {
  // The cumulative index must hold exactly the claims the weights were
  // learned from: under quarantine, the oracle runs on the pre-cleaned
  // stream and the result must match it bit for bit.
  struct Injected {
    size_t source, object, property;
    Value value;
  };
  const std::vector<Injected> injected = {
      {0, 3, 0, Value::Continuous(std::nan(""))},
      {1, 7, 0, Value::Continuous(-std::numeric_limits<double>::infinity())},
      {2, 11, 1, Value::Categorical(42)},  // outside the 3-label dictionary
      {4, 20, 1, Value::Categorical(-7)},
  };
  for (const auto& perm : ChunkOrders()) {
    Dataset dirty = MakePermutedStream(48, perm, 41);
    Dataset cleaned = dirty;
    for (const Injected& bad : injected) {
      dirty.SetObservation(bad.source, bad.object, bad.property, bad.value);
      cleaned.mutable_observations(bad.source).Clear(bad.object, bad.property);
    }
    for (const int threads : {1, 4}) {
      IncrementalCrhOptions options = StreamOptions(DeltaSolveMode::kFull, threads);
      options.quarantine_bad_claims = true;
      const std::string label = "quarantine full@" + std::to_string(threads);
      auto result = RunIncrementalCrhResilient(dirty, options, StreamResilienceOptions{});
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().message();
      ExpectTablesBitIdentical(
          ComputeTruthsGivenWeights(cleaned, result->source_weights, options.base),
          result->truths, label);
      uint64_t quarantined = 0;
      for (uint64_t count : result->quarantined_per_source) quarantined += count;
      EXPECT_EQ(quarantined, injected.size()) << label;

      options.quarantine_bad_claims = false;
      auto clean_run = RunIncrementalCrhResilient(cleaned, options, StreamResilienceOptions{});
      ASSERT_TRUE(clean_run.ok()) << label;
      EXPECT_EQ(clean_run->source_weights, result->source_weights) << label;
      ExpectTablesBitIdentical(clean_run->truths, result->truths, label + " vs clean run");
    }
  }
}

TEST(CumulativeResolveTest, ResumeRebuildsTheCumulativeIndex) {
  // Crash after two chunks, then resume: the replayed chunks must rebuild
  // the cumulative claim index, or the chunks solved after the resume
  // would re-solve over a partial stream.
  const Dataset data = MakePermutedStream(32, {1, 0, 2, 3}, 31);
  const IncrementalCrhOptions options = StreamOptions(DeltaSolveMode::kFull, 1);
  auto uninterrupted = RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
  ASSERT_TRUE(uninterrupted.ok());

  const std::string dir = testing::TempDir() + "/cumulative_resume";
  std::filesystem::remove_all(dir);
  StreamResilienceOptions resilience;
  resilience.checkpoint_dir = dir;
  resilience.checkpoint_every = 1;
  FailPoints::Instance().ClearAll();
  FailPoints::Instance().FailOnHit("stream.process_chunk", 3);
  EXPECT_FALSE(RunIncrementalCrhResilient(data, options, resilience).ok());
  FailPoints::Instance().ClearAll();

  resilience.resume = true;
  auto resumed = RunIncrementalCrhResilient(data, options, resilience);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->chunks_resumed, 2u);
  ExpectTablesBitIdentical(uninterrupted->truths, resumed->truths, "resume");
  EXPECT_EQ(uninterrupted->source_weights, resumed->source_weights);
  std::filesystem::remove_all(dir);
}

TEST(CumulativeResolveTest, SupervisionIsRejectedInFullMode) {
  const Dataset data = MakePermutedStream(16, {0, 1}, 37);
  ValueTable clamp(data.num_objects(), data.num_properties());
  IncrementalCrhOptions options = StreamOptions(DeltaSolveMode::kFull, 1);
  options.base.supervision = &clamp;
  auto result = RunIncrementalCrhResilient(data, options, StreamResilienceOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crh
