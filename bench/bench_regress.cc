/// \file bench_regress.cc
/// Benchmark regression harness for the claim-major solver core.
///
/// Measures, on a sparse multi-source workload (default density well under
/// 20%):
///
///  * the truth-update and deviation passes, claim-major (ClaimIndex) vs a
///    dense K-scan reference kernel (the pre-index implementation, kept
///    here as the regression baseline) — ns/claim and speedup; the sparse
///    passes reuse a SolverWorkspace, so their steady-state allocation
///    count (the last repetition's) is expected to be zero;
///  * the weight-update pass (ComputeSourceWeights over the aggregated
///    deviations) — ns/source and allocations;
///  * the full RunCrh solver at 1, 2 and 4 threads — iterations/s, speedup
///    vs 1 thread, and whether results are bit-identical across counts;
///  * RunParallelCrh against RunCrh at one fixed iteration budget — the
///    MapReduce jobs run the batch solver's shard kernels, so truths and
///    weights must be bit-identical (the binary exits nonzero otherwise);
///  * heap allocations per pass (global operator new counter).
///
/// Results are written as machine-readable JSON (BENCH_crh.json). With
/// CRH_BENCH_REQUIRE_SPEEDUP=<x> set, the binary exits nonzero unless the
/// claim-major passes are at least x times faster than the dense
/// reference — CI's perf-regression gate.
///
///   bench_regress [output.json]
///     CRH_SCALE=1.0    size multiplier (objects)
///     CRH_SEED=42      noise seed
///     CRH_SOURCES=96   source count (paper gammas, tiled)
///     CRH_DENSITY=0.05 claim density (1 - missing_rate)
///     CRH_BENCH_REPS=5 timed repetitions per kernel (best-of)
///     CRH_BENCH_REQUIRE_SPEEDUP=5.0  fail unless sparse/dense >= 5.0
///
/// The default workload models the paper's real-world regime — many
/// sources, each covering a small slice of the entries (stock/flight style
/// coverage) — which is exactly where a dense K-scan pays for the sources
/// that did NOT speak on every entry.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "losses/resolvers.h"
#include "data/claim_index.h"
#include "data/stats.h"
#include "datagen/noise.h"
#include "datagen/uci_like.h"
#include "losses/text_distance.h"
#include "mapreduce/parallel_crh.h"

// The replacement operator new below returns malloc'd memory, which the
// matching replacement operator delete frees — conformant, but GCC's
// flow analysis pairs the inlined malloc with the library delete and
// reports a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// ---------------------------------------------------------------------------
// Global allocation counter: every heap allocation in the process bumps it,
// so per-pass deltas are exact allocation counts.

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  CRH_CHECK(false && "allocation failed");
  std::abort();
}

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace crh::bench {
namespace {

// ---------------------------------------------------------------------------
// Dense reference kernels: the pre-ClaimIndex implementation (a K-scan per
// entry), preserved verbatim as the baseline the sparse path must beat.

void DenseGatherClaims(const Dataset& data, size_t i, size_t m, std::vector<Value>* values,
                       std::vector<double>* weights, const std::vector<double>& w) {
  values->clear();
  weights->clear();
  for (size_t k = 0; k < data.num_sources(); ++k) {
    const Value& v = data.observations(k).Get(i, m);
    if (v.is_missing()) continue;
    values->push_back(v);
    weights->push_back(w[k]);
  }
}

ValueTable DenseTruthPass(const Dataset& data, const std::vector<double>& weights,
                          const CrhOptions& options) {
  ValueTable truths(data.num_objects(), data.num_properties());
  std::vector<Value> claim_values;
  std::vector<double> claim_weights;
  std::vector<double> cont_values;
  for (size_t m = 0; m < data.num_properties(); ++m) {
    const PropertyType type = data.schema().property(m).type;
    const auto text_distance = [&data, m](const Value& a, const Value& b) {
      return NormalizedEditDistance(data.dict(m).label(a.category()),
                                    data.dict(m).label(b.category()));
    };
    for (size_t i = 0; i < data.num_objects(); ++i) {
      DenseGatherClaims(data, i, m, &claim_values, &claim_weights, weights);
      if (claim_values.empty()) {
        truths.Set(i, m, Value::Missing());
        continue;
      }
      if (type == PropertyType::kText) {
        truths.Set(i, m, WeightedMedoid(claim_values, claim_weights, text_distance));
      } else if (type == PropertyType::kCategorical) {
        truths.Set(i, m, WeightedVote(claim_values, claim_weights));
      } else {
        cont_values.clear();
        for (const Value& v : claim_values) cont_values.push_back(v.continuous());
        truths.Set(i, m, Value::Continuous(options.continuous_model == ContinuousModel::kMedian
                                               ? WeightedMedian(cont_values, claim_weights)
                                               : WeightedMean(cont_values, claim_weights)));
      }
    }
  }
  return truths;
}

double DenseClaimLoss(const Dataset& data, const ValueTable& truths, const EntryStats& stats,
                      const CrhOptions& options, size_t i, size_t m, const Value& obs) {
  const PropertyType type = data.schema().property(m).type;
  if (type == PropertyType::kText) {
    const Value& truth = truths.Get(i, m);
    return NormalizedEditDistance(data.dict(m).label(truth.category()),
                                  data.dict(m).label(obs.category()));
  }
  if (type == PropertyType::kCategorical) {
    return truths.Get(i, m) == obs ? 0.0 : 1.0;
  }
  const double diff = truths.Get(i, m).continuous() - obs.continuous();
  const double scale = stats.scale_at(i, m);
  if (options.continuous_model == ContinuousModel::kMedian) {
    return (diff < 0 ? -diff : diff) / scale;
  }
  return diff * diff / scale;
}

std::vector<double> DenseDeviationPass(const Dataset& data, const ValueTable& truths,
                                       const EntryStats& stats, const CrhOptions& options) {
  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  std::vector<std::vector<double>> loss(k_sources, std::vector<double>(m_props, 0.0));
  std::vector<std::vector<size_t>> count(k_sources, std::vector<size_t>(m_props, 0));
  for (size_t k = 0; k < k_sources; ++k) {
    const ValueTable& table = data.observations(k);
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < m_props; ++m) {
        const Value& obs = table.Get(i, m);
        if (obs.is_missing() || truths.Get(i, m).is_missing()) continue;
        loss[k][m] += DenseClaimLoss(data, truths, stats, options, i, m, obs);
        ++count[k][m];
      }
    }
  }
  if (options.normalize_by_observation_count) {
    for (size_t k = 0; k < k_sources; ++k) {
      for (size_t m = 0; m < m_props; ++m) {
        if (count[k][m] > 0) loss[k][m] /= static_cast<double>(count[k][m]);
      }
    }
  }
  if (options.property_normalization != PropertyLossNormalization::kNone) {
    for (size_t m = 0; m < m_props; ++m) {
      double norm = 0.0;
      for (size_t k = 0; k < k_sources; ++k) {
        if (options.property_normalization == PropertyLossNormalization::kSum) {
          norm += loss[k][m];
        } else {
          norm = std::max(norm, loss[k][m]);
        }
      }
      if (norm > 0) {
        for (size_t k = 0; k < k_sources; ++k) loss[k][m] /= norm;
      }
    }
  }
  std::vector<double> totals(k_sources, 0.0);
  for (size_t k = 0; k < k_sources; ++k) {
    for (size_t m = 0; m < m_props; ++m) totals[k] += loss[k][m];
  }
  return totals;
}

// ---------------------------------------------------------------------------

struct PassTiming {
  double best_seconds = 0.0;
  uint64_t allocations = 0;  // of the last repetition
};

/// Best-of-reps wall time plus the final repetition's allocation count.
template <typename Fn>
PassTiming TimePass(int reps, const Fn& fn) {
  PassTiming timing;
  timing.best_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t alloc_before = g_allocations.load(std::memory_order_relaxed);
    Stopwatch watch;
    fn();
    const double seconds = watch.ElapsedSeconds();
    timing.best_seconds = std::min(timing.best_seconds, seconds);
    timing.allocations = g_allocations.load(std::memory_order_relaxed) - alloc_before;
  }
  return timing;
}

bool TablesBitIdentical(const ValueTable& a, const ValueTable& b) {
  if (a.num_objects() != b.num_objects() || a.num_properties() != b.num_properties()) {
    return false;
  }
  for (size_t i = 0; i < a.num_objects(); ++i) {
    for (size_t m = 0; m < a.num_properties(); ++m) {
      const Value& va = a.Get(i, m);
      const Value& vb = b.Get(i, m);
      if (va.is_missing() != vb.is_missing()) return false;
      if (!va.is_missing() && !(va == vb)) return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_crh.json";
  const double scale = EnvDouble("CRH_SCALE", 1.0);
  const uint64_t seed = static_cast<uint64_t>(EnvInt("CRH_SEED", 42));
  const double density = EnvDouble("CRH_DENSITY", 0.05);
  const size_t num_sources = static_cast<size_t>(EnvInt("CRH_SOURCES", 96));
  const int reps = static_cast<int>(EnvInt("CRH_BENCH_REPS", 5));

  // --- Workload: Adult-schema ground truth, many sparse sources.
  UciLikeOptions truth_options;
  truth_options.num_records = static_cast<size_t>(2000 * scale);
  truth_options.seed = 7;
  const Dataset truth = MakeAdultGroundTruth(truth_options);
  NoiseOptions noise;
  const std::vector<double> paper_gammas = PaperSimulationGammas();
  for (size_t k = 0; k < num_sources; ++k) {
    noise.gammas.push_back(paper_gammas[k % paper_gammas.size()]);
  }
  noise.missing_rate = 1.0 - density;
  noise.seed = seed;
  auto noisy = MakeNoisyDataset(truth, noise);
  CRH_CHECK(noisy.ok());
  const Dataset& data = *noisy;

  CrhOptions options;  // paper defaults
  const EntryStats stats = ComputeEntryStats(data);

  Stopwatch build_watch;
  const ClaimIndex index = ClaimIndex::Build(data);
  const double index_build_seconds = build_watch.ElapsedSeconds();
  const size_t num_claims = index.num_claims();
  const double dense_cells =
      static_cast<double>(data.num_sources()) * static_cast<double>(index.num_entries());
  std::printf("workload: %zu objects x %zu properties x %zu sources, %zu claims "
              "(density %.3f)\n",
              data.num_objects(), data.num_properties(), data.num_sources(), num_claims,
              static_cast<double>(num_claims) / dense_cells);

  // Deliberately non-uniform weights so the kernels exercise the weighted
  // paths the solver runs after the first iteration.
  std::vector<double> weights(data.num_sources());
  for (size_t k = 0; k < weights.size(); ++k) {
    weights[k] = 1.0 + 0.25 * static_cast<double>(k);
  }

  // --- Truth pass: dense reference vs claim-major. The sparse passes share
  // one SolverWorkspace — after the first repetition warms it, the pass is
  // allocation-free (modulo the result table), which is what the
  // *_allocations JSON fields below record.
  SolverWorkspace workspace;
  ValueTable dense_truths;
  const PassTiming dense_truth =
      TimePass(reps, [&]() { dense_truths = DenseTruthPass(data, weights, options); });
  ValueTable sparse_truths;
  const PassTiming sparse_truth = TimePass(reps, [&]() {
    sparse_truths = ComputeTruthsGivenWeights(data, index, weights, options, nullptr, workspace);
  });
  CRH_CHECK(TablesBitIdentical(dense_truths, sparse_truths));
  const double truth_speedup = dense_truth.best_seconds / sparse_truth.best_seconds;

  // --- Deviation pass: dense reference vs claim-major.
  std::vector<double> dense_dev;
  const PassTiming dense_deviation = TimePass(
      reps, [&]() { dense_dev = DenseDeviationPass(data, sparse_truths, stats, options); });
  std::vector<double> sparse_dev;
  const PassTiming sparse_deviation = TimePass(reps, [&]() {
    sparse_dev =
        ComputeSourceDeviations(data, index, sparse_truths, stats, options, nullptr, workspace);
  });
  CRH_CHECK_EQ(dense_dev.size(), sparse_dev.size());
  for (size_t k = 0; k < dense_dev.size(); ++k) {
    CRH_CHECK(NearlyEqual(dense_dev[k], sparse_dev[k], 1e-9));
  }
  const double deviation_speedup = dense_deviation.best_seconds / sparse_deviation.best_seconds;

  std::printf("truth pass:     dense %8.1f ns/claim  sparse %8.1f ns/claim  speedup %.2fx\n",
              dense_truth.best_seconds * 1e9 / static_cast<double>(num_claims),
              sparse_truth.best_seconds * 1e9 / static_cast<double>(num_claims), truth_speedup);
  std::printf("deviation pass: dense %8.1f ns/claim  sparse %8.1f ns/claim  speedup %.2fx\n",
              dense_deviation.best_seconds * 1e9 / static_cast<double>(num_claims),
              sparse_deviation.best_seconds * 1e9 / static_cast<double>(num_claims),
              deviation_speedup);

  // --- Weight update: the Eq 2 aggregation the solver runs between passes.
  std::vector<double> updated_weights;
  const PassTiming weight_update = TimePass(reps, [&]() {
    auto computed = ComputeSourceWeights(sparse_dev, options.weight_scheme);
    CRH_CHECK(computed.ok());
    updated_weights = std::move(*computed);
  });
  CRH_CHECK_EQ(updated_weights.size(), data.num_sources());
  std::printf("weight update:  %8.1f ns/source  %llu allocation(s)\n",
              weight_update.best_seconds * 1e9 / static_cast<double>(data.num_sources()),
              static_cast<unsigned long long>(weight_update.allocations));

  // --- Full solver across thread counts; 1-thread results are the
  // reference for bit-identity.
  const int thread_counts[] = {1, 2, 4};
  struct SolverRow {
    int threads = 0;
    double seconds = 0.0;
    int iterations = 0;
    bool bit_identical = true;
  };
  std::vector<SolverRow> solver_rows;
  CrhResult reference;
  for (const int threads : thread_counts) {
    CrhOptions solver_options = options;
    solver_options.num_threads = threads;
    SolverRow row;
    row.threads = threads;
    CrhResult last;
    const PassTiming timing = TimePass(reps, [&]() {
      auto result = RunCrh(data, solver_options);
      CRH_CHECK(result.ok());
      last = std::move(*result);
    });
    row.seconds = timing.best_seconds;
    row.iterations = last.iterations;
    if (threads == 1) {
      reference = std::move(last);
    } else {
      row.bit_identical = TablesBitIdentical(reference.truths, last.truths) &&
                          reference.source_weights == last.source_weights &&
                          reference.objective_history == last.objective_history;
    }
    solver_rows.push_back(row);
  }
  for (const SolverRow& row : solver_rows) {
    const double claims_iters = static_cast<double>(num_claims) * row.iterations;
    std::printf("solver %d thread(s): %.3fs  %d iters  %.1f ns/claim/iter  "
                "%.2f iters/s  speedup %.2fx  bit_identical %s\n",
                row.threads, row.seconds, row.iterations, row.seconds * 1e9 / claims_iters,
                row.iterations / row.seconds, solver_rows.front().seconds / row.seconds,
                row.bit_identical ? "true" : "false");
  }

  // --- Parallel CRH vs the batch solver at one iteration budget: the
  // MapReduce jobs drive the same shard kernels on the same entry grid.
  constexpr int kParallelIterations = 5;
  CrhOptions budget_options = options;
  budget_options.max_iterations = kParallelIterations;
  budget_options.convergence_tolerance = 0.0;
  auto batch = RunCrh(data, budget_options);
  CRH_CHECK(batch.ok());
  ParallelCrhOptions parallel_options;
  parallel_options.base = budget_options;
  parallel_options.max_iterations = kParallelIterations;
  parallel_options.convergence_tolerance = 0.0;
  auto parallel = RunParallelCrh(data, parallel_options);
  CRH_CHECK(parallel.ok());
  const bool parallel_identical =
      TablesBitIdentical(batch->truths, parallel->truths) &&
      batch->source_weights.size() == parallel->source_weights.size() &&
      std::memcmp(batch->source_weights.data(), parallel->source_weights.data(),
                  batch->source_weights.size() * sizeof(double)) == 0;
  std::printf("parallel CRH vs batch: %d iterations, %zu entry shards, bit_identical %s\n",
              kParallelIterations, NumEntryShards(index.num_entries()),
              parallel_identical ? "true" : "false");

  // --- JSON report.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  CRH_CHECK(out != nullptr);
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"workload\": {\"objects\": %zu, \"properties\": %zu, \"sources\": %zu, "
               "\"claims\": %zu, \"density\": %.6f, \"seed\": %llu, \"scale\": %.3f},\n",
               data.num_objects(), data.num_properties(), data.num_sources(), num_claims,
               static_cast<double>(num_claims) / dense_cells,
               static_cast<unsigned long long>(seed), scale);
  std::fprintf(out, "  \"index_build_seconds\": %.6f,\n", index_build_seconds);
  const auto pass_json = [&](const char* name, const PassTiming& dense,
                             const PassTiming& sparse, double speedup, const char* tail) {
    std::fprintf(out,
                 "  \"%s\": {\"dense_ns_per_claim\": %.1f, \"sparse_ns_per_claim\": %.1f, "
                 "\"speedup\": %.2f, \"dense_allocations\": %llu, "
                 "\"sparse_allocations\": %llu}%s\n",
                 name, dense.best_seconds * 1e9 / static_cast<double>(num_claims),
                 sparse.best_seconds * 1e9 / static_cast<double>(num_claims), speedup,
                 static_cast<unsigned long long>(dense.allocations),
                 static_cast<unsigned long long>(sparse.allocations), tail);
  };
  pass_json("truth_pass", dense_truth, sparse_truth, truth_speedup, ",");
  pass_json("deviation_pass", dense_deviation, sparse_deviation, deviation_speedup, ",");
  std::fprintf(out, "  \"weight_update\": {\"ns_per_source\": %.1f, \"allocations\": %llu},\n",
               weight_update.best_seconds * 1e9 / static_cast<double>(data.num_sources()),
               static_cast<unsigned long long>(weight_update.allocations));
  std::fprintf(out, "  \"solver\": [\n");
  for (size_t row_idx = 0; row_idx < solver_rows.size(); ++row_idx) {
    const SolverRow& row = solver_rows[row_idx];
    const double claims_iters = static_cast<double>(num_claims) * row.iterations;
    std::fprintf(out,
                 "    {\"threads\": %d, \"seconds\": %.6f, \"iterations\": %d, "
                 "\"ns_per_claim_iter\": %.1f, \"iterations_per_s\": %.2f, "
                 "\"speedup_vs_1_thread\": %.2f, \"bit_identical_to_1_thread\": %s}%s\n",
                 row.threads, row.seconds, row.iterations, row.seconds * 1e9 / claims_iters,
                 row.iterations / row.seconds, solver_rows.front().seconds / row.seconds,
                 row.bit_identical ? "true" : "false",
                 row_idx + 1 < solver_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: failed to close %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // --- CI gate: claim-major must beat the dense reference.
  const double required = EnvDouble("CRH_BENCH_REQUIRE_SPEEDUP", 0.0);
  if (required > 0.0 &&
      (truth_speedup < required || deviation_speedup < required)) {
    std::fprintf(stderr,
                 "FAIL: sparse speedup below %.2fx (truth %.2fx, deviation %.2fx)\n", required,
                 truth_speedup, deviation_speedup);
    return 1;
  }
  bool all_identical = true;
  for (const SolverRow& row : solver_rows) all_identical = all_identical && row.bit_identical;
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel solver results differ from 1-thread results\n");
    return 1;
  }
  if (!parallel_identical) {
    std::fprintf(stderr, "FAIL: RunParallelCrh results differ from RunCrh results\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace crh::bench

int main(int argc, char** argv) { return crh::bench::Main(argc, argv); }
