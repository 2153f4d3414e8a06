#include "mapreduce/parallel_crh.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "analysis/invariants.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "data/claim_index.h"
#include "data/stats.h"
#include "weights/weight_scheme.h"

namespace crh {

Result<ParallelCrhResult> RunParallelCrh(const Dataset& data,
                                         const ParallelCrhOptions& options) {
  if (options.base.categorical_model == CategoricalModel::kSoftProbability) {
    return Status::NotImplemented(
        "the soft categorical model is not supported by parallel CRH");
  }
  if (options.base.supervision != nullptr) {
    return Status::NotImplemented("supervision is not supported by parallel CRH");
  }
  if (options.base.weight_granularity != WeightGranularity::kGlobal) {
    return Status::NotImplemented(
        "non-global weight granularities are not supported by parallel CRH");
  }
  if (data.num_sources() == 0) {
    return Status::InvalidArgument("dataset has no sources");
  }
  if (data.num_entries() == 0) {
    return Status::InvalidArgument("dataset has no entries");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  CRH_RETURN_NOT_OK(ValidateMapReduceConfig(options.mr));

  Stopwatch watch;
  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  const size_t cells = k_sources * m_props;
  const EntryStats stats = ComputeEntryStats(data);
  const ClaimIndex index = ClaimIndex::Build(data);
  const size_t num_entries = index.num_entries();
  SolverWorkspace workspace;
  const size_t num_shards = workspace.Prepare(data, index);
  // The input records of every job: the entry shards, in grid order.
  std::vector<size_t> shards(num_shards);
  std::iota(shards.begin(), shards.end(), size_t{0});

  ParallelCrhResult result;
  // The shared "files" every task reads (Section 2.7.2): the source weights
  // as one global weight group, starting from RunCrh's uniform 1.0, and the
  // dense truth table.
  std::vector<std::vector<double>> weights(1, std::vector<double>(k_sources, 1.0));
  const std::vector<size_t> one_group(m_props, 0);
  ValueTable truths(data.num_objects(), m_props);

  // Truth job, map-only: each task writes its shard's truths into the
  // shared table. A killed attempt's writes are overwritten by its retry
  // with the same values, and no two tasks share an entry.
  const auto run_truth_job = [&]() -> Status {
    const TruthDispatch dispatch = MakeTruthDispatch(data, weights, one_group, options.base);
    MapReduceSpec<size_t, size_t, size_t, size_t> spec;
    spec.map = [&](const size_t& shard, std::vector<std::pair<size_t, size_t>>*) {
      UpdateTruthsShard(data, index, dispatch, options.base,
                        ShardRange(num_entries, num_shards, shard), m_props,
                        *workspace.shard(shard).scratch, &truths, nullptr, nullptr);
    };
    spec.reduce = [](const size_t&, std::vector<size_t>&&, std::vector<size_t>*) {};
    auto job = RunMapReduce(shards, spec, options.mr);
    if (!job.ok()) return job.status();
    result.job_stats.push_back(job->stats);
    return Status::OK();
  };

  // Weight job: key source * M + property, value (loss, claim count). Each
  // map task already emits one record per non-empty cell of its shard, so
  // there is no combiner; the reduce adds a cell's partials in arrival
  // order, which is shard order — the order RunCrh reduces them in.
  using LossAndCount = std::pair<double, uint64_t>;
  const auto run_weight_job = [&]() -> Result<std::vector<double>> {
    const TruthView view{&truths, nullptr, nullptr};
    MapReduceSpec<size_t, uint64_t, LossAndCount, std::pair<uint64_t, LossAndCount>> spec;
    spec.map = [&](const size_t& shard,
                   std::vector<std::pair<uint64_t, LossAndCount>>* out) {
      const SolverWorkspace::Shard slot = workspace.shard(shard);
      LossMatrixShard(data, index, view, stats, options.base.continuous_model,
                      ShardRange(num_entries, num_shards, shard), m_props, slot.loss,
                      slot.count, cells, *slot.scratch);
      for (size_t cell = 0; cell < cells; ++cell) {
        if (slot.count[cell] > 0) {
          out->emplace_back(cell, LossAndCount{slot.loss[cell], slot.count[cell]});
        }
      }
    };
    spec.reduce = [](const uint64_t& cell, std::vector<LossAndCount>&& partials,
                     std::vector<std::pair<uint64_t, LossAndCount>>* out) {
      LossAndCount total{0.0, 0};
      for (const LossAndCount& partial : partials) {
        total.first += partial.first;
        total.second += partial.second;
      }
      out->emplace_back(cell, total);
    };
    auto job = RunMapReduce(shards, spec, options.mr);
    if (!job.ok()) return job.status();
    result.job_stats.push_back(job->stats);

    std::vector<double> loss(cells, 0.0);
    std::vector<size_t> count(cells, 0);
    for (const auto& [cell, total] : job->records) {
      loss[cell] = total.first;
      count[cell] = total.second;
    }
    NormalizeLossMatrix(options.base, k_sources, m_props, count.data(), loss.data());
    return SourceLossTotals(loss.data(), k_sources, m_props);
  };

  IterationObserver* observer = options.base.observer;
#ifdef CRH_VERIFY_BUILD
  InvariantVerifier default_verifier;
  if (observer == nullptr) observer = &default_verifier;
#endif

  // --- Wrapper: iterate truth + weight jobs until the weights settle.
  ValueTable prev_truths;  // observer-only: the previous iteration's truths
  bool have_prev_truths = false;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    CRH_RETURN_NOT_OK(run_truth_job());
    auto deviations = run_weight_job();
    if (!deviations.ok()) return deviations.status();
    auto updated = ComputeSourceWeights(*deviations, options.base.weight_scheme);
    if (!updated.ok()) return updated.status();
    CRH_VERIFY_OR_RETURN(updated->size() == k_sources,
                         "weight scheme returned a wrong-sized weight vector");
    std::vector<double>& current = weights[0];
    double max_change = 0.0;
    for (size_t k = 0; k < k_sources; ++k) {
      max_change = std::max(max_change, std::abs((*updated)[k] - current[k]));
    }
    result.iterations = iter + 1;
    if (observer != nullptr) {
      // Descent certificates. The truth job minimized the weighted loss at
      // the pre-update weights, so its certificate compares the previous
      // and new truths at those weights; the first iteration has no
      // previous truths and emits none. The weight job's certificate is
      // evaluated on the deviations it aggregated.
      IterationSnapshot snapshot;
      if (have_prev_truths) {
        snapshot.truth_step_before =
            CrhObjective(data, prev_truths, current, stats, options.base);
        snapshot.truth_step_after = CrhObjective(data, truths, current, stats, options.base);
      }
      snapshot.weight_step_before =
          WeightStepObjective(current, *deviations, options.base.weight_scheme);
      snapshot.weight_step_after =
          WeightStepObjective(*updated, *deviations, options.base.weight_scheme);
      snapshot.engine = "parallel";
      snapshot.iteration = iter + 1;
      snapshot.data = &data;
      snapshot.truths = &truths;
      snapshot.weights = &*updated;
      snapshot.weight_scheme = &options.base.weight_scheme;
      snapshot.objective = CrhObjective(data, truths, *updated, stats, options.base);
      CRH_RETURN_NOT_OK(observer->OnIteration(snapshot));
      prev_truths = truths;
      have_prev_truths = true;
    }
    current = std::move(*updated);
    if (max_change < options.convergence_tolerance) {
      result.converged = true;
      break;
    }
  }
  // Final truth job so the reported truths reflect the final weights.
  CRH_RETURN_NOT_OK(run_truth_job());

  result.truths = std::move(truths);
  result.source_weights.assign(k_sources, 0.0);
  MeanGroupWeights(weights, &result.source_weights);
  result.wall_seconds = watch.ElapsedSeconds();
  // On the cluster every job reads each claim once, whatever its records.
  result.simulated_cluster_seconds =
      options.cost_model.job_setup_seconds +
      static_cast<double>(result.job_stats.size()) *
          options.cost_model.EstimatePassSeconds(static_cast<double>(index.num_claims()),
                                                 options.mr.num_reducers);
  return result;
}

}  // namespace crh
