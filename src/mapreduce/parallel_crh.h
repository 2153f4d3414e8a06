#ifndef CRH_MAPREDUCE_PARALLEL_CRH_H_
#define CRH_MAPREDUCE_PARALLEL_CRH_H_

/// \file parallel_crh.h
/// Parallel CRH under the MapReduce model (Section 2.7 of the paper).
///
/// Parallel CRH is another way to execute Algorithm 1, not a second
/// algorithm: every job runs core's own shard kernels (core/crh.h) on
/// core's fixed entry-shard grid, so its truths and weights equal RunCrh's
/// bit for bit at the same iteration budget, for any cluster geometry,
/// thread count or retry pattern. The input records of every job are the
/// entry shards of one ClaimIndex. Each iteration runs two jobs:
///
///  * Truth job — each map task runs the truth kernel (Eq 3) over its
///    shard, reading the shared source weights, and writes the shard's
///    truths into one dense table (a map-only job).
///  * Weight job — each map task aggregates its shard's claim losses per
///    (source, property) cell against the shared truths and emits the
///    non-empty cells; per-shard aggregation in the map replaces the
///    paper's Combiner. Reduce adds each cell's shard partials in shard
///    order, and the wrapper applies core's normalizations and turns the
///    per-source deviations into weights (Eq 5).
///
/// Entry scales come from ComputeEntryStats. The wrapper starts from
/// RunCrh's uniform weights, iterates until the weights settle (Section
/// 2.7.4) and finishes with one more truth job. Supervision and
/// fine-grained weights are not supported.

#include <vector>

#include "common/status.h"
#include "core/crh.h"
#include "data/dataset.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/engine.h"

namespace crh {

/// Configuration for RunParallelCrh.
struct ParallelCrhOptions {
  /// Loss models, weight scheme and normalizations. The soft categorical
  /// model, supervision and non-global weight granularities are not
  /// supported in the MapReduce formulation.
  CrhOptions base;
  /// Engine configuration (mappers, reducers, threads).
  MapReduceConfig mr;
  /// Iteration cap for the wrapper; must be >= 1.
  int max_iterations = 20;
  /// Stop when the max source-weight change falls below this.
  double convergence_tolerance = 1e-9;
  /// Cost model used to report simulated cluster seconds.
  ClusterCostModel cost_model;
};

/// Output of RunParallelCrh.
struct ParallelCrhResult {
  ValueTable truths;
  std::vector<double> source_weights;
  int iterations = 0;
  bool converged = false;
  /// Stats of every executed job, in execution order.
  std::vector<JobStats> job_stats;
  /// Measured wall-clock of the whole fusion on this machine.
  double wall_seconds = 0.0;
  /// Simulated cluster time under the calibrated cost model: job setup +
  /// one pass over the dataset's claims per executed job.
  double simulated_cluster_seconds = 0.0;
};

/// Runs the MapReduce formulation of CRH over the dataset.
[[nodiscard]] Result<ParallelCrhResult> RunParallelCrh(const Dataset& data,
                                                       const ParallelCrhOptions& options = {});

}  // namespace crh

#endif  // CRH_MAPREDUCE_PARALLEL_CRH_H_
