#ifndef CRH_CORE_CRH_H_
#define CRH_CORE_CRH_H_

/// \file crh.h
/// The CRH framework (Algorithm 1 of the paper): joint truth discovery and
/// source-reliability estimation on heterogeneous data.
///
/// CRH solves
///
///   min_{X*, W}  sum_k w_k * sum_{i,m} d_m(v*_im, v^k_im)
///   s.t.         delta(W) = 1
///
/// by block coordinate descent, alternating a closed-form source-weight
/// update (Eq 2 / Eq 5) with per-entry truth updates (Eq 3) until the
/// objective stops decreasing. Categorical and continuous properties use
/// different loss functions but contribute to a single joint weight
/// estimate — the paper's central idea.
///
/// Typical use:
///
///   crh::CrhOptions options;                       // paper defaults
///   auto result = crh::RunCrh(dataset, options);
///   if (!result.ok()) { ... }
///   const crh::ValueTable& truths = result->truths;
///   const std::vector<double>& weights = result->source_weights;

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "data/claim_index.h"
#include "data/dataset.h"
#include "data/stats.h"
#include "data/table.h"
#include "weights/weight_scheme.h"

namespace crh {

class IterationObserver;  // analysis/invariants.h
class ThreadPool;         // common/thread_pool.h

/// Truth model for categorical properties.
enum class CategoricalModel {
  /// 0-1 loss (Eq 8) with weighted-vote truth update (Eq 9). The paper's
  /// default: fast and memory-light.
  kVoting,
  /// Probability-vector squared loss (Eq 11) with weighted-mean
  /// distribution update (Eq 12); the reported truth is the mode. Soft
  /// decisions at the cost of O(L_m) memory per entry.
  kSoftProbability,
};

/// Truth model for continuous properties.
enum class ContinuousModel {
  /// Normalized absolute loss (Eq 15) with weighted-median truth update
  /// (Eq 16). The paper's default: robust to outliers.
  kMedian,
  /// Normalized squared loss (Eq 13) with weighted-mean truth update
  /// (Eq 14). Sensitive to outliers.
  kMean,
};

/// How per-property loss totals are normalized across sources before they
/// are summed into a per-source deviation (Section 2.5, "Normalization").
/// Without it, a property whose loss has a larger range would dominate the
/// weight estimate.
enum class PropertyLossNormalization {
  kNone,
  /// Divide each property's per-source losses by their sum over sources.
  kSum,
  /// Divide each property's per-source losses by their max over sources.
  kMax,
};

/// Granularity of the source-reliability estimate (Section 2.5, "Source
/// weight consistency"). CRH normally assumes one reliability degree per
/// source; when that assumption is violated — a sensor with a precise
/// thermometer but a broken status register — w_k can be split into
/// fine-grained weights over subsets of properties.
enum class WeightGranularity {
  /// One weight per source (the paper's default assumption).
  kGlobal,
  /// One weight per source per property *type* (continuous / categorical /
  /// text).
  kPerType,
  /// One weight per source per property.
  kPerProperty,
};

/// Configuration for RunCrh. The defaults reproduce the configuration the
/// paper evaluates: weighted voting for categorical data, weighted median
/// for continuous data, and log weights with max normalization (see
/// weights/weight_scheme.h for the trade-off between the max and sum
/// normalizations).
struct CrhOptions {
  CategoricalModel categorical_model = CategoricalModel::kVoting;
  ContinuousModel continuous_model = ContinuousModel::kMedian;
  WeightSchemeOptions weight_scheme = {};
  PropertyLossNormalization property_normalization = PropertyLossNormalization::kSum;
  /// Divide each source's per-property loss by the number of observations
  /// that source made on that property, so sparsely reporting sources are
  /// not judged on volume (Section 2.5, "Missing values").
  bool normalize_by_observation_count = true;
  /// Iteration cap for the block coordinate descent.
  int max_iterations = 100;
  /// Worker threads for the truth update and the loss/objective
  /// accumulations. 1 (the default) runs sequentially on the calling
  /// thread; 0 uses one worker per hardware thread; negative values are
  /// rejected. Results are bit-identical at every thread count: work is
  /// cut on a fixed shard grid whose boundaries depend only on the data
  /// size, and per-shard partials are reduced in shard order (see
  /// docs/PERFORMANCE.md, "Deterministic reduction").
  int num_threads = 1;
  /// Stop when the relative decrease of the objective falls below this.
  double convergence_tolerance = 1e-9;
  /// How finely source reliability is resolved. Non-global granularities
  /// relax the source-weight-consistency assumption at the cost of less
  /// evidence per weight (each weight is then estimated from a subset of
  /// the properties only).
  WeightGranularity weight_granularity = WeightGranularity::kGlobal;
  /// Optional supervision: a table of known truths (semi-supervised truth
  /// discovery). Non-missing cells are clamped during every truth update,
  /// so source weights are estimated against verified values where
  /// available. Must outlive the RunCrh call and match the dataset shape.
  const ValueTable* supervision = nullptr;
  /// Optional observer invoked after every coordinate-descent step (see
  /// analysis/invariants.h); a non-OK status from it aborts the run with
  /// that status. Borrowed; must outlive the call. When the library is
  /// built with -DCRH_VERIFY=ON, a full InvariantVerifier is installed
  /// here automatically for every run that leaves this null.
  IterationObserver* observer = nullptr;
};

/// Per-categorical-property soft truth distributions (filled only under
/// CategoricalModel::kSoftProbability).
struct SoftDistributions {
  /// Property index this block belongs to.
  size_t property = 0;
  /// Number of labels L_m.
  size_t num_labels = 0;
  /// Row-major N x L_m probabilities.
  std::vector<double> probabilities;

  /// The probability of label l for object i.
  double at(size_t i, CategoryId l) const {
    return probabilities[i * num_labels + static_cast<size_t>(l)];
  }
};

/// Output of RunCrh.
struct CrhResult {
  /// The estimated truth table X^(*). Entries no source observed stay missing.
  ValueTable truths;
  /// Estimated source weights W (reliability degrees). Under a non-global
  /// weight granularity this is each source's mean weight across groups;
  /// the per-group weights are in fine_grained_weights.
  std::vector<double> source_weights;
  /// Per-group weights, K x num_groups (only filled for non-global
  /// granularity). Group g covers the properties with property_group == g.
  std::vector<std::vector<double>> fine_grained_weights;
  /// Property -> weight-group index (size M; all zeros for kGlobal).
  std::vector<size_t> property_group;
  /// Soft label distributions per categorical property (kSoftProbability only).
  std::vector<SoftDistributions> soft_distributions;
  /// Objective value after each iteration (raw weighted loss, Eq 1).
  std::vector<double> objective_history;
  /// Iterations executed.
  int iterations = 0;
  /// Whether the convergence tolerance was met before max_iterations.
  bool converged = false;
};

// --- Deterministic entry-shard grid ------------------------------------------
//
// Every accumulation over claims is cut on a fixed grid of contiguous
// entry ranges whose boundaries depend only on the number of entries,
// never on the thread count. Each shard's partial is computed in entry
// order by exactly one worker, and partials are reduced in shard order —
// so the floating-point association tree is a property of the data shape
// and results are bit-identical at any thread count (including the
// sequential path, which walks the same shards in order). Parallel CRH's
// MapReduce jobs take these shards as their input records.

/// Number of shards of the grid over \p num_entries entries.
size_t NumEntryShards(size_t num_entries);

/// A contiguous range [begin, end) of entry ids e = i * M + m.
struct EntryRange {
  size_t begin = 0;
  size_t end = 0;
};

/// The entries of shard \p shard of \p num_shards.
EntryRange ShardRange(size_t num_entries, size_t num_shards, size_t shard);

/// One shard's kernel scratch (defined in crh.cc; reached through
/// SolverWorkspace::shard).
struct EntryScratch;

/// Reusable solver scratch: one bump-arena allocation backing every
/// per-iteration buffer of the pass entry points below. Callers that run
/// many passes — the incremental solver, the streaming engine's
/// cumulative re-solve (--delta-solve full), the benchmark harness — hold
/// one workspace per concurrent caller and pass it to every call; after
/// the first sizing, passes run allocation-free.
/// Sized (and resized) automatically by the passes; reusable across
/// datasets. Not thread-safe: one workspace serves one call at a time
/// (the pass itself may fan work out over a pool internally); distinct
/// shards' slots may be used concurrently.
class SolverWorkspace {
 public:
  SolverWorkspace();
  ~SolverWorkspace();
  SolverWorkspace(SolverWorkspace&&) noexcept;
  SolverWorkspace& operator=(SolverWorkspace&&) noexcept;

  /// Sizes every buffer for \p data and its \p index (allocation-free when
  /// already large enough) and returns the shard count of the entry grid.
  size_t Prepare(const Dataset& data, const ClaimIndex& index);

  /// One shard's slot of a prepared workspace: the kernel scratch plus the
  /// shard's K x M partial loss and observation-count slices.
  struct Shard {
    EntryScratch* scratch = nullptr;
    double* loss = nullptr;
    uint32_t* count = nullptr;
  };
  Shard shard(size_t shard);

  /// Opaque scratch (defined in crh.cc).
  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// --- Shard kernels -----------------------------------------------------------
//
// The per-shard steps of every iteration and the steps that finish their
// reduction, exactly as RunCrh runs them. Each shard kernel touches only
// its own shard's entries and scratch, so shards can run on any worker in
// any order.

/// Per-property truth-update dispatch, resolved once per pass instead of
/// per entry. Borrows the weight vectors it points at.
struct TruthDispatch {
  std::vector<PropertyType> types;
  /// Nonzero where the soft categorical model is active.
  std::vector<char> soft_active;
  /// The source weights each property's truths are resolved with.
  std::vector<const std::vector<double>*> weights_for;
};

/// Builds the dispatch for per-group weights; property m uses
/// group_weights[property_group[m]].
TruthDispatch MakeTruthDispatch(const Dataset& data,
                                const std::vector<std::vector<double>>& group_weights,
                                const std::vector<size_t>& property_group,
                                const CrhOptions& options);

/// Truth update (Eq 3) of every entry in \p range, written into \p truths;
/// supervised cells are clamped to their labels. \p soft / \p num_labels
/// receive the label distributions of soft-model properties and may be null
/// when the dispatch has none.
void UpdateTruthsShard(const Dataset& data, const ClaimIndex& index,
                       const TruthDispatch& dispatch, const CrhOptions& options,
                       EntryRange range, size_t m_props, EntryScratch& scratch,
                       ValueTable* truths, std::vector<std::vector<double>>* soft,
                       const std::vector<size_t>* num_labels);

/// Read-only view of a candidate solution for loss evaluation. `soft` and
/// `num_labels` are null under the hard categorical model; when set, the
/// soft loss (Eq 11) is scored directly against the property blocks.
struct TruthView {
  const ValueTable* truths = nullptr;
  const std::vector<std::vector<double>>* soft = nullptr;
  const std::vector<size_t>* num_labels = nullptr;
};

/// One shard of the loss matrix: the per-cell (cell = source * M +
/// property) loss and observation counts of the shard's claims, written
/// over the caller's \p cells-long slices (zeroed first).
void LossMatrixShard(const Dataset& data, const ClaimIndex& index, const TruthView& view,
                     const EntryStats& stats, ContinuousModel continuous_model,
                     EntryRange range, size_t m_props, double* loss, uint32_t* count,
                     size_t cells, EntryScratch& scratch);

/// Finishes a loss matrix reduced over all shards (row-major K x M, summed
/// in shard order) in place: the observation-count and per-property
/// normalizations configured in \p options.
void NormalizeLossMatrix(const CrhOptions& options, size_t k_sources, size_t m_props,
                         const size_t* count, double* loss);

/// Each source's total over properties of a normalized K x M loss matrix:
/// the deviations ComputeSourceWeights turns into weights.
std::vector<double> SourceLossTotals(const double* loss, size_t k_sources, size_t m_props);

/// Each source's mean weight across weight groups into \p mean (size K):
/// the weights RunCrh reports. Summing from +0.0 reports a group weight of
/// -0.0 as +0.0.
void MeanGroupWeights(const std::vector<std::vector<double>>& group_weights,
                      std::vector<double>* mean);

/// Runs CRH (Algorithm 1) on a multi-source dataset.
///
/// Truths are initialized by unweighted voting (categorical) and the
/// unweighted median/mean (continuous, per the configured model), then the
/// weight and truth updates alternate until convergence. Missing
/// observations are skipped everywhere.
[[nodiscard]] Result<CrhResult> RunCrh(const Dataset& data, const CrhOptions& options = {});

/// One truth-update pass (Eq 3): computes per-entry truths from fixed
/// source weights, using the loss models configured in \p options. Soft
/// categorical distributions are not materialized here; the categorical
/// truth is the weighted vote (the mode). Used by the incremental and
/// parallel CRH variants, which interleave the two steps differently.
ValueTable ComputeTruthsGivenWeights(const Dataset& data, const std::vector<double>& weights,
                                     const CrhOptions& options);

/// Claim-major variant over a prebuilt index (must have been built from
/// \p data): callers that run many passes — the incremental solver, the
/// benchmark harness — amortize the index build and may share a
/// ThreadPool. A null \p pool runs sequentially.
ValueTable ComputeTruthsGivenWeights(const Dataset& data, const ClaimIndex& index,
                                     const std::vector<double>& weights,
                                     const CrhOptions& options, ThreadPool* pool = nullptr);

/// Workspace-reusing variant: identical results, but the pass's scratch
/// persists in \p workspace across calls (allocation-free after the first).
ValueTable ComputeTruthsGivenWeights(const Dataset& data, const ClaimIndex& index,
                                     const std::vector<double>& weights,
                                     const CrhOptions& options, ThreadPool* pool,
                                     SolverWorkspace& workspace);

/// One weight-aggregation pass: each source's total deviation between its
/// observations and \p truths, with the per-observation-count and
/// per-property normalizations configured in \p options applied. Feed the
/// result to ComputeSourceWeights to finish the weight update (Eq 2).
std::vector<double> ComputeSourceDeviations(const Dataset& data, const ValueTable& truths,
                                            const EntryStats& stats, const CrhOptions& options);

/// Claim-major variant over a prebuilt index; see ComputeTruthsGivenWeights.
std::vector<double> ComputeSourceDeviations(const Dataset& data, const ClaimIndex& index,
                                            const ValueTable& truths, const EntryStats& stats,
                                            const CrhOptions& options,
                                            ThreadPool* pool = nullptr);

/// Workspace-reusing variant of the claim-major deviation pass.
std::vector<double> ComputeSourceDeviations(const Dataset& data, const ClaimIndex& index,
                                            const ValueTable& truths, const EntryStats& stats,
                                            const CrhOptions& options, ThreadPool* pool,
                                            SolverWorkspace& workspace);

/// Computes the raw CRH objective (Eq 1) of a candidate solution: the
/// weighted sum over sources of per-entry losses between \p truths and the
/// observations, using the losses implied by \p options and entry scales
/// from \p stats. Exposed for tests and diagnostics.
double CrhObjective(const Dataset& data, const ValueTable& truths,
                    const std::vector<double>& weights, const EntryStats& stats,
                    const CrhOptions& options);

}  // namespace crh

#endif  // CRH_CORE_CRH_H_
