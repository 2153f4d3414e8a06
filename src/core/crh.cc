#include "core/crh.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "analysis/invariants.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/hot.h"
#include "common/thread_pool.h"
#include "losses/loss.h"
#include "losses/resolvers.h"
#include "losses/text_distance.h"

namespace crh {

namespace {

/// Mutable solver state: hard truths plus, for the soft categorical model,
/// per-entry label distributions.
struct SolverState {
  ValueTable truths;
  // soft[m] is empty unless property m is categorical and the soft model is
  // active; otherwise an N x L_m row-major probability matrix.
  std::vector<std::vector<double>> soft;
  std::vector<size_t> num_labels;  // L_m per property (0 for continuous)
};

// --- Deterministic shard grid (see crh.h) ------------------------------------

constexpr size_t kMinEntriesPerShard = 1024;
constexpr size_t kMaxEntryShards = 64;

/// Runs fn(shard) for every shard; on the pool when one is available,
/// inline (in shard order) otherwise. Shard-to-worker assignment is static
/// (ThreadPool contract), so which worker runs a shard never affects what
/// the shard computes.
void RunShards(size_t num_shards, ThreadPool* pool, const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->num_workers() > 1 && num_shards > 1) {
    pool->ParallelFor(num_shards, fn);
    return;
  }
  for (size_t s = 0; s < num_shards; ++s) fn(s);
}

}  // namespace

size_t NumEntryShards(size_t num_entries) {
  if (num_entries <= kMinEntriesPerShard) return 1;
  const size_t by_size = (num_entries + kMinEntriesPerShard - 1) / kMinEntriesPerShard;
  return std::min(kMaxEntryShards, by_size);
}

EntryRange ShardRange(size_t num_entries, size_t num_shards, size_t shard) {
  return {num_entries * shard / num_shards, num_entries * (shard + 1) / num_shards};
}

// --- Caller-owned solver scratch ---------------------------------------------
//
// Every buffer the per-iteration passes need is carved out of ONE bump
// arena per workspace (EnsureSolverScratch) and reused across iterations;
// the CRH_HOT shard kernels below only read and index into it.
// scripts/crh_analyzer.py (--check=hot) statically verifies the kernels
// stay allocation-, lock- and I/O-free. The structs have external linkage
// (not the anonymous namespace) so SolverWorkspace::Impl can embed them
// without GCC's -Wsubobject-linkage tripping; outside this translation unit
// EntryScratch is an opaque handle passed back to the shard kernels.

/// Per-shard scratch: exactly one worker touches a shard's EntryScratch at
/// a time (static shard-to-worker assignment), so no synchronization. All
/// pointers are carves of the owning SolverScratch's arena.
struct EntryScratch {
  double* claim_weights = nullptr;  // per-claim source weights (gather)
  ResolverScratch resolver;
  EditDistanceScratch edit;
};

/// Whole-run scratch owned by the orchestrators. Flat partial buffers are
/// num_shards consecutive slices, reduced in shard order. Everything below
/// `arena` points into it.
struct SolverScratch {
  Arena arena;
  size_t num_shards = 0;
  size_t cells = 0;                      // K * M
  std::vector<EntryScratch> per_shard;   // one per shard
  double* partial_loss = nullptr;        // num_shards x (K * M)
  uint32_t* partial_count = nullptr;     // num_shards x (K * M)
  double* partial_source = nullptr;      // num_shards x K
  double* partial_scalar = nullptr;      // num_shards
  double* loss = nullptr;                // K * M reduced + normalized matrix
  size_t* count = nullptr;               // K * M reduced observation counts
};

/// The workspace pimpl is exactly one SolverScratch.
struct SolverWorkspace::Impl {
  SolverScratch scratch;
};

SolverWorkspace::SolverWorkspace() : impl_(std::make_unique<Impl>()) {}
SolverWorkspace::~SolverWorkspace() = default;
SolverWorkspace::SolverWorkspace(SolverWorkspace&&) noexcept = default;
SolverWorkspace& SolverWorkspace::operator=(SolverWorkspace&&) noexcept = default;

namespace {

/// Sizes \p scratch for the dataset: computes the whole byte budget —
/// shard grid, the largest claim span any entry has (O(1) via
/// ClaimIndex::max_span_size), the longest text label — then reserves the
/// arena ONCE and re-carves every buffer in a fixed order. Runs once per
/// solver entry point, outside every hot loop; with a reused workspace the
/// steady state is zero allocations (Reserve only grows).
void EnsureSolverScratch(const Dataset& data, const ClaimIndex& index,
                         SolverScratch* scratch) {
  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  const size_t num_shards = NumEntryShards(index.num_entries());
  scratch->num_shards = num_shards;

  const size_t max_claims = index.max_span_size();
  size_t max_label_len = 0;
  for (size_t m = 0; m < m_props; ++m) {
    if (data.schema().property(m).type != PropertyType::kText) continue;
    const CategoryDict& dict = data.dict(m);
    for (size_t id = 0; id < dict.size(); ++id) {
      max_label_len = std::max(max_label_len, dict.label(static_cast<CategoryId>(id)).size());
    }
  }

  const size_t cells = k_sources * m_props;
  scratch->cells = cells;
  size_t bytes = 0;
  bytes += num_shards * (Arena::BytesFor<double>(max_claims) +
                         ResolverScratch::BytesNeeded(max_claims) +
                         EditDistanceScratch::BytesNeeded(max_label_len));
  bytes += Arena::BytesFor<double>(num_shards * cells);    // partial_loss
  bytes += Arena::BytesFor<uint32_t>(num_shards * cells);  // partial_count
  bytes += Arena::BytesFor<double>(num_shards * k_sources);
  bytes += Arena::BytesFor<double>(num_shards);
  bytes += Arena::BytesFor<double>(cells);
  bytes += Arena::BytesFor<size_t>(cells);
  scratch->arena.Reserve(bytes);

  if (scratch->per_shard.size() != num_shards) {
    scratch->per_shard.clear();
    scratch->per_shard.resize(num_shards);
  }
  for (EntryScratch& shard : scratch->per_shard) {
    shard.claim_weights = scratch->arena.Carve<double>(max_claims);
    shard.resolver.CarveFrom(scratch->arena, max_claims);
    shard.edit.CarveFrom(scratch->arena, max_label_len);
  }
  scratch->partial_loss = scratch->arena.Carve<double>(num_shards * cells);
  scratch->partial_count = scratch->arena.Carve<uint32_t>(num_shards * cells);
  scratch->partial_source = scratch->arena.Carve<double>(num_shards * k_sources);
  scratch->partial_scalar = scratch->arena.Carve<double>(num_shards);
  scratch->loss = scratch->arena.Carve<double>(cells);
  scratch->count = scratch->arena.Carve<size_t>(cells);
}

/// Property -> weight-group mapping for the configured granularity.
/// Returns the group of each property; sets *num_groups.
std::vector<size_t> BuildPropertyGroups(const Schema& schema, WeightGranularity granularity,
                                        size_t* num_groups) {
  const size_t m_props = schema.num_properties();
  std::vector<size_t> group(m_props, 0);
  switch (granularity) {
    case WeightGranularity::kGlobal:
      *num_groups = 1;
      return group;
    case WeightGranularity::kPerType: {
      // Dense group ids over the types actually present, in first-seen order.
      std::vector<int> type_group(3, -1);
      size_t next = 0;
      for (size_t m = 0; m < m_props; ++m) {
        const size_t type = static_cast<size_t>(schema.property(m).type);
        if (type_group[type] < 0) type_group[type] = static_cast<int>(next++);
        group[m] = static_cast<size_t>(type_group[type]);
      }
      *num_groups = next;
      return group;
    }
    case WeightGranularity::kPerProperty:
      for (size_t m = 0; m < m_props; ++m) group[m] = m;
      *num_groups = m_props;
      return group;
  }
  *num_groups = 1;
  return group;
}

// --- CRH_HOT shard kernels ---------------------------------------------------

/// Truth update (Eq 3) of one entry, resolved through the span primitives
/// over the index's SoA lanes against caller-owned scratch. Bit-identical
/// to the allocating resolvers it replaced (same candidate order,
/// association order and tie-breaks); the label/numeric lane kernels are
/// in turn bit-identical to the Value-gathering forms they replaced (see
/// losses/resolvers.h). \p soft / \p num_labels may be null when no
/// property has the soft model active.
CRH_HOT void ResolveEntryTruth(const Dataset& data, const std::vector<PropertyType>& types,
                               const std::vector<char>& soft_active,
                               const std::vector<const std::vector<double>*>& weights_for,
                               const CrhOptions& options, size_t i, size_t m,
                               const ClaimSpan& span, EntryScratch& scratch, ValueTable* truths,
                               std::vector<std::vector<double>>* soft,
                               const std::vector<size_t>* num_labels) {
  if (options.supervision != nullptr) {
    const Value& label = options.supervision->Get(i, m);
    if (!label.is_missing()) {
      truths->Set(i, m, label);
      return;
    }
  }
  if (span.empty()) {
    truths->Set(i, m, Value::Missing());
    return;
  }
  const std::vector<double>& weights = *weights_for[m];
  double* claim_weights = scratch.claim_weights;
  for (size_t c = 0; c < span.size; ++c) claim_weights[c] = weights[span.sources[c]];

  if (types[m] == PropertyType::kText) {
    // Text truths: the claim minimizing the weighted total normalized
    // edit distance to all claims (the medoid induced by the text loss).
    const CategoryDict& dict = data.dict(m);
    EditDistanceScratch& edit = scratch.edit;
    truths->Set(i, m,
                Value::Categorical(WeightedMedoidLabelsSpan(
                    span.labels, claim_weights, span.size, scratch.resolver,
                    [&dict, &edit](CategoryId a, CategoryId b) {
                      return NormalizedEditDistanceSpan(dict.label(a), dict.label(b), edit);
                    })));
  } else if (types[m] == PropertyType::kCategorical) {
    if (soft_active[m]) {
      const size_t l_m = (*num_labels)[m];
      double* dist = (*soft)[m].data() + i * l_m;
      WeightedLabelDistributionSpan(span.labels, claim_weights, span.size, dist, l_m);
      truths->Set(i, m, Value::Categorical(static_cast<CategoryId>(ArgMaxSpan(dist, l_m))));
    } else {
      truths->Set(i, m, Value::Categorical(WeightedVoteLabelsSpan(span.labels, claim_weights,
                                                                  span.size, scratch.resolver)));
    }
  } else {
    double truth;
    if (options.continuous_model == ContinuousModel::kMedian) {
      truth = WeightedMedianSpan(span.numeric, claim_weights, span.size, scratch.resolver);
    } else {
      truth = WeightedMeanSpan(span.numeric, claim_weights, span.size);
      if (std::isnan(truth)) {
        // Zero total weight: null weights select the uniform median.
        truth = WeightedMedianSpan(span.numeric, nullptr, span.size, scratch.resolver);
      }
    }
    truths->Set(i, m, Value::Continuous(truth));
  }
}

/// Streams the per-claim losses of one entry into \p sink(c, source, loss)
/// — the shared body of the loss-matrix, grouped-objective and objective
/// kernels. The per-entry invariants (property type, truth value, entry
/// scale, truth label string, soft-distribution row) are hoisted out of
/// the claim loop, so each branch's inner loop streams the SoA lanes
/// (span.numeric / span.labels) branch-free; the continuous loops
/// auto-vectorize cleanly. The arithmetic per claim is unchanged from the
/// per-claim form (in particular the division by scale stays a division),
/// so results are bit-identical.
template <typename Sink>
CRH_HOT void AccumulateEntryLosses(const Dataset& data, const TruthView& view,
                                   const EntryStats& stats, ContinuousModel continuous_model,
                                   size_t i, size_t m, const ClaimSpan& span,
                                   EditDistanceScratch& edit, const Sink& sink) {
  const PropertyType type = data.schema().property(m).type;
  if (type == PropertyType::kText) {
    const CategoryDict& dict = data.dict(m);
    const std::string& truth_label = dict.label(view.truths->Get(i, m).category());
    for (size_t c = 0; c < span.size; ++c) {
      sink(c, span.sources[c],
           NormalizedEditDistanceSpan(truth_label, dict.label(span.labels[c]), edit));
    }
    return;
  }
  if (type == PropertyType::kCategorical) {
    if (view.soft != nullptr) {
      const size_t l_m = (*view.num_labels)[m];
      const double* dist = (*view.soft)[m].data() + i * l_m;
      for (size_t c = 0; c < span.size; ++c) {
        sink(c, span.sources[c], ProbVectorSquaredLoss(dist, l_m, span.labels[c]));
      }
      return;
    }
    const CategoryId truth_label = view.truths->Get(i, m).category();
    for (size_t c = 0; c < span.size; ++c) {
      sink(c, span.sources[c], span.labels[c] == truth_label ? 0.0 : 1.0);
    }
    return;
  }
  const double truth = view.truths->Get(i, m).continuous();
  const double scale = stats.scale_at(i, m);
  CRH_DCHECK_GT(scale, 0.0);
  if (continuous_model == ContinuousModel::kMedian) {
    for (size_t c = 0; c < span.size; ++c) {
      sink(c, span.sources[c], std::abs(truth - span.numeric[c]) / scale);
    }
    return;
  }
  for (size_t c = 0; c < span.size; ++c) {
    const double diff = truth - span.numeric[c];
    sink(c, span.sources[c], diff * diff / scale);
  }
}

}  // namespace

// --- Public shard API (see crh.h) --------------------------------------------

size_t SolverWorkspace::Prepare(const Dataset& data, const ClaimIndex& index) {
  EnsureSolverScratch(data, index, &impl_->scratch);
  return impl_->scratch.num_shards;
}

SolverWorkspace::Shard SolverWorkspace::shard(size_t shard) {
  SolverScratch& scratch = impl_->scratch;
  CRH_DCHECK_LT(shard, scratch.num_shards);
  return {&scratch.per_shard[shard], scratch.partial_loss + shard * scratch.cells,
          scratch.partial_count + shard * scratch.cells};
}

TruthDispatch MakeTruthDispatch(const Dataset& data,
                                const std::vector<std::vector<double>>& group_weights,
                                const std::vector<size_t>& property_group,
                                const CrhOptions& options) {
  const size_t m_props = data.num_properties();
  TruthDispatch dispatch;
  dispatch.types.resize(m_props);
  dispatch.soft_active.assign(m_props, 0);
  dispatch.weights_for.resize(m_props);
  for (size_t m = 0; m < m_props; ++m) {
    dispatch.types[m] = data.schema().property(m).type;
    dispatch.soft_active[m] = dispatch.types[m] == PropertyType::kCategorical &&
                              options.categorical_model == CategoricalModel::kSoftProbability;
    dispatch.weights_for[m] = &group_weights[property_group[m]];
  }
  return dispatch;
}

/// Eq 3 over one shard's contiguous entry range. The (i, m) coordinates
/// advance incrementally — no per-entry divide.
CRH_HOT void UpdateTruthsShard(const Dataset& data, const ClaimIndex& index,
                               const TruthDispatch& dispatch, const CrhOptions& options,
                               EntryRange range, size_t m_props, EntryScratch& scratch,
                               ValueTable* truths, std::vector<std::vector<double>>* soft,
                               const std::vector<size_t>* num_labels) {
  size_t i = range.begin / m_props;
  size_t m = range.begin % m_props;
  for (size_t e = range.begin; e < range.end; ++e) {
    ResolveEntryTruth(data, dispatch.types, dispatch.soft_active, dispatch.weights_for, options,
                      i, m, index.entry(e), scratch, truths, soft, num_labels);
    if (++m == m_props) {
      m = 0;
      ++i;
    }
  }
}

/// One shard of the normalized loss matrix: accumulates per-cell loss and
/// observation counts over the shard's claims into caller-owned slices
/// (zeroed here — the kernel owns its whole slice).
CRH_HOT void LossMatrixShard(const Dataset& data, const ClaimIndex& index,
                             const TruthView& view, const EntryStats& stats,
                             ContinuousModel continuous_model, EntryRange range,
                             size_t m_props, double* loss, uint32_t* count, size_t cells,
                             EntryScratch& scratch) {
  std::fill(loss, loss + cells, 0.0);
  std::fill(count, count + cells, 0u);
  size_t i = range.begin / m_props;
  size_t m = range.begin % m_props;
  for (size_t e = range.begin; e < range.end; ++e) {
    const ClaimSpan span = index.entry(e);
    if (!span.empty() && !view.truths->Get(i, m).is_missing()) {
      AccumulateEntryLosses(data, view, stats, continuous_model, i, m, span, scratch.edit,
                            [&](size_t, uint32_t src, double claim_loss) {
                              const size_t cell = src * m_props + m;
                              loss[cell] += claim_loss;
                              ++count[cell];
                            });
    }
    if (++m == m_props) {
      m = 0;
      ++i;
    }
  }
}

void NormalizeLossMatrix(const CrhOptions& options, size_t k_sources, size_t m_props,
                         const size_t* count, double* loss) {
  const size_t cells = k_sources * m_props;
  if (options.normalize_by_observation_count) {
    for (size_t cell = 0; cell < cells; ++cell) {
      if (count[cell] > 0) loss[cell] /= static_cast<double>(count[cell]);
    }
  }

  if (options.property_normalization != PropertyLossNormalization::kNone) {
    for (size_t m = 0; m < m_props; ++m) {
      double norm = 0.0;
      for (size_t k = 0; k < k_sources; ++k) {
        if (options.property_normalization == PropertyLossNormalization::kSum) {
          norm += loss[k * m_props + m];
        } else {
          norm = std::max(norm, loss[k * m_props + m]);
        }
      }
      if (norm > 0) {
        for (size_t k = 0; k < k_sources; ++k) loss[k * m_props + m] /= norm;
      }
    }
  }
}

std::vector<double> SourceLossTotals(const double* loss, size_t k_sources, size_t m_props) {
  std::vector<double> totals(k_sources, 0.0);
  for (size_t k = 0; k < k_sources; ++k) {
    for (size_t m = 0; m < m_props; ++m) totals[k] += loss[k * m_props + m];
  }
  return totals;
}

void MeanGroupWeights(const std::vector<std::vector<double>>& group_weights,
                      std::vector<double>* mean) {
  const size_t num_groups = group_weights.size();
  std::fill(mean->begin(), mean->end(), 0.0);
  for (size_t k = 0; k < mean->size(); ++k) {
    for (size_t g = 0; g < num_groups; ++g) (*mean)[k] += group_weights[g][k];
    (*mean)[k] /= static_cast<double>(num_groups);
  }
}

namespace {

/// One shard of the grouped (Eq 1, per-group weights) objective.
CRH_HOT double GroupedObjectiveShard(const Dataset& data, const ClaimIndex& index,
                                     const TruthView& view, const EntryStats& stats,
                                     ContinuousModel continuous_model,
                                     const std::vector<std::vector<double>>& group_weights,
                                     const std::vector<size_t>& property_group,
                                     EntryRange range, size_t m_props, EntryScratch& scratch) {
  double objective = 0.0;
  size_t i = range.begin / m_props;
  size_t m = range.begin % m_props;
  for (size_t e = range.begin; e < range.end; ++e) {
    const ClaimSpan span = index.entry(e);
    if (!span.empty() && !view.truths->Get(i, m).is_missing()) {
      const std::vector<double>& weights = group_weights[property_group[m]];
      AccumulateEntryLosses(data, view, stats, continuous_model, i, m, span, scratch.edit,
                            [&](size_t, uint32_t src, double claim_loss) {
                              objective += weights[src] * claim_loss;
                            });
    }
    if (++m == m_props) {
      m = 0;
      ++i;
    }
  }
  return objective;
}

/// One shard of the raw objective's per-source loss totals, written into a
/// caller-owned K-length slice.
CRH_HOT void ObjectiveShard(const Dataset& data, const ClaimIndex& index,
                            const TruthView& view, const EntryStats& stats,
                            ContinuousModel continuous_model, EntryRange range,
                            size_t m_props, double* totals, size_t k_sources,
                            EntryScratch& scratch) {
  std::fill(totals, totals + k_sources, 0.0);
  size_t i = range.begin / m_props;
  size_t m = range.begin % m_props;
  for (size_t e = range.begin; e < range.end; ++e) {
    const ClaimSpan span = index.entry(e);
    if (!span.empty() && !view.truths->Get(i, m).is_missing()) {
      AccumulateEntryLosses(
          data, view, stats, continuous_model, i, m, span, scratch.edit,
          [&](size_t, uint32_t src, double claim_loss) { totals[src] += claim_loss; });
    }
    if (++m == m_props) {
      m = 0;
      ++i;
    }
  }
}

// --- Orchestrators -----------------------------------------------------------
//
// Not CRH_HOT: they own the scratch, build the per-property dispatch
// tables, and run the kernels across the (possibly pooled) shard grid.

/// Updates the truth (and soft distribution) of every entry given per-group
/// source weights; supervised cells are clamped to their labels. Iterates
/// the claim index — O(claims), not O(K * N * M) — and shards the entry
/// space across the pool (every entry is independent, so no reduction).
void UpdateTruths(const Dataset& data, const ClaimIndex& index,
                  const std::vector<std::vector<double>>& group_weights,
                  const std::vector<size_t>& property_group, const CrhOptions& options,
                  ThreadPool* pool, SolverScratch& scratch, SolverState* state) {
  const size_t m_props = data.num_properties();
  const size_t num_entries = index.num_entries();
  const TruthDispatch dispatch = MakeTruthDispatch(data, group_weights, property_group, options);

  const size_t num_shards = scratch.num_shards;
  RunShards(num_shards, pool, [&](size_t shard) {
    UpdateTruthsShard(data, index, dispatch, options, ShardRange(num_entries, num_shards, shard),
                      m_props, scratch.per_shard[shard], &state->truths, &state->soft,
                      &state->num_labels);
  });
}

/// Computes the K x M matrix of per-source per-property losses with the
/// configured observation-count and per-property normalizations applied,
/// into scratch.loss (row-major K x M). Claim-major: one pass over the
/// index's present claims, sharded with flat per-shard partial slices
/// reduced in shard order.
void NormalizedLossMatrix(const Dataset& data, const ClaimIndex& index, const TruthView& view,
                          const EntryStats& stats, const CrhOptions& options,
                          ThreadPool* pool, SolverScratch& scratch) {
  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  const size_t num_entries = index.num_entries();
  const size_t num_shards = scratch.num_shards;
  const size_t cells = k_sources * m_props;

  RunShards(num_shards, pool, [&](size_t shard) {
    LossMatrixShard(data, index, view, stats, options.continuous_model,
                    ShardRange(num_entries, num_shards, shard), m_props,
                    scratch.partial_loss + shard * cells,
                    scratch.partial_count + shard * cells, cells,
                    scratch.per_shard[shard]);
  });

  // Ordered reduction: shard partials combine in shard order.
  double* loss = scratch.loss;
  size_t* count = scratch.count;
  std::fill(loss, loss + cells, 0.0);
  std::fill(count, count + cells, size_t{0});
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const double* shard_loss = scratch.partial_loss + shard * cells;
    const uint32_t* shard_count = scratch.partial_count + shard * cells;
    for (size_t cell = 0; cell < cells; ++cell) {
      loss[cell] += shard_loss[cell];
      count[cell] += shard_count[cell];
    }
  }
  NormalizeLossMatrix(options, k_sources, m_props, count, loss);
}

/// Sums the normalized loss matrix over all properties (the global
/// per-source deviations feeding the weight update).
std::vector<double> AggregateSourceLosses(const Dataset& data, const ClaimIndex& index,
                                          const TruthView& view, const EntryStats& stats,
                                          const CrhOptions& options, ThreadPool* pool,
                                          SolverScratch& scratch) {
  NormalizedLossMatrix(data, index, view, stats, options, pool, scratch);
  return SourceLossTotals(scratch.loss, data.num_sources(), data.num_properties());
}

/// Eq-1 objective with per-group weights: sum over claims of
/// w_{group(m), k} * ClaimLoss, evaluated with the hard categorical model.
/// This is exactly the functional the truth update minimizes entry by entry
/// given the weights, so it backs the truth-step descent certificate.
double GroupedObjective(const Dataset& data, const ClaimIndex& index, const ValueTable& truths,
                        const std::vector<std::vector<double>>& group_weights,
                        const std::vector<size_t>& property_group, const EntryStats& stats,
                        const CrhOptions& options, ThreadPool* pool, SolverScratch& scratch) {
  const TruthView view{&truths, nullptr, nullptr};
  const size_t m_props = data.num_properties();
  const size_t num_entries = index.num_entries();
  const size_t num_shards = scratch.num_shards;

  RunShards(num_shards, pool, [&](size_t shard) {
    scratch.partial_scalar[shard] = GroupedObjectiveShard(
        data, index, view, stats, options.continuous_model, group_weights, property_group,
        ShardRange(num_entries, num_shards, shard), m_props, scratch.per_shard[shard]);
  });

  double objective = 0.0;
  for (size_t shard = 0; shard < num_shards; ++shard) objective += scratch.partial_scalar[shard];
  return objective;
}

/// Raw Eq-1 objective over a prebuilt index: per-source loss totals
/// accumulated claim-major (sharded, ordered reduction), then the weighted
/// sum over sources.
double CrhObjectiveOverIndex(const Dataset& data, const ClaimIndex& index,
                             const ValueTable& truths, const std::vector<double>& weights,
                             const EntryStats& stats, const CrhOptions& options,
                             ThreadPool* pool, SolverScratch& scratch) {
  // The raw objective uses hard truths; under the soft model this is the
  // 0-1 surrogate evaluated at the mode, which is what the history reports.
  const TruthView view{&truths, nullptr, nullptr};
  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  const size_t num_entries = index.num_entries();
  const size_t num_shards = scratch.num_shards;

  RunShards(num_shards, pool, [&](size_t shard) {
    ObjectiveShard(data, index, view, stats, options.continuous_model,
                   ShardRange(num_entries, num_shards, shard), m_props,
                   scratch.partial_source + shard * k_sources, k_sources,
                   scratch.per_shard[shard]);
  });

  double objective = 0.0;
  for (size_t k = 0; k < k_sources; ++k) {
    double total = 0.0;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      total += scratch.partial_source[shard * k_sources + k];
    }
    objective += weights[k] * total;
  }
  return objective;
}

/// Transient pool for the convenience entry points that take no pool:
/// null (sequential) unless the options ask for more than one thread.
std::unique_ptr<ThreadPool> MakePoolForOptions(const CrhOptions& options) {
  if (ThreadPool::ResolveNumThreads(options.num_threads) <= 1) return nullptr;
  return std::make_unique<ThreadPool>(options.num_threads);
}

ValueTable ComputeTruthsImpl(const Dataset& data, const ClaimIndex& index,
                             const std::vector<double>& weights, const CrhOptions& options,
                             ThreadPool* pool, SolverScratch& scratch) {
  SolverState state;
  state.truths = ValueTable(data.num_objects(), data.num_properties());
  state.num_labels.assign(data.num_properties(), 0);
  state.soft.assign(data.num_properties(), {});
  CrhOptions hard = options;
  hard.categorical_model = CategoricalModel::kVoting;
  const std::vector<size_t> groups(data.num_properties(), 0);
  EnsureSolverScratch(data, index, &scratch);
  UpdateTruths(data, index, {weights}, groups, hard, pool, scratch, &state);
  return std::move(state.truths);
}

}  // namespace

ValueTable ComputeTruthsGivenWeights(const Dataset& data, const ClaimIndex& index,
                                     const std::vector<double>& weights,
                                     const CrhOptions& options, ThreadPool* pool) {
  SolverScratch scratch;
  return ComputeTruthsImpl(data, index, weights, options, pool, scratch);
}

ValueTable ComputeTruthsGivenWeights(const Dataset& data, const ClaimIndex& index,
                                     const std::vector<double>& weights,
                                     const CrhOptions& options, ThreadPool* pool,
                                     SolverWorkspace& workspace) {
  return ComputeTruthsImpl(data, index, weights, options, pool, workspace.impl().scratch);
}

ValueTable ComputeTruthsGivenWeights(const Dataset& data, const std::vector<double>& weights,
                                     const CrhOptions& options) {
  const ClaimIndex index = ClaimIndex::Build(data);
  const std::unique_ptr<ThreadPool> pool = MakePoolForOptions(options);
  return ComputeTruthsGivenWeights(data, index, weights, options, pool.get());
}

std::vector<double> ComputeSourceDeviations(const Dataset& data, const ClaimIndex& index,
                                            const ValueTable& truths, const EntryStats& stats,
                                            const CrhOptions& options, ThreadPool* pool) {
  const TruthView view{&truths, nullptr, nullptr};
  SolverScratch scratch;
  EnsureSolverScratch(data, index, &scratch);
  return AggregateSourceLosses(data, index, view, stats, options, pool, scratch);
}

std::vector<double> ComputeSourceDeviations(const Dataset& data, const ClaimIndex& index,
                                            const ValueTable& truths, const EntryStats& stats,
                                            const CrhOptions& options, ThreadPool* pool,
                                            SolverWorkspace& workspace) {
  const TruthView view{&truths, nullptr, nullptr};
  SolverScratch& scratch = workspace.impl().scratch;
  EnsureSolverScratch(data, index, &scratch);
  return AggregateSourceLosses(data, index, view, stats, options, pool, scratch);
}

std::vector<double> ComputeSourceDeviations(const Dataset& data, const ValueTable& truths,
                                            const EntryStats& stats, const CrhOptions& options) {
  const ClaimIndex index = ClaimIndex::Build(data);
  const std::unique_ptr<ThreadPool> pool = MakePoolForOptions(options);
  return ComputeSourceDeviations(data, index, truths, stats, options, pool.get());
}

double CrhObjective(const Dataset& data, const ValueTable& truths,
                    const std::vector<double>& weights, const EntryStats& stats,
                    const CrhOptions& options) {
  const ClaimIndex index = ClaimIndex::Build(data);
  const std::unique_ptr<ThreadPool> pool = MakePoolForOptions(options);
  SolverScratch scratch;
  EnsureSolverScratch(data, index, &scratch);
  return CrhObjectiveOverIndex(data, index, truths, weights, stats, options, pool.get(),
                               scratch);
}

Result<CrhResult> RunCrh(const Dataset& data, const CrhOptions& options) {
  if (data.num_sources() == 0) {
    return Status::InvalidArgument("dataset has no sources");
  }
  if (data.num_entries() == 0) {
    return Status::InvalidArgument("dataset has no entries");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.supervision != nullptr &&
      (options.supervision->num_objects() != data.num_objects() ||
       options.supervision->num_properties() != data.num_properties())) {
    return Status::InvalidArgument("supervision table shape does not match dataset");
  }

  const size_t k_sources = data.num_sources();
  const size_t m_props = data.num_properties();
  const EntryStats stats = ComputeEntryStats(data);
  // Built once per run: every per-iteration pass below iterates present
  // claims only (the paper's per-iteration bound), never the dense grid.
  const ClaimIndex index = ClaimIndex::Build(data);
  const std::unique_ptr<ThreadPool> pool_storage = MakePoolForOptions(options);
  ThreadPool* const pool = pool_storage.get();

  // All per-iteration buffers live here, allocated once; the iteration
  // loop itself performs no scratch allocation.
  SolverScratch scratch;
  EnsureSolverScratch(data, index, &scratch);

  // Observer priority: an explicitly configured observer wins; under a
  // CRH_VERIFY build every unobserved run gets the full invariant bundle.
  IterationObserver* observer = options.observer;
#ifdef CRH_VERIFY_BUILD
  InvariantVerifier default_verifier;
  if (observer == nullptr) observer = &default_verifier;
#endif

  size_t num_groups = 1;
  const std::vector<size_t> property_group =
      BuildPropertyGroups(data.schema(), options.weight_granularity, &num_groups);

  SolverState state;
  state.truths = ValueTable(data.num_objects(), data.num_properties());
  state.num_labels.assign(data.num_properties(), 0);
  state.soft.assign(data.num_properties(), {});
  const bool soft_model = options.categorical_model == CategoricalModel::kSoftProbability;
  for (size_t m = 0; m < data.num_properties(); ++m) {
    if (data.schema().is_categorical(m)) {
      // Every interned label is a possible truth; guarantee at least one
      // slot so distributions stay well-formed on empty dictionaries.
      state.num_labels[m] = std::max<size_t>(data.dict(m).size(), 1);
      if (soft_model) {
        state.soft[m].assign(data.num_objects() * state.num_labels[m], 0.0);
      }
    }
  }
  // The weight step scores claims against the solver's live state (soft
  // distributions when the soft model is active); the objective history and
  // the descent certificates use the hard view of the same truths.
  const TruthView state_view{&state.truths, soft_model ? &state.soft : nullptr,
                             soft_model ? &state.num_labels : nullptr};

  // Step 0: initialize truths with uniform weights (Voting / Median / Mean).
  std::vector<std::vector<double>> group_weights(num_groups,
                                                 std::vector<double>(k_sources, 1.0));
  UpdateTruths(data, index, group_weights, property_group, options, pool, scratch, &state);

  CrhResult result;
  double prev_objective = std::numeric_limits<double>::infinity();
  const bool observing = observer != nullptr;
  std::vector<double> totals(k_sources, 0.0);
  std::vector<double> mean_weights(k_sources, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Step I: source weight update (Eq 2 / Eq 5), one update per group.
    // When observed, the update's descent certificate (the exact functional
    // it minimizes, before vs after) is accumulated across groups.
    double weight_step_before = std::numeric_limits<double>::quiet_NaN();
    double weight_step_after = std::numeric_limits<double>::quiet_NaN();
    if (observing) weight_step_before = weight_step_after = 0.0;
    NormalizedLossMatrix(data, index, state_view, stats, options, pool, scratch);
    for (size_t g = 0; g < num_groups; ++g) {
      std::fill(totals.begin(), totals.end(), 0.0);
      for (size_t k = 0; k < k_sources; ++k) {
        for (size_t m = 0; m < m_props; ++m) {
          if (property_group[m] == g) totals[k] += scratch.loss[k * m_props + m];
        }
      }
      if (observing) {
        weight_step_before += WeightStepObjective(group_weights[g], totals, options.weight_scheme);
      }
      auto weights_result = ComputeSourceWeights(totals, options.weight_scheme);
      if (!weights_result.ok()) return weights_result.status();
      group_weights[g] = std::move(weights_result).ValueOrDie();
      CRH_VERIFY_OR_RETURN(group_weights[g].size() == k_sources,
                           "weight scheme returned a wrong-sized weight vector");
      if (observing) {
        weight_step_after += WeightStepObjective(group_weights[g], totals, options.weight_scheme);
      }
    }

    // Step II: truth update (Eq 3). The observed snapshot of the previous
    // truths backs the truth-step certificate.
    ValueTable truths_before_update;
    if (observing) truths_before_update = state.truths;
    UpdateTruths(data, index, group_weights, property_group, options, pool, scratch, &state);

    // Convergence is judged on the mean-across-groups weights via the raw
    // objective (Eq 1).
    MeanGroupWeights(group_weights, &mean_weights);
    result.iterations = iter + 1;
    const double objective = CrhObjectiveOverIndex(data, index, state.truths, mean_weights,
                                                   stats, options, pool, scratch);
    result.objective_history.push_back(objective);
    if (observing) {
      IterationSnapshot snapshot;
      snapshot.engine = "crh";
      snapshot.iteration = iter + 1;
      snapshot.data = &data;
      snapshot.truths = &state.truths;
      snapshot.weights = &mean_weights;
      snapshot.group_weights = &group_weights;
      snapshot.weight_scheme = &options.weight_scheme;
      snapshot.supervision = options.supervision;
      snapshot.objective = objective;
      snapshot.weight_step_before = weight_step_before;
      snapshot.weight_step_after = weight_step_after;
      snapshot.truth_step_before = GroupedObjective(data, index, truths_before_update,
                                                    group_weights, property_group, stats,
                                                    options, pool, scratch);
      snapshot.truth_step_after = GroupedObjective(data, index, state.truths, group_weights,
                                                   property_group, stats, options, pool,
                                                   scratch);
      CRH_RETURN_NOT_OK(observer->OnIteration(snapshot));
    }
    const double denom = std::max(std::abs(prev_objective), 1.0);
    if (std::isfinite(prev_objective) &&
        std::abs(prev_objective - objective) / denom < options.convergence_tolerance) {
      result.converged = true;
      break;
    }
    prev_objective = objective;
  }

  result.truths = std::move(state.truths);
  result.property_group = property_group;
  result.source_weights.assign(k_sources, 0.0);
  MeanGroupWeights(group_weights, &result.source_weights);
  if (options.weight_granularity != WeightGranularity::kGlobal) {
    // fine_grained_weights is K x G.
    result.fine_grained_weights.assign(k_sources, std::vector<double>(num_groups, 0.0));
    for (size_t k = 0; k < k_sources; ++k) {
      for (size_t g = 0; g < num_groups; ++g) {
        result.fine_grained_weights[k][g] = group_weights[g][k];
      }
    }
  }
  if (soft_model) {
    for (size_t m = 0; m < data.num_properties(); ++m) {
      if (!data.schema().is_categorical(m)) continue;
      SoftDistributions block;
      block.property = m;
      block.num_labels = state.num_labels[m];
      block.probabilities = std::move(state.soft[m]);
      result.soft_distributions.push_back(std::move(block));
    }
  }
  return result;
}

}  // namespace crh
