#include "stream/incremental_crh.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "analysis/invariants.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "data/claim_index.h"
#include "data/stats.h"
#include "weights/weight_scheme.h"

namespace crh {

namespace {

/// True for a claim the quarantine would exclude: a non-finite continuous
/// reading, a label outside the property's dictionary, or a cell whose
/// kind contradicts the schema. Missing cells are never quarantinable.
bool IsQuarantinableClaim(const Dataset& data, size_t m, const Value& v) {
  if (v.is_missing()) return false;
  if (data.schema().is_continuous(m)) {
    return !v.is_continuous() || !std::isfinite(v.continuous());
  }
  return !v.is_categorical() || v.category() < 0 ||
         static_cast<size_t>(v.category()) >= data.dict(m).size();
}

}  // namespace

const Dataset& QuarantineClaims(const Dataset& chunk, Dataset* scratch,
                                std::vector<uint64_t>* quarantined_per_source) {
  // The clean copy is only materialized when something is actually bad,
  // so well-formed streams pay one read-only scan.
  bool any_bad = false;
  for (size_t k = 0; k < chunk.num_sources() && !any_bad; ++k) {
    for (size_t i = 0; i < chunk.num_objects() && !any_bad; ++i) {
      for (size_t m = 0; m < chunk.num_properties() && !any_bad; ++m) {
        any_bad = IsQuarantinableClaim(chunk, m, chunk.observations(k).Get(i, m));
      }
    }
  }
  if (!any_bad) return chunk;
  *scratch = chunk;
  for (size_t k = 0; k < chunk.num_sources(); ++k) {
    for (size_t i = 0; i < chunk.num_objects(); ++i) {
      for (size_t m = 0; m < chunk.num_properties(); ++m) {
        if (IsQuarantinableClaim(chunk, m, chunk.observations(k).Get(i, m))) {
          scratch->mutable_observations(k).Clear(i, m);
          if (quarantined_per_source != nullptr) ++(*quarantined_per_source)[k];
        }
      }
    }
  }
  return *scratch;
}

IncrementalCrhProcessor::IncrementalCrhProcessor(size_t num_sources,
                                                 IncrementalCrhOptions options)
    : options_(std::move(options)),
      weights_(num_sources, 1.0),
      accumulated_(num_sources, 0.0),
      quarantined_(num_sources, 0) {
  if (ThreadPool::ResolveNumThreads(options_.base.num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.base.num_threads);
  }
}

IncrementalCrhProcessor::~IncrementalCrhProcessor() = default;

uint64_t IncrementalCrhProcessor::total_quarantined() const {
  uint64_t total = 0;
  for (uint64_t q : quarantined_) total += q;
  return total;
}

IncrementalCrhState IncrementalCrhProcessor::ExportState() const {
  IncrementalCrhState state;
  state.weights = weights_;
  state.accumulated = accumulated_;
  state.chunks_processed = chunks_processed_;
  state.quarantined_per_source = quarantined_;
  return state;
}

Status IncrementalCrhProcessor::ImportState(const IncrementalCrhState& state) {
  if (state.weights.size() != weights_.size() ||
      state.accumulated.size() != weights_.size() ||
      state.quarantined_per_source.size() != weights_.size()) {
    return Status::InvalidArgument(
        "checkpoint state source count does not match the processor");
  }
  for (size_t k = 0; k < state.weights.size(); ++k) {
    if (!std::isfinite(state.weights[k]) || state.weights[k] < 0) {
      return Status::InvalidArgument("checkpoint state holds an invalid source weight");
    }
    if (!std::isfinite(state.accumulated[k]) || state.accumulated[k] < 0) {
      return Status::InvalidArgument(
          "checkpoint state holds an invalid accumulated deviation");
    }
  }
  weights_ = state.weights;
  accumulated_ = state.accumulated;
  quarantined_ = state.quarantined_per_source;
  chunks_processed_ = static_cast<size_t>(state.chunks_processed);
  return Status::OK();
}

Result<ValueTable> IncrementalCrhProcessor::ProcessChunk(const Dataset& chunk) {
  if (chunk.num_sources() != weights_.size()) {
    return Status::InvalidArgument("chunk source count does not match processor");
  }
  CRH_VERIFY_OR_RETURN(options_.base.supervision == nullptr ||
                           (options_.base.supervision->num_objects() == chunk.num_objects() &&
                            options_.base.supervision->num_properties() ==
                                chunk.num_properties()),
                       "supervision table shape does not match the chunk");
  // Quarantine pass: exclude malformed claims rather than aborting the
  // stream.
  const Dataset* active = &chunk;
  Dataset sanitized;
  if (options_.quarantine_bad_claims) {
    active = &QuarantineClaims(chunk, &sanitized, &quarantined_);
  } else {
    // Without quarantine a malformed claim must fail the chunk loudly here:
    // a NaN that reaches the truth kernels poisons the weighted medians and
    // accumulators instead of surfacing as an error.
    for (size_t k = 0; k < chunk.num_sources(); ++k) {
      for (size_t i = 0; i < chunk.num_objects(); ++i) {
        for (size_t m = 0; m < chunk.num_properties(); ++m) {
          if (IsQuarantinableClaim(chunk, m, chunk.observations(k).Get(i, m))) {
            return Status::InvalidArgument(
                "malformed claim (non-finite or out-of-dictionary) from source " +
                std::to_string(k) + " at object " + std::to_string(i) +
                ", property " + std::to_string(m) +
                "; enable quarantine_bad_claims to exclude it instead");
          }
        }
      }
    }
  }
  // One claim index per chunk, shared by both passes below.
  const ClaimIndex index = ClaimIndex::Build(*active);

  // Step (i): truths for the current chunk from the historical weights.
  ValueTable truths =
      ComputeTruthsGivenWeights(*active, index, weights_, options_.base, pool_.get());

  // Step (ii): decay the accumulated deviations and fold in this chunk's.
  const EntryStats stats = ComputeEntryStats(*active);
  const std::vector<double> chunk_dev =
      ComputeSourceDeviations(*active, index, truths, stats, options_.base, pool_.get());
  for (size_t k = 0; k < weights_.size(); ++k) {
    CRH_VERIFY_OR_RETURN(std::isfinite(chunk_dev[k]) && chunk_dev[k] >= 0,
                         "chunk deviation must be finite and non-negative");
    accumulated_[k] = accumulated_[k] * options_.decay + chunk_dev[k];
  }
  IterationObserver* observer = options_.base.observer;
#ifdef CRH_VERIFY_BUILD
  InvariantVerifier default_verifier;
  if (observer == nullptr) observer = &default_verifier;
#endif
  // Descent certificate of the weight update on the accumulated deviations:
  // the previous weights (all-ones on the first chunk) versus the updated
  // ones, on the functional the scheme minimizes.
  double weight_step_before = std::numeric_limits<double>::quiet_NaN();
  double weight_step_after = std::numeric_limits<double>::quiet_NaN();
  if (observer != nullptr) {
    weight_step_before = WeightStepObjective(weights_, accumulated_, options_.base.weight_scheme);
  }
  auto weights = ComputeSourceWeights(accumulated_, options_.base.weight_scheme);
  if (!weights.ok()) return weights.status();
  weights_ = std::move(weights).ValueOrDie();
  ++chunks_processed_;

  if (observer != nullptr) {
    weight_step_after = WeightStepObjective(weights_, accumulated_, options_.base.weight_scheme);
  }
  if (observer != nullptr) {
    IterationSnapshot snapshot;
    snapshot.engine = "icrh";
    snapshot.iteration = static_cast<int>(chunks_processed_);
    snapshot.data = &chunk;
    snapshot.truths = &truths;
    snapshot.weights = &weights_;
    snapshot.weight_scheme = &options_.base.weight_scheme;
    snapshot.supervision = options_.base.supervision;
    // I-CRH is a single pass; there is no objective sequence to check, and
    // each chunk's truths are computed fresh (no previous truths on the
    // same data), so only the weight step carries a certificate.
    snapshot.objective = std::numeric_limits<double>::quiet_NaN();
    snapshot.weight_step_before = weight_step_before;
    snapshot.weight_step_after = weight_step_after;
    CRH_RETURN_NOT_OK(observer->OnIteration(snapshot));
  }
  return truths;
}

// RunIncrementalCrh is defined in stream/checkpoint.cc: it shares one chunk
// loop with RunIncrementalCrhResilient so the two are bit-identical.

}  // namespace crh
