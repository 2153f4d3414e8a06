#ifndef CRH_STREAM_INCREMENTAL_CRH_H_
#define CRH_STREAM_INCREMENTAL_CRH_H_

/// \file incremental_crh.h
/// Incremental CRH (Algorithm 2 of the paper) for streaming data.
///
/// Data arrives in sequential chunks. For each chunk, I-CRH (i) computes
/// truths from the source weights learned on past data (one truth pass, no
/// inner iteration), then (ii) folds the chunk's per-source deviations into
/// exponentially decayed accumulators and refreshes the weights:
///
///   a_k <- alpha * a_k + sum_{entries in chunk} d_m(v*, v_k)
///   w   <- WeightScheme(a)
///
/// A smaller decay rate alpha forgets the past faster. One pass over the
/// data, so it is several times faster than batch CRH at slightly lower
/// accuracy (Table 5).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/crh.h"
#include "data/dataset.h"
#include "stream/chunks.h"

namespace crh {

/// How the streaming engine (stream/stream_engine.h) maintains the fused
/// truth table as chunks arrive.
enum class DeltaSolveMode {
  /// Legacy patchwork semantics (the default): each chunk's truths —
  /// computed from the weights in force *before* that chunk's weight
  /// refresh — are scattered into the fused table and never revisited.
  kOff,
  /// Maintain the invariant `truths == truth-update(all claims so far,
  /// current weights)` with a full truth pass over the cumulative claim
  /// index after every chunk's weight refresh.
  kFull,
};

/// Configuration for incremental CRH.
struct IncrementalCrhOptions {
  /// Loss models, weight scheme and normalizations (max_iterations and the
  /// convergence tolerance are ignored: I-CRH runs one pass per chunk).
  CrhOptions base;
  /// Decay rate alpha in [0, 1]: the weight of past deviations when a new
  /// chunk arrives. 0 forgets the past entirely, 1 never discounts it.
  double decay = 0.5;
  /// Number of consecutive timestamps per chunk (the time window).
  int64_t window_size = 1;
  /// Graceful degradation for dirty feeds: instead of aborting the stream,
  /// ProcessChunk excludes malformed claims — non-finite continuous values,
  /// categorical/text labels outside the property's dictionary, and cells
  /// whose kind contradicts the schema — and counts them per source (see
  /// quarantined_per_source()). The retained claims are processed exactly
  /// as if the input had been pre-cleaned, so results on the clean subset
  /// are bit-identical either way.
  bool quarantine_bad_claims = false;
  /// How the streaming drivers maintain the fused truth table. kFull keeps
  /// `truths == truth-update(all claims so far, current weights)` — a
  /// stronger (and different) semantics than the legacy per-chunk
  /// patchwork — and requires base.supervision == nullptr (the supervision
  /// clamp is chunk-shaped, the cumulative re-solve runs in the parent
  /// entry space). Source weights, accumulators and quarantine counts are
  /// byte-identical across both modes; only the truth table differs.
  /// Ignored by ProcessChunk itself (the driver owns the fused table).
  DeltaSolveMode delta_solve = DeltaSolveMode::kOff;
};

/// The complete learned state of an IncrementalCrhProcessor, as captured by
/// ExportState() and restored by ImportState(). This is the unit of
/// persistence for crash recovery (stream/checkpoint.h): everything
/// Algorithm 2 carries between chunks lives here.
struct IncrementalCrhState {
  /// Source weights w_k.
  std::vector<double> weights;
  /// Decayed accumulated deviations a_k.
  std::vector<double> accumulated;
  /// Chunks folded into the accumulators so far.
  uint64_t chunks_processed = 0;
  /// Claims quarantined per source so far (all zeros unless
  /// quarantine_bad_claims is on).
  std::vector<uint64_t> quarantined_per_source;
};

/// Streaming state machine: feed chunks as they arrive.
///
///   IncrementalCrhProcessor proc(num_sources, options);
///   for each arriving chunk c:  auto truths = proc.ProcessChunk(c.data);
class IncrementalCrhProcessor {
 public:
  IncrementalCrhProcessor(size_t num_sources, IncrementalCrhOptions options);
  ~IncrementalCrhProcessor();

  /// Processes one chunk: returns its truth table and updates the source
  /// weights from the decayed accumulated deviations. The chunk's claim
  /// index is built once and shared by the truth and deviation passes, both
  /// of which run on the processor's pool when base.num_threads asks for
  /// more than one worker.
  [[nodiscard]] Result<ValueTable> ProcessChunk(const Dataset& chunk);

  /// Current source weights (w_k = 1 before any chunk arrives).
  const std::vector<double>& source_weights() const { return weights_; }

  /// Decayed accumulated deviation per source (a_k in Algorithm 2).
  const std::vector<double>& accumulated_deviations() const { return accumulated_; }

  /// Number of chunks processed.
  size_t chunks_processed() const { return chunks_processed_; }

  /// Claims excluded per source under quarantine_bad_claims (zeros otherwise).
  const std::vector<uint64_t>& quarantined_per_source() const { return quarantined_; }

  /// Total claims excluded across all sources.
  uint64_t total_quarantined() const;

  /// The processor's pool (null when base.num_threads resolves to a single
  /// worker). The streaming engine runs its cumulative re-solve on it
  /// between chunks, so one stream owns one pool.
  ThreadPool* pool() const { return pool_.get(); }

  /// Snapshots the learned state for persistence (stream/checkpoint.h).
  IncrementalCrhState ExportState() const;

  /// Restores a snapshot taken by ExportState. Rejects states whose source
  /// count does not match this processor or whose numbers are not finite
  /// and non-negative; on error the processor is left unchanged. A restored
  /// processor continues the stream bit-identically to one that never
  /// stopped.
  [[nodiscard]] Status ImportState(const IncrementalCrhState& state);

 private:
  IncrementalCrhOptions options_;
  std::vector<double> weights_;
  std::vector<double> accumulated_;
  std::vector<uint64_t> quarantined_;
  /// Shared executor for every chunk (null when base.num_threads resolves
  /// to a single worker); persists across ProcessChunk calls so the stream
  /// does not pay thread startup per chunk.
  std::unique_ptr<ThreadPool> pool_;
  size_t chunks_processed_ = 0;
};

/// Result of running I-CRH over a whole timestamped dataset.
struct IncrementalCrhResult {
  /// Truths assembled back into the parent dataset's N x M layout.
  ValueTable truths;
  /// Source weights after the final chunk.
  std::vector<double> source_weights;
  /// Decayed accumulated deviations a_k after the final chunk.
  std::vector<double> accumulated_deviations;
  /// Source weights after each chunk (Fig 4a), one row per chunk.
  std::vector<std::vector<double>> weight_history;
  /// Window start timestamp of each chunk.
  std::vector<int64_t> chunk_starts;
  /// Claims quarantined per source (quarantine_bad_claims only).
  std::vector<uint64_t> quarantined_per_source;
  /// Chunks skipped because a checkpoint already covered them (resume runs
  /// through RunIncrementalCrhResilient; always 0 otherwise).
  uint64_t chunks_resumed = 0;
  /// Checkpoints written during the run (resilient driver only).
  uint64_t checkpoints_written = 0;
  /// True when resume had to fall back past a corrupt newest checkpoint
  /// generation to an older good one.
  bool resumed_from_fallback = false;
};

/// The claims of \p chunk that I-CRH learns from under
/// quarantine_bad_claims: \p chunk itself when no claim is quarantinable
/// (a non-finite continuous reading, a label outside the property's
/// dictionary, or a cell whose kind contradicts the schema), otherwise a
/// copy in \p scratch with every such claim cleared and, when
/// \p quarantined_per_source is non-null, counted per source. The processor
/// and the streaming engine's cumulative claim index both filter through
/// this one function, so the index holds exactly the claims the weights
/// were learned from.
const Dataset& QuarantineClaims(const Dataset& chunk, Dataset* scratch,
                                std::vector<uint64_t>* quarantined_per_source);

/// Convenience driver: splits \p data by the configured window and streams
/// the chunks through an IncrementalCrhProcessor in time order. Equivalent
/// to RunIncrementalCrhResilient (stream/checkpoint.h) with checkpointing
/// disabled; both share one chunk loop, so their results are bit-identical.
[[nodiscard]]
Result<IncrementalCrhResult> RunIncrementalCrh(const Dataset& data,
                                               const IncrementalCrhOptions& options = {});

}  // namespace crh

#endif  // CRH_STREAM_INCREMENTAL_CRH_H_
