#ifndef CRH_STREAM_STREAM_ENGINE_H_
#define CRH_STREAM_STREAM_ENGINE_H_

/// \file stream_engine.h
/// Chunk-at-a-time I-CRH engine: the resident core behind both the batch
/// streaming drivers and the `crh_serve` daemon.
///
/// RunIncrementalCrhResilient used to own the whole chunk loop. Extracting
/// it into an engine whose unit of work is "apply one chunk" lets a server
/// feed chunks as they arrive on a socket while the batch driver replays a
/// pre-split dataset — both through the *same* code path, so a served
/// stream and a batch run over the same claims produce bit-identical
/// truths and weights by construction. The serving chaos suite leans on
/// exactly that: it compares a SIGKILLed-and-resumed server against an
/// uninterrupted batch run byte for byte.
///
/// Replay contract: after Open() with resume, chunks_resumed() reports how
/// many chunks the restored checkpoint already covers. Callers must still
/// submit those chunks, in order, through ApplyChunk(): the engine absorbs
/// them as cheap replays — cumulatively re-solved (kFull) runs re-index
/// their claims, nothing is solved, no fail points fire, no checkpoints
/// are written.
/// This keeps resume purely sequential for at-least-once transports: the
/// batch driver just iterates from chunk 0, and the server acks replayed
/// sequence numbers while clients re-send from the start of the stream.
///
/// The engine is not thread-safe; the server serializes all calls on its
/// ingest thread and publishes immutable snapshots for readers.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/crh.h"
#include "data/claim_index.h"
#include "data/table.h"
#include "stream/checkpoint.h"
#include "stream/chunks.h"
#include "stream/incremental_crh.h"

namespace crh {

/// The resident streaming solver. Owns the I-CRH processor, the fused truth
/// table, the cumulative claim index of kFull runs, and the checkpoint
/// manager; one ApplyChunk() call performs exactly one step of the loop the
/// resilient batch driver used to run inline.
class StreamEngine {
 public:
  /// Validates the options, builds the processor (and, under kFull, the
  /// empty cumulative claim index), and — when `resilience.resume` is set —
  /// restores the newest compatible checkpoint. A missing checkpoint is a
  /// cold start, not an error. `parent` must outlive the engine: it is the
  /// entry space truths are maintained in, and chunks submitted later must
  /// reference its object indices via DataChunk::parent_object.
  [[nodiscard]] static Result<std::unique_ptr<StreamEngine>> Open(
      const Dataset& parent, const IncrementalCrhOptions& options,
      const StreamResilienceOptions& resilience);

  /// Chunks covered so far: replayed (checkpoint-restored) plus freshly
  /// applied. Equals the sequence number of the next chunk expected.
  uint64_t chunks_applied() const { return applied_; }

  /// Chunks the checkpoint restored at Open() time (0 on a cold start).
  uint64_t chunks_resumed() const { return resumed_; }

  /// True when resume had to fall back past a corrupt newest generation.
  bool resumed_from_fallback() const { return resumed_from_fallback_; }

  /// Checkpoints written by this engine instance.
  uint64_t checkpoints_written() const { return checkpoints_written_; }

  /// chunks_applied() at the last successful checkpoint; equals
  /// chunks_resumed() until the first post-resume checkpoint lands.
  uint64_t last_checkpoint_chunks() const { return last_checkpoint_chunks_; }

  /// Applies the next chunk in sequence. Chunks below chunks_resumed() are
  /// replays (claims re-indexed for kFull runs, nothing solved); beyond it
  /// the chunk runs one full I-CRH step — truth pass, deviation
  /// accumulation, weight refresh, kFull's cumulative re-solve — then a
  /// checkpoint when the cadence (checkpoint_every) or `force_checkpoint`
  /// says so. The fail-point site "stream.process_chunk" fires once per
  /// non-replay chunk before it is processed.
  [[nodiscard]] Status ApplyChunk(const DataChunk& chunk, bool force_checkpoint);

  /// Writes a checkpoint of the current state regardless of cadence; the
  /// server's graceful drain uses this for its final checkpoint. No-op
  /// (OK) when checkpointing is disabled.
  [[nodiscard]] Status WriteCheckpoint();

  // -- Snapshot accessors (the server's epoch publication reads these). --
  const ValueTable& truths() const { return truths_; }

  /// truths() as copy-on-write pages, brought up to date on each call: the
  /// pages holding rows written since the previous call are copied afresh,
  /// every other page is shared with the table the previous call returned
  /// (and so with the snapshots built from it). O(rows written) under
  /// DeltaSolveMode::kOff; a whole-table copy under kFull, which rewrites
  /// every row, and after a skipped call the row record no longer covers.
  const PagedValueTable& truth_pages() const;
  const std::vector<double>& source_weights() const {
    return processor_.source_weights();
  }
  const std::vector<double>& accumulated_deviations() const {
    return processor_.accumulated_deviations();
  }
  const std::vector<uint64_t>& quarantined_per_source() const {
    return processor_.quarantined_per_source();
  }
  const std::vector<std::vector<double>>& weight_history() const {
    return weight_history_;
  }
  const std::vector<int64_t>& chunk_starts() const { return chunk_starts_; }

  /// Assembles the batch IncrementalCrhResult, consuming the engine.
  IncrementalCrhResult Finish() &&;

 private:
  StreamEngine(const Dataset& parent, const IncrementalCrhOptions& options,
               const StreamResilienceOptions& resilience);

  /// kFull: folds the chunk's claims — filtered exactly as ProcessChunk
  /// filtered them — into claims_so_far_.
  void AppendClaims(const DataChunk& chunk);

  /// The rows of written_rows_ that chunks after the first `chunks` wrote.
  std::span<const size_t> RowsWrittenAfter(uint64_t chunks) const;

  const Dataset* parent_;
  IncrementalCrhOptions options_;
  StreamResilienceOptions resilience_;
  IncrementalCrhProcessor processor_;
  ValueTable truths_;
  std::vector<std::vector<double>> weight_history_;
  std::vector<int64_t> chunk_starts_;
  /// kFull only: every claim applied so far in the parent entry space,
  /// grown chunk by chunk with ClaimIndex::Append, and the scratch its
  /// per-chunk re-solve reuses.
  ClaimIndex claims_so_far_;
  SolverWorkspace workspace_;
  /// The single record of which truth rows changed: the rows kOff chunks
  /// wrote (each chunk's parent_object), for the chunks after the first
  /// written_base_, with written_starts_[j] the offset of chunk
  /// written_base_ + j's rows. Checkpoint records and truth_pages() both
  /// read it; it restarts at the first chunk after a checkpoint (or every
  /// chunk when nothing checkpoints). kFull writes every row and keeps no
  /// record.
  std::vector<size_t> written_rows_;
  std::vector<size_t> written_starts_;
  uint64_t written_base_ = 0;
  /// truth_pages()'s table and the chunks_applied() it reflects.
  mutable PagedValueTable pages_;
  mutable std::optional<uint64_t> pages_chunks_;
  std::optional<CheckpointManager> manager_;
  uint64_t fingerprint_ = 0;
  uint64_t applied_ = 0;
  uint64_t resumed_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t last_checkpoint_chunks_ = 0;
  bool resumed_from_fallback_ = false;
};

}  // namespace crh

#endif  // CRH_STREAM_STREAM_ENGINE_H_
