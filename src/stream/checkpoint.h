#ifndef CRH_STREAM_CHECKPOINT_H_
#define CRH_STREAM_CHECKPOINT_H_

/// \file checkpoint.h
/// Crash-recoverable persistence for the streaming (I-CRH) pipeline.
///
/// A checkpoint generation is a full image plus an append-only journal.
/// The image is a versioned, CRC-32-checksummed binary snapshot of an
/// IncrementalCrhProcessor's learned state (weights, decayed accumulators,
/// quarantine counters, chunks processed) plus — when taken by the
/// streaming drivers — the partial fused truth table and weight history,
/// so a resumed run reproduces the uninterrupted run bit for bit. Each
/// later checkpoint point appends one CRC-framed record to the journal
/// instead of rewriting the image: the processor state, the weight-history
/// rows and chunk starts added since the previous record, and the truth
/// rows written since then. A checkpoint therefore costs O(chunk) bytes,
/// not O(N*M + chunks*K).
///
/// Image, `ckpt-<gen>.crhckpt` (little-endian, see docs/ROBUSTNESS.md):
///
///   offset  size  field
///   0       8     magic "CRHCKPT1"
///   8       4     u32 format version (currently 1)
///   12      8     u64 fingerprint (options + dataset shape; see
///                 CheckpointFingerprint)
///   20      8     u64 chunks_processed
///   28      8     u64 K (number of sources)
///   36      8K    f64 weights[K]
///   ..      8K    f64 accumulated[K]
///   ..      8K    u64 quarantined[K]
///   ..      1     u8  has_driver_section (0 or 1)
///   [driver section, present when the flag is 1:
///     u64 N, u64 M, N*M tagged cells (u8 tag: 0 missing; 1 continuous,
///     f64 payload; 2 categorical, i32 payload), u64 history rows,
///     rows * K f64, u64 chunk-start count, that many i64]
///   ..      4     u32 CRC-32 of every preceding byte (zlib polynomial)
///
/// Journal, `ckpt-<gen>.crhjrnl`: the 8-byte magic "CRHJRNL1" and the u32
/// CRC of the image it extends, then records, each
///
///   u32 L (payload bytes), L payload bytes, u32 CRC-32 of L and payload
///
/// with the payload u64 chunks_processed, u64 K, f64 weights[K], f64
/// accumulated[K], u64 quarantined[K], u64 R, R * (i64 chunk start, K f64
/// history row), u64 T, T * (u64 row, M tagged cells).
///
/// Compaction: a checkpoint point writes a new generation (image, empty
/// journal) instead of a record when its manager has no journal open, when
/// an append fails, or once the journal holds at least as many bytes as
/// the new image would. Image bytes written then never exceed journal
/// bytes written, so a checkpoint costs at most two records' bytes
/// amortized.
///
/// Image writes are atomic: the encoded image goes to `<name>.tmp` in the
/// same directory, is flushed and closed with every return value checked,
/// and is renamed over the final name only then; a failure at any step
/// removes the temp file and leaves prior generations untouched. Appends
/// check that the journal still ends where the last append left it, so a
/// record is never written behind a torn one. Loading walks the generations
/// newest-first, falls back past torn or corrupted images to the last good
/// one, and applies the good image's journal up to its first torn record,
/// reporting either fallback. Every I/O call site is fail-point
/// instrumented (common/fault_injection.h) so tests force each failure path
/// and prove no sequence of I/O errors can lose or corrupt learned state.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "stream/incremental_crh.h"

namespace crh {

/// The checkpoint format version written by EncodeCheckpoint.
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// One decoded checkpoint image.
struct CheckpointState {
  /// Compatibility fingerprint of the run that wrote the checkpoint.
  uint64_t fingerprint = 0;
  /// The processor's learned state.
  IncrementalCrhState processor;
  /// True when the driver section below is populated.
  bool has_driver_state = false;
  /// Partial fused truths over the parent dataset (driver section).
  ValueTable truths;
  /// Per-chunk weight history so far (driver section).
  std::vector<std::vector<double>> weight_history;
  /// Window start of each processed chunk (driver section).
  std::vector<int64_t> chunk_starts;
};

/// The state a checkpoint holds, by reference: what EncodeCheckpoint and
/// CheckpointManager::Checkpoint serialize without copying the engine's
/// tables. `truths` null means no driver section (the three driver fields
/// are then ignored).
struct CheckpointView {
  uint64_t fingerprint = 0;
  const IncrementalCrhState* processor = nullptr;
  const ValueTable* truths = nullptr;
  const std::vector<std::vector<double>>* weight_history = nullptr;
  const std::vector<int64_t>* chunk_starts = nullptr;
};

/// The view of a decoded checkpoint.
CheckpointView ViewOf(const CheckpointState& state);

/// Fingerprint of the (options, data-shape) combination a checkpoint is
/// valid for. Restoring is refused when fingerprints differ, so a snapshot
/// cannot leak into a run with different loss models, decay, window size,
/// quarantine semantics, schema, or source roster. `data` (optional) folds
/// in the parent dataset's shape: N, M, property names/types/units, and
/// the source ids in order. num_threads is deliberately excluded — results
/// are bit-identical at every thread count.
uint64_t CheckpointFingerprint(const IncrementalCrhOptions& options, size_t num_sources,
                               const Dataset* data = nullptr);

/// Serializes a checkpoint image to its on-disk byte string.
std::string EncodeCheckpoint(const CheckpointView& view);
inline std::string EncodeCheckpoint(const CheckpointState& state) {
  return EncodeCheckpoint(ViewOf(state));
}

/// EncodeCheckpoint(view).size(), computed without encoding.
uint64_t EncodedCheckpointBytes(const CheckpointView& view);

/// Parses a checkpoint byte string. Arbitrary bytes yield a clean
/// InvalidArgument — never a crash, hang, over-allocation, or partially
/// filled state (the result is discarded on any error). Fuzzed by
/// fuzz/checkpoint_fuzz.cc.
[[nodiscard]] Result<CheckpointState> DecodeCheckpoint(std::string_view bytes);

/// One framed journal record (see the file comment) holding the state of
/// `view` at its checkpoint point: the weight-history rows and chunk starts
/// from index `first_new_chunk` on, and the truth rows `rows` (nullptr:
/// every row). `view` must carry the driver section.
std::string EncodeJournalRecord(const CheckpointView& view, uint64_t first_new_chunk,
                                const std::vector<size_t>* rows);

/// The 12-byte journal header binding a journal to the image whose stored
/// CRC is `image_crc`.
std::string EncodeJournalHeader(uint32_t image_crc);

/// Outcome of ApplyJournal.
struct JournalReplay {
  /// Records applied.
  uint64_t records = 0;
  /// OK when every byte belonged to a valid record; otherwise why replay
  /// stopped (torn or corrupted record, header of another image, ...).
  Status stopped = Status::OK();
};

/// Applies the valid prefix of a journal (header and records) to `state`,
/// the decoded image whose stored CRC is `image_crc`. Each record is
/// checksummed and decoded whole before any of it is applied, so `state`
/// always equals the image plus a whole number of records. Arbitrary bytes
/// stop replay cleanly — never a crash, hang or over-allocation. Fuzzed by
/// fuzz/checkpoint_fuzz.cc.
JournalReplay ApplyJournal(std::string_view journal, uint32_t image_crc, CheckpointState* state);

/// Configuration for a CheckpointManager.
struct CheckpointManagerOptions {
  /// Directory holding the checkpoint generations. Must exist.
  std::string dir;
  /// Completed generations kept on disk; older ones are pruned after a
  /// successful write. At least 2 so a torn newest file always leaves a
  /// good predecessor.
  int keep_generations = 2;
  /// Retry schedule for transient write failures.
  RetryPolicy retry;
};

/// Outcome details of CheckpointManager::LoadLatest.
struct CheckpointLoadReport {
  /// Generation number actually loaded.
  uint64_t generation = 0;
  /// True when one or more newer generations were rejected first, or the
  /// loaded generation's journal stopped at a torn record.
  bool fell_back = false;
  /// Human-readable reasons for each rejected newer generation and torn
  /// journal.
  std::vector<std::string> rejected;
};

/// Writes and restores checkpoint generations in a directory.
///
/// Generation files are named "ckpt-<20-digit generation>.crhckpt" (image)
/// and ".crhjrnl" (journal); the numbering continues from the highest
/// generation present, so a resumed run never overwrites the files it is
/// restoring from. A manager only appends to the journal of an image it
/// saved itself: the first checkpoint of every run is an image.
///
/// Thread safety: concurrent Save calls are safe — each reserves a unique
/// generation number under mu_ and performs all I/O with the lock
/// released, so writers never serialize on disk speed and no lock is ever
/// held across a fail-point evaluation (crh_analyzer's lock-order
/// check). Savers racing prune may report a benign IOError for a file the
/// other already removed; learned state is never lost. Checkpoint calls
/// must come from one thread at a time.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointManagerOptions options);

  /// Atomically persists `state` as the next generation, then prunes
  /// generations beyond keep_generations. On any error the directory is
  /// left with no temp file and all previous generations intact.
  [[nodiscard]] Status Save(const CheckpointState& state) CRH_EXCLUDES(mu_);

  /// Persists the state `view` describes at one checkpoint point: one
  /// record in the open journal, or a new generation when the compaction
  /// rule (file comment) says so. The record carries the history rows the
  /// journal does not hold yet and the truth rows `rows` (nullptr: every
  /// row) — the rows written since the previous checkpoint point. A failed
  /// append falls back to a new generation; only a failed image is an
  /// error.
  [[nodiscard]] Status Checkpoint(const CheckpointView& view, const std::vector<size_t>* rows)
      CRH_EXCLUDES(mu_);

  /// Loads the newest generation that decodes cleanly and matches
  /// `expected_fingerprint`, falling back to older generations otherwise.
  /// NotFound when the directory holds no loadable checkpoint.
  [[nodiscard]] Result<CheckpointState> LoadLatest(
      uint64_t expected_fingerprint, CheckpointLoadReport* report = nullptr);

  /// Generation numbers present in the directory, ascending. Temp files
  /// and foreign names are ignored.
  [[nodiscard]] Result<std::vector<uint64_t>> ListGenerations() const;

 private:
  CheckpointManagerOptions options_;
  mutable Mutex mu_;
  /// Next generation number to write; discovered lazily from the directory.
  uint64_t next_generation_ CRH_GUARDED_BY(mu_) = 0;
  bool scanned_ CRH_GUARDED_BY(mu_) = false;

  /// The journal Checkpoint appends to: that of the newest image this
  /// manager saved.
  struct OpenJournal {
    uint64_t generation = 0;
    uint64_t image_bytes = 0;
    uint32_t image_crc = 0;
    /// Bytes in the journal file, header included (0: not created yet).
    uint64_t bytes = 0;
    /// chunks_processed of the image or last record: the history rows the
    /// journal already holds.
    uint64_t chunks = 0;
  };
  std::optional<OpenJournal> journal_ CRH_GUARDED_BY(mu_);

  /// Writes an encoded image as the next generation, opens its journal
  /// and prunes.
  [[nodiscard]] Status SaveImage(const std::string& image, uint64_t chunks) CRH_EXCLUDES(mu_);

  /// Appends `record` to `journal`'s file.
  [[nodiscard]] Status Append(const OpenJournal& journal, const std::string& record,
                              uint64_t chunks) CRH_EXCLUDES(mu_);

  /// Scans the directory (unlocked — the scan is fail-point instrumented)
  /// and publishes the starting generation under mu_ if still unscanned.
  [[nodiscard]] Status EnsureScanned() CRH_EXCLUDES(mu_);
};

/// Every fail-point site the checkpoint I/O path can hit, for exhaustive
/// fault-injection sweeps (tests and the crash-recovery CI job force each
/// site in turn and assert clean Status propagation).
std::vector<std::string> CheckpointFailPointSites();

/// Fail-point sites of the streaming drivers themselves (chunk-processing
/// boundary), distinct from the checkpoint I/O sites above. Registered so
/// scripts/crh_analyzer.py's fail-point coverage check and the fault
/// sweeps see them.
std::vector<std::string> StreamFailPointSites();

/// Streaming resilience configuration for RunIncrementalCrhResilient.
struct StreamResilienceOptions {
  /// Directory for checkpoints; empty disables checkpointing entirely.
  std::string checkpoint_dir;
  /// Write a checkpoint every this many processed chunks (the final chunk
  /// is always checkpointed). Must be >= 1.
  uint64_t checkpoint_every = 1;
  /// Restore the newest good checkpoint before processing and skip the
  /// chunks it already covers. Requires checkpoint_dir.
  bool resume = false;
  /// Retry schedule applied to each checkpoint write.
  RetryPolicy retry;
};

/// Crash-recoverable variant of RunIncrementalCrh: same chunk loop, same
/// bit-identical results, plus periodic checkpoints and resume. A resumed
/// run restores the processor state and the partial fused truths from the
/// checkpoint and continues with the first uncovered chunk, so the final
/// IncrementalCrhResult — weights, accumulators, truth table, history — is
/// bit-identical to a run that was never interrupted. The fail-point site
/// "stream.process_chunk" fires once per chunk before it is processed,
/// letting tests kill the stream at an exact chunk boundary.
[[nodiscard]] Result<IncrementalCrhResult> RunIncrementalCrhResilient(
    const Dataset& data, const IncrementalCrhOptions& options,
    const StreamResilienceOptions& resilience);

}  // namespace crh

#endif  // CRH_STREAM_CHECKPOINT_H_
