#ifndef CRH_STREAM_CHECKPOINT_H_
#define CRH_STREAM_CHECKPOINT_H_

/// \file checkpoint.h
/// Crash-recoverable persistence for the streaming (I-CRH) pipeline.
///
/// A checkpoint is a versioned, CRC-32-checksummed binary snapshot of an
/// IncrementalCrhProcessor's learned state (weights, decayed accumulators,
/// quarantine counters, chunks processed) plus — when taken by the
/// resilient driver — the partial fused truth table and weight history, so
/// a resumed run reproduces the uninterrupted run bit for bit.
///
/// On-disk format (little-endian, see docs/ROBUSTNESS.md):
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
/// Writes are atomic: the encoded image goes to `<name>.tmp` in the same
/// directory, is flushed and closed with every return value checked, and
/// is renamed over the final name only then; a failure at any step removes
/// the temp file and leaves prior generations untouched. Loading walks the
/// generations newest-first and falls back past torn or corrupted files to
/// the last good one, reporting that it did so. Every I/O call site is
/// fail-point instrumented (common/fault_injection.h) so tests force each
/// failure path and prove no sequence of I/O errors can lose or corrupt
/// learned state.

#include <cstdint>
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
std::string EncodeCheckpoint(const CheckpointState& state);

/// Parses a checkpoint byte string. Arbitrary bytes yield a clean
/// InvalidArgument — never a crash, hang, over-allocation, or partially
/// filled state (the result is discarded on any error). Fuzzed by
/// fuzz/checkpoint_fuzz.cc.
[[nodiscard]] Result<CheckpointState> DecodeCheckpoint(std::string_view bytes);

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
  /// True when one or more newer generations were rejected first.
  bool fell_back = false;
  /// Human-readable reasons for each rejected newer generation.
  std::vector<std::string> rejected;
};

/// Writes and restores checkpoint generations in a directory.
///
/// Generation files are named "ckpt-<20-digit generation>.crhckpt"; the
/// numbering continues from the highest generation present, so a resumed
/// run never overwrites the files it is restoring from.
///
/// Thread safety: concurrent Save calls are safe — each reserves a unique
/// generation number under mu_ and performs all I/O with the lock
/// released, so writers never serialize on disk speed and no lock is ever
/// held across a fail-point evaluation (crh_analyzer's lock-order
/// check). Savers racing prune may report a benign IOError for a file the
/// other already removed; learned state is never lost.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointManagerOptions options);

  /// Atomically persists `state` as the next generation, then prunes
  /// generations beyond keep_generations. On any error the directory is
  /// left with no temp file and all previous generations intact.
  [[nodiscard]] Status Save(const CheckpointState& state) CRH_EXCLUDES(mu_);

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
