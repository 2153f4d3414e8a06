#ifndef CRH_SERVE_SNAPSHOT_H_
#define CRH_SERVE_SNAPSHOT_H_

/// \file snapshot.h
/// Immutable epoch snapshots of the served truth state.
///
/// The serving daemon's contract is that query threads never block on
/// solver iterations. The mechanism is RCU-style epoch publication: after
/// every applied chunk the ingest thread copies the engine's weights and
/// counters and its copy-on-write truth pages (StreamEngine::truth_pages:
/// only the pages holding rows the chunk wrote are new, the rest are shared
/// with the previous epoch) into a fresh, immutable ServeSnapshot and swaps
/// it into a mutex-guarded shared_ptr. Readers copy the pointer under that
/// mutex (one reference-count increment, never a solver wait), answer every
/// query of a request from that one object, and drop the reference; an old
/// epoch stays alive exactly until its last in-flight reader releases it.
/// There is no copy-on-read and no torn state — a reader either sees epoch
/// N in its entirety or epoch N+1 in its entirety, never a mix (the
/// tsan-labeled concurrent-reader test proves it).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/table.h"

namespace crh {

class StreamEngine;

/// One immutable published epoch: everything a query can ask about, copied
/// out of the engine at a single chunk boundary.
struct ServeSnapshot {
  /// Publication counter: bumps by one per publish, starting at 0 for the
  /// snapshot published before the first chunk (or right after resume).
  uint64_t epoch = 0;
  /// Chunks whose claims the truths/weights below reflect (replayed +
  /// freshly solved).
  uint64_t chunks_solved = 0;
  /// Next ingest sequence number the engine expects.
  uint64_t next_seq = 0;
  uint64_t chunks_resumed = 0;
  bool resumed_from_fallback = false;
  uint64_t checkpoints_written = 0;
  /// chunks_solved at the last durable checkpoint (0 = none yet).
  uint64_t last_checkpoint_chunks = 0;
  /// Fused truths over the universe dataset (N x M), paged: epochs share
  /// every page no chunk between them wrote.
  PagedValueTable truths;
  std::vector<double> source_weights;
  std::vector<double> accumulated_deviations;
  std::vector<uint64_t> quarantined_per_source;
};

/// Copies the engine's current state into a snapshot stamped `epoch`; the
/// truth pages are shared, not copied (see StreamEngine::truth_pages).
ServeSnapshot SnapshotFromEngine(const StreamEngine& engine, uint64_t epoch);

/// The publication point between the ingest thread (single writer) and
/// query threads (any number of readers). The lock guards only the pointer:
/// it is held for one copy or one swap, never across solving or freeing.
class SnapshotPublisher {
 public:
  /// The latest published epoch; nullptr before the first Publish.
  std::shared_ptr<const ServeSnapshot> Current() const CRH_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return current_;
  }

  /// Replaces the published epoch. The previous snapshot is released once
  /// its last reader drops it.
  void Publish(std::shared_ptr<const ServeSnapshot> snapshot) CRH_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      current_.swap(snapshot);
    }
    // `snapshot` now holds the previous epoch. If this was its last
    // reference, its page table and the pages no later epoch shares are
    // freed here, after the unlock, so readers never wait on the free.
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const ServeSnapshot> current_ CRH_GUARDED_BY(mu_);
};

}  // namespace crh

#endif  // CRH_SERVE_SNAPSHOT_H_
