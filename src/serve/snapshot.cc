#include "serve/snapshot.h"

#include <algorithm>

#include "stream/stream_engine.h"

namespace crh {

ServeSnapshot SnapshotFromEngine(const StreamEngine& engine, uint64_t epoch) {
  ServeSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.chunks_solved =
      std::max(engine.chunks_applied(), engine.chunks_resumed());
  snapshot.next_seq = engine.chunks_applied();
  snapshot.chunks_resumed = engine.chunks_resumed();
  snapshot.resumed_from_fallback = engine.resumed_from_fallback();
  snapshot.checkpoints_written = engine.checkpoints_written();
  snapshot.last_checkpoint_chunks = engine.last_checkpoint_chunks();
  snapshot.truths = engine.truth_pages();
  snapshot.source_weights = engine.source_weights();
  snapshot.accumulated_deviations = engine.accumulated_deviations();
  snapshot.quarantined_per_source = engine.quarantined_per_source();
  return snapshot;
}

}  // namespace crh
