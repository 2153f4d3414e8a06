#include "stream/stream_engine.h"

#include <utility>

#include "common/fault_injection.h"

namespace crh {

StreamEngine::StreamEngine(const Dataset& parent, const IncrementalCrhOptions& options,
                           const StreamResilienceOptions& resilience)
    : parent_(&parent),
      options_(options),
      resilience_(resilience),
      processor_(parent.num_sources(), options),
      truths_(parent.num_objects(), parent.num_properties()) {}

Result<std::unique_ptr<StreamEngine>> StreamEngine::Open(
    const Dataset& parent, const IncrementalCrhOptions& options,
    const StreamResilienceOptions& resilience) {
  if (options.decay < 0 || options.decay > 1) {
    return Status::InvalidArgument("decay must be in [0, 1]");
  }
  if (resilience.checkpoint_every < 1) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  const bool checkpointing = !resilience.checkpoint_dir.empty();
  if (resilience.resume && !checkpointing) {
    return Status::InvalidArgument("resume requires a checkpoint directory");
  }
  CRH_RETURN_NOT_OK(ValidateRetryPolicy(resilience.retry));
  const bool cumulative = options.delta_solve == DeltaSolveMode::kFull;
  if (cumulative && options.base.supervision != nullptr) {
    return Status::InvalidArgument(
        "delta_solve=kFull maintains truths in the parent entry space and cannot apply the "
        "chunk-shaped supervision clamp; use DeltaSolveMode::kOff with supervision");
  }

  // The constructor is private so Open is the only way in; make_unique
  // cannot reach it, hence the immediately-owned naked new.
  std::unique_ptr<StreamEngine> engine(
      new StreamEngine(parent, options, resilience));  // analyzer:allow(naked-new)
  if (cumulative) {
    engine->claims_so_far_ =
        ClaimIndex::CreateEmpty(parent.num_objects(), parent.num_properties());
  }
  if (checkpointing) {
    engine->fingerprint_ = CheckpointFingerprint(options, parent.num_sources(), &parent);
    CheckpointManagerOptions manager_options;
    manager_options.dir = resilience.checkpoint_dir;
    manager_options.retry = resilience.retry;
    engine->manager_.emplace(std::move(manager_options));
  }

  if (resilience.resume) {
    CheckpointLoadReport report;
    auto loaded = engine->manager_->LoadLatest(engine->fingerprint_, &report);
    if (loaded.ok()) {
      CheckpointState state = std::move(loaded).ValueOrDie();
      if (!state.has_driver_state) {
        return Status::FailedPrecondition("checkpoint has no driver section to resume from");
      }
      if (state.truths.num_objects() != parent.num_objects() ||
          state.truths.num_properties() != parent.num_properties()) {
        return Status::FailedPrecondition(
            "checkpoint truth table shape does not match the dataset");
      }
      CRH_RETURN_NOT_OK(engine->processor_.ImportState(state.processor));
      engine->truths_ = std::move(state.truths);
      engine->weight_history_ = std::move(state.weight_history);
      engine->chunk_starts_ = std::move(state.chunk_starts);
      engine->resumed_ = state.processor.chunks_processed;
      engine->last_checkpoint_chunks_ = engine->resumed_;
      engine->resumed_from_fallback_ = report.fell_back;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
    // NotFound means a cold start: nothing to resume, process everything.
  }
  return engine;
}

Status StreamEngine::ApplyChunk(const DataChunk& chunk, bool force_checkpoint) {
  if (applied_ < resumed_) {
    // Replay: the restored checkpoint already covers this chunk. Its
    // weights and truths came from the checkpoint (whose fingerprint tag
    // guarantees they were maintained under the cumulative invariant);
    // only the cumulative claim index needs the chunk's claims back.
    if (options_.delta_solve == DeltaSolveMode::kFull) AppendClaims(chunk);
    ++applied_;
    return Status::OK();
  }
  CRH_FAIL_POINT("stream.process_chunk");
  if (!manager_ || last_checkpoint_chunks_ == applied_) {
    written_rows_.clear();
    written_starts_.clear();
    written_base_ = applied_;
  }
  auto truths = processor_.ProcessChunk(chunk.data);
  if (!truths.ok()) return truths.status();
  if (options_.delta_solve == DeltaSolveMode::kFull) {
    // Maintain `truths == truth-update(claims so far, current weights)`:
    // fold the chunk's claims in, then re-solve every entry under the
    // refreshed weights. The per-chunk truths ProcessChunk returned were
    // computed under the pre-refresh weights and are superseded.
    AppendClaims(chunk);
    truths_ = ComputeTruthsGivenWeights(*parent_, claims_so_far_, processor_.source_weights(),
                                        options_.base, processor_.pool(), workspace_);
  } else {
    for (size_t local = 0; local < chunk.parent_object.size(); ++local) {
      for (size_t m = 0; m < parent_->num_properties(); ++m) {
        truths_.Set(chunk.parent_object[local], m, truths->Get(local, m));
      }
    }
    written_starts_.push_back(written_rows_.size());
    written_rows_.insert(written_rows_.end(), chunk.parent_object.begin(),
                         chunk.parent_object.end());
  }
  weight_history_.push_back(processor_.source_weights());
  chunk_starts_.push_back(chunk.window_start);
  ++applied_;
  if (manager_) {
    const uint64_t since_open = applied_ - resumed_;
    if (force_checkpoint || since_open % resilience_.checkpoint_every == 0) {
      return WriteCheckpoint();
    }
  }
  return Status::OK();
}

Status StreamEngine::WriteCheckpoint() {
  if (!manager_) return Status::OK();
  const IncrementalCrhState processor = processor_.ExportState();
  const CheckpointView view{fingerprint_, &processor, &truths_, &weight_history_, &chunk_starts_};
  const bool cumulative = options_.delta_solve == DeltaSolveMode::kFull;
  CRH_RETURN_NOT_OK(manager_->Checkpoint(view, cumulative ? nullptr : &written_rows_));
  ++checkpoints_written_;
  last_checkpoint_chunks_ = applied_;
  return Status::OK();
}

IncrementalCrhResult StreamEngine::Finish() && {
  IncrementalCrhResult result;
  result.truths = std::move(truths_);
  result.source_weights = processor_.source_weights();
  result.accumulated_deviations = processor_.accumulated_deviations();
  result.weight_history = std::move(weight_history_);
  result.chunk_starts = std::move(chunk_starts_);
  result.quarantined_per_source = processor_.quarantined_per_source();
  result.chunks_resumed = resumed_;
  result.checkpoints_written = checkpoints_written_;
  result.resumed_from_fallback = resumed_from_fallback_;
  return result;
}

std::span<const size_t> StreamEngine::RowsWrittenAfter(uint64_t chunks) const {
  const uint64_t j = chunks - written_base_;
  const size_t begin = j < written_starts_.size() ? written_starts_[j] : written_rows_.size();
  return std::span<const size_t>(written_rows_).subspan(begin);
}

const PagedValueTable& StreamEngine::truth_pages() const {
  if (pages_chunks_ != applied_) {
    if (pages_chunks_ && *pages_chunks_ >= written_base_ &&
        options_.delta_solve == DeltaSolveMode::kOff) {
      pages_.CopyRows(truths_, RowsWrittenAfter(*pages_chunks_));
    } else {
      pages_ = PagedValueTable(truths_);
    }
    pages_chunks_ = applied_;
  }
  return pages_;
}

void StreamEngine::AppendClaims(const DataChunk& chunk) {
  // Without quarantine ProcessChunk rejects any chunk holding a
  // quarantinable claim, so only quarantined runs need the filter.
  Dataset sanitized;
  const Dataset& active = options_.quarantine_bad_claims
                              ? QuarantineClaims(chunk.data, &sanitized, nullptr)
                              : chunk.data;
  claims_so_far_.Append(active, chunk.parent_object);
}

}  // namespace crh
