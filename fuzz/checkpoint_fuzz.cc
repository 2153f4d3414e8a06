/// \file checkpoint_fuzz.cc
/// Fuzz harness for the checkpoint loader (stream/checkpoint.h): every
/// input is tried both as an image and as a journal.
///
/// Properties enforced on every input:
///  * DecodeCheckpoint never crashes, hangs, over-allocates, or trips a
///    sanitizer — arbitrary bytes come back as a clean Status.
///  * Anything it accepts is internally consistent (vector lengths match
///    the source count, the weight history matches chunks_processed) and
///    round-trips through EncodeCheckpoint to the identical byte string,
///    so a restore can never produce a partially filled state.
///  * ApplyJournal over a fixed image (the corpus's valid_driver seed)
///    never crashes or over-allocates either — hostile record lengths are
///    checked against the bytes present first — and leaves a consistent
///    state holding the image plus whole records only.
///
/// The committed corpus (fuzz/corpus/checkpoint) holds valid images with
/// and without the driver section, truncated and bit-flipped variants, and
/// journals over the valid_driver image (a valid record, a torn tail, a bad
/// CRC, an oversized length header); scripts/make_checkpoint_corpus.py
/// regenerates it using Python's zlib.crc32, which is bit-compatible with
/// common/crc32.h.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/check.h"
#include "stream/checkpoint.h"

namespace {

void CheckConsistent(const crh::CheckpointState& state) {
  const size_t num_sources = state.processor.weights.size();
  CRH_CHECK_EQ(state.processor.accumulated.size(), num_sources);
  CRH_CHECK_EQ(state.processor.quarantined_per_source.size(), num_sources);
  if (state.has_driver_state) {
    CRH_CHECK_EQ(state.weight_history.size(),
                 static_cast<size_t>(state.processor.chunks_processed));
    CRH_CHECK_EQ(state.chunk_starts.size(), state.weight_history.size());
    for (const std::vector<double>& row : state.weight_history) {
      CRH_CHECK_EQ(row.size(), num_sources);
    }
  } else {
    CRH_CHECK_EQ(state.weight_history.size(), 0u);
    CRH_CHECK_EQ(state.chunk_starts.size(), 0u);
    CRH_CHECK_EQ(state.truths.num_objects(), 0u);
  }
}

/// The image of the corpus's valid_driver seed.
crh::CheckpointState JournalBase() {
  crh::CheckpointState state;
  state.fingerprint = 0x1234abcd5678ef01u;
  state.processor.weights = {1.5, 0.25, 3.75};
  state.processor.accumulated = {10.0, 20.5, 0.0};
  state.processor.chunks_processed = 4;
  state.processor.quarantined_per_source = {0, 7, 2};
  state.has_driver_state = true;
  state.truths = crh::ValueTable(3, 2);
  state.truths.Set(0, 0, crh::Value::Continuous(2.5));
  state.truths.Set(0, 1, crh::Value::Categorical(1));
  state.truths.Set(2, 1, crh::Value::Categorical(0));
  state.weight_history = {{1.0, 1.0, 1.0}, {1.5, 0.5, 1.0}, {1.5, 0.25, 2.0}, {1.5, 0.25, 3.75}};
  state.chunk_starts = {-2, 0, 1, 5};
  return state;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // The same bytes as a journal extending the valid_driver image.
  static const crh::CheckpointState base = JournalBase();
  static const std::string base_image = crh::EncodeCheckpoint(base);
  const auto crc_byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(base_image[base_image.size() - 4 + i]));
  };
  const uint32_t base_crc = crc_byte(0) | crc_byte(1) << 8 | crc_byte(2) << 16 | crc_byte(3) << 24;
  crh::CheckpointState replayed = base;
  const crh::JournalReplay replay = crh::ApplyJournal(bytes, base_crc, &replayed);
  CheckConsistent(replayed);
  CRH_CHECK_EQ(replayed.truths.num_objects(), base.truths.num_objects());
  CRH_CHECK_EQ(replayed.truths.num_properties(), base.truths.num_properties());
  CRH_CHECK(replay.records > 0 || crh::EncodeCheckpoint(replayed) == base_image);

  auto decoded = crh::DecodeCheckpoint(bytes);
  if (!decoded.ok()) return 0;
  CheckConsistent(*decoded);
  // An accepted image re-encodes to exactly the bytes that were decoded:
  // the format has one canonical serialization, so decode cannot have
  // dropped or invented anything.
  CRH_CHECK_MSG(crh::EncodeCheckpoint(*decoded) == bytes,
                "decoded checkpoint must re-encode identically");
  return 0;
}
