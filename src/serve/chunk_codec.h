#ifndef CRH_SERVE_CHUNK_CODEC_H_
#define CRH_SERVE_CHUNK_CODEC_H_

/// \file chunk_codec.h
/// Decoding ingested claim CSV into DataChunks over the universe dataset.
///
/// An ingest request carries one chunk's claims as observation CSV (the
/// same `object_id,property,source_id,value` tuples data/csv.h reads and
/// writes). The codec re-expresses them as a DataChunk in the universe's
/// entry space — objects ordered by ascending universe index, the full
/// universe source roster, universe dictionaries — which is exactly the
/// shape SplitByWindow gives the batch driver. That shape equality is what
/// makes a served stream bit-identical to a batch run over the same
/// claims: the chunk ClaimIndex, the deviation sums and the truth passes
/// all iterate in the same order either way.

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "data/dataset.h"
#include "data/id_index.h"
#include "stream/chunks.h"

namespace crh {

/// Hard cap on the CSV payload of one ingested chunk. Matches the serving
/// default for a whole request line (ServeOptions::max_request_bytes); a
/// larger chunk is rejected with kOutOfRange before any parsing work.
inline constexpr size_t kMaxChunkCsvBytes = 8u << 20;

/// Stateless decoder bound to one universe dataset (the id -> index maps
/// are built once; Decode is const and thread-compatible).
class ChunkCodec {
 public:
  /// `universe` must outlive the codec. Its object ids, source roster and
  /// per-property dictionaries define the space chunks are decoded into.
  explicit ChunkCodec(const Dataset& universe);

  /// Parses `csv` straight into the universe's entry space, one pass over
  /// the bytes (data/csv.h's CsvTokenizer and ParseContinuousCell). The
  /// payload must fit kMaxChunkCsvBytes, and the rows may not name more
  /// distinct objects or sources than the universe holds, counting names
  /// the universe lacks (both kOutOfRange: the CSV is untrusted bytes, so
  /// its counts are bounds-checked before they size anything). The second
  /// check runs as rows are read and wins over every other error; past it,
  /// the first bad line is reported (kInvalidArgument). Every object and
  /// source must exist in the universe. Categorical/text labels are looked
  /// up in the universe dictionary; a label the universe has never seen is
  /// an error unless `quarantine_bad_claims` is set, in which case the
  /// claim decodes to the invalid-category sentinel and the solver's
  /// quarantine excludes and counts it — mirroring how the batch path
  /// treats out-of-dictionary claims. A repeated claim keeps its last
  /// value.
  [[nodiscard]] Result<DataChunk> Decode(std::string_view csv, int64_t window_start,
                                         bool quarantine_bad_claims) const;

  /// Universe index of the object named `id`, or IdIndex::kNotFound.
  size_t FindObject(std::string_view id) const {
    return object_index_.Find(id, universe_->object_ids());
  }
  /// Universe index of the source named `id`, or IdIndex::kNotFound.
  size_t FindSource(std::string_view id) const {
    return source_index_.Find(id, universe_->source_ids());
  }

 private:
  const Dataset* universe_;
  IdIndex object_index_;  ///< Over universe_->object_ids().
  IdIndex source_index_;  ///< Over universe_->source_ids().
};

}  // namespace crh

#endif  // CRH_SERVE_CHUNK_CODEC_H_
