/// \file chunk_codec_fuzz.cc
/// Fuzz harness for the ingest chunk decoder (serve/chunk_codec.h).
///
/// Properties enforced on every input, against a small fixed universe
/// (10 objects, two of them with ids that need RFC 4180 quoting; 4
/// sources; one continuous + one categorical property):
///  * Decode never crashes, hangs, over-allocates, or trips a sanitizer —
///    arbitrary CSV bytes come back as a clean Status, with the payload
///    size and the parsed object/source counts bounds-checked against the
///    universe before they size anything.
///  * Anything it accepts has the SplitByWindow shape: parent_object is
///    strictly ascending, every index is inside the universe, the chunk
///    carries the full universe source roster, and quarantine mode never
///    changes that shape (only which claims survive).
///  * Decoding is canonicalizing: re-encoding an accepted chunk with
///    WriteObservationsCsv and decoding again reproduces the identical
///    chunk, cell for cell.
///  * Decode and the batch reader agree: on every input Decode accepts,
///    ReadObservationsCsv accepts the same bytes and yields the same
///    (object, property, source, value) claims — values bit for bit, a
///    claim quarantined by Decode being one whose label the universe
///    lacks.
///
/// The committed corpus (fuzz/corpus/chunk_codec) holds valid chunk CSV
/// over this universe plus unknown-entity, unknown-label, and malformed
/// variants; regenerate it with scripts/make_protocol_corpus.py.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "data/csv.h"
#include "serve/chunk_codec.h"

namespace {

const crh::Dataset& Universe() {
  static const crh::Dataset universe = [] {
    crh::Schema schema;
    CRH_CHECK(schema.AddContinuous("x", 0.0).ok());
    CRH_CHECK(schema.AddCategorical("y").ok());
    std::vector<std::string> objects;
    for (int i = 0; i < 8; ++i) objects.push_back("o" + std::to_string(i));
    objects.push_back("o,8");
    objects.push_back("o\"9");
    std::vector<std::string> sources;
    for (int k = 0; k < 4; ++k) sources.push_back("s" + std::to_string(k));
    crh::Dataset data(std::move(schema), std::move(objects), sources);
    for (const char* label : {"a", "b", "c"}) {
      data.mutable_dict(1).GetOrAdd(label);
    }
    return data;
  }();
  return universe;
}

void CheckShapeAndCanonical(const crh::ChunkCodec& codec,
                            const crh::DataChunk& chunk, bool quarantine) {
  const crh::Dataset& universe = Universe();
  CRH_CHECK_EQ(chunk.data.num_sources(), universe.num_sources());
  CRH_CHECK_EQ(chunk.data.num_objects(), chunk.parent_object.size());
  for (size_t local = 0; local < chunk.parent_object.size(); ++local) {
    CRH_CHECK(chunk.parent_object[local] < universe.num_objects());
    if (local > 0) {
      CRH_CHECK_MSG(chunk.parent_object[local - 1] < chunk.parent_object[local],
                    "parent_object must be strictly ascending");
    }
  }

  // Quarantined claims decode to the invalid-category sentinel, which
  // observation CSV cannot represent: re-encoding such a chunk must fail
  // with a typed error (the fuzzer originally caught an out-of-bounds
  // dictionary read here), and a sentinel-free chunk must round-trip.
  bool has_quarantined_claim = false;
  for (size_t k = 0; k < chunk.data.num_sources(); ++k) {
    for (size_t i = 0; i < chunk.data.num_objects(); ++i) {
      for (size_t m = 0; m < chunk.data.schema().num_properties(); ++m) {
        const crh::Value v = chunk.data.observations(k).Get(i, m);
        if (v.is_categorical() && v.category() == crh::kInvalidCategory) {
          has_quarantined_claim = true;
        }
      }
    }
  }

  std::ostringstream out;
  const crh::Status encoded = crh::WriteObservationsCsv(chunk.data, out);
  if (has_quarantined_claim) {
    CRH_CHECK_MSG(!encoded.ok(),
                  "a quarantined claim must not serialize to CSV");
    CRH_CHECK(encoded.code() == crh::StatusCode::kInvalidArgument);
    return;
  }
  CRH_CHECK(encoded.ok());
  auto again = codec.Decode(out.str(), chunk.window_start, quarantine);
  CRH_CHECK_MSG(again.ok(), "re-encoded accepted chunk must decode");
  CRH_CHECK(again->parent_object == chunk.parent_object);
  for (size_t k = 0; k < chunk.data.num_sources(); ++k) {
    for (size_t i = 0; i < chunk.data.num_objects(); ++i) {
      for (size_t m = 0; m < chunk.data.schema().num_properties(); ++m) {
        CRH_CHECK_MSG(again->data.observations(k).Get(i, m) ==
                          chunk.data.observations(k).Get(i, m),
                      "canonical re-decode must match cell for cell");
      }
    }
  }
}

/// (object, property, source, value) of one claim: a continuous value by
/// its bit pattern, a label by its text (empty for a quarantined claim or
/// a label the universe lacks, which is what quarantine turns it into).
using Claim = std::tuple<std::string, size_t, std::string, uint64_t, std::string>;

std::vector<Claim> Claims(const crh::Dataset& data) {
  const crh::Dataset& universe = Universe();
  std::vector<Claim> claims;
  for (size_t k = 0; k < data.num_sources(); ++k) {
    for (size_t i = 0; i < data.num_objects(); ++i) {
      for (size_t m = 0; m < data.num_properties(); ++m) {
        const crh::Value v = data.observations(k).Get(i, m);
        if (v.is_missing()) continue;
        uint64_t bits = 0;
        std::string label;
        if (v.is_continuous()) {
          const double d = v.continuous();
          std::memcpy(&bits, &d, sizeof(bits));
        } else if (v.category() != crh::kInvalidCategory &&
                   universe.dict(m).Find(data.dict(m).label(v.category())) !=
                       crh::kInvalidCategory) {
          label = data.dict(m).label(v.category());
        }
        claims.emplace_back(data.object_id(i), m, data.source_id(k), bits, label);
      }
    }
  }
  std::sort(claims.begin(), claims.end());
  return claims;
}

void CheckAgreesWithBatchReader(const std::string& csv, const crh::DataChunk& chunk) {
  std::istringstream in(csv);
  auto read = crh::ReadObservationsCsv(Universe().schema(), in);
  CRH_CHECK_MSG(read.ok(), "bytes the chunk decoder accepts must read as a batch CSV");
  CRH_CHECK_MSG(Claims(*read) == Claims(chunk.data),
                "chunk decoder and batch reader must yield the same claims");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string csv(reinterpret_cast<const char*>(data), size);
  const crh::ChunkCodec codec(Universe());
  for (const bool quarantine : {false, true}) {
    auto decoded = codec.Decode(csv, /*window_start=*/0, quarantine);
    if (!decoded.ok()) continue;
    CheckAgreesWithBatchReader(csv, *decoded);
    CheckShapeAndCanonical(codec, *decoded, quarantine);
  }
  return 0;
}
