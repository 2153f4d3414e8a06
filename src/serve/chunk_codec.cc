#include "serve/chunk_codec.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "data/csv.h"

namespace crh {

namespace {

/// Universe object index -> chunk slot, slots in first-appearance order.
/// A chunk names a few hundred objects of a universe that may hold
/// millions, so this is a small open-addressing table sized to the chunk.
class ChunkObjects {
 public:
  /// Slot of universe object `object`, assigning the next slot if new.
  uint32_t SlotOf(uint32_t object) {
    if (2 * (objects_.size() + 1) > table_.size()) Grow();
    size_t i = Home(object);
    while (table_[i] != 0) {
      if (objects_[table_[i] - 1] == object) return table_[i] - 1;
      i = (i + 1) & (table_.size() - 1);
    }
    objects_.push_back(object);
    table_[i] = static_cast<uint32_t>(objects_.size());
    return table_[i] - 1;
  }

  /// Universe indices by slot.
  const std::vector<uint32_t>& objects() const { return objects_; }

 private:
  size_t Home(uint32_t object) const {
    return static_cast<size_t>((uint64_t{object} * 0x9e3779b97f4a7c15ull) >> 32) &
           (table_.size() - 1);
  }

  void Grow() {
    table_.assign(std::max<size_t>(256, 2 * table_.size()), 0);
    for (size_t slot = 0; slot < objects_.size(); ++slot) {
      size_t i = Home(objects_[slot]);
      while (table_[i] != 0) i = (i + 1) & (table_.size() - 1);
      table_[i] = static_cast<uint32_t>(slot + 1);
    }
  }

  std::vector<uint32_t> objects_;
  std::vector<uint32_t> table_;  ///< Slot + 1; 0 marks an empty entry.
};

}  // namespace

ChunkCodec::ChunkCodec(const Dataset& universe)
    : universe_(&universe),
      object_index_(universe.object_ids()),
      source_index_(universe.source_ids()) {}

Result<DataChunk> ChunkCodec::Decode(std::string_view csv, int64_t window_start,
                                     bool quarantine_bad_claims) const {
  if (csv.size() > kMaxChunkCsvBytes) {
    return Status::OutOfRange(
        "ingested chunk CSV is " + std::to_string(csv.size()) +
        " bytes; the limit is " + std::to_string(kMaxChunkCsvBytes));
  }
  const Schema& schema = universe_->schema();
  struct Claim {
    uint32_t slot, source, property;
    Value value;
  };
  std::vector<Claim> claims;
  ChunkObjects objects;
  std::vector<bool> source_named(universe_->num_sources(), false);
  size_t sources_named = 0;
  // Names the universe lacks still count towards the bounds check, so an
  // oversized chunk is kOutOfRange however its extra names are spelled;
  // only the first such row is reported otherwise.
  std::vector<std::string> unknown_objects, unknown_sources;
  IdIndex unknown_object_index, unknown_source_index;
  Status first_unknown;
  const auto first_bad_line = [&first_unknown](Status status) {
    return first_unknown.ok() ? status : first_unknown;
  };

  CsvTokenizer tokenizer(csv);
  CRH_RETURN_NOT_OK(tokenizer.ReadHeader());
  while (true) {
    auto more = tokenizer.NextRow();
    if (!more.ok()) return first_bad_line(more.status());
    if (!*more) break;
    const Status fields = tokenizer.ExpectFields(4);
    if (!fields.ok()) return first_bad_line(fields);
    const int m = schema.FindProperty(tokenizer.field(1));
    if (m < 0) {
      return first_bad_line(tokenizer.LineError(
          "unknown property '" + std::string(tokenizer.field(1)) + "'"));
    }
    const size_t property = static_cast<size_t>(m);
    const size_t object = FindObject(tokenizer.field(0));
    const size_t source = FindSource(tokenizer.field(2));
    uint32_t slot = 0;
    if (object == IdIndex::kNotFound) {
      unknown_object_index.FindOrAdd(tokenizer.field(0), &unknown_objects);
      if (first_unknown.ok()) {
        first_unknown = tokenizer.LineError("ingested chunk names object '" +
                                            std::string(tokenizer.field(0)) +
                                            "' absent from the universe");
      }
    } else {
      slot = objects.SlotOf(static_cast<uint32_t>(object));
    }
    if (source == IdIndex::kNotFound) {
      unknown_source_index.FindOrAdd(tokenizer.field(2), &unknown_sources);
      if (first_unknown.ok()) {
        first_unknown = tokenizer.LineError("ingested chunk names source '" +
                                            std::string(tokenizer.field(2)) +
                                            "' absent from the universe");
      }
    } else if (!source_named[source]) {
      source_named[source] = true;
      ++sources_named;
    }
    const size_t named_objects = objects.objects().size() + unknown_objects.size();
    const size_t named_sources = sources_named + unknown_sources.size();
    if (named_objects > universe_->num_objects() ||
        named_sources > universe_->num_sources()) {
      return Status::OutOfRange(
          "ingested chunk names " + std::to_string(named_objects) + " objects / " +
          std::to_string(named_sources) + " sources, more than the universe holds (" +
          std::to_string(universe_->num_objects()) + " / " +
          std::to_string(universe_->num_sources()) + ")");
    }
    if (!first_unknown.ok()) continue;  // only counting names from here on

    const std::string_view text = tokenizer.field(3);
    Value value;
    if (schema.is_discrete(property)) {
      const CategoryId id = universe_->dict(property).Find(text);
      if (id == kInvalidCategory && !quarantine_bad_claims) {
        return tokenizer.LineError(
            "ingested chunk uses label '" + std::string(text) + "' for property '" +
            schema.property(property).name +
            "' that the universe has never seen (enable quarantine to shed such "
            "claims instead)");
      }
      value = Value::Categorical(id);
    } else {
      double parsed = 0;
      if (!ParseContinuousCell(text, &parsed)) {
        return tokenizer.LineError("cannot parse continuous value '" + std::string(text) +
                                   "'");
      }
      value = Value::Continuous(parsed);
    }
    claims.push_back({slot, static_cast<uint32_t>(source), static_cast<uint32_t>(property),
                      value});
  }
  if (!first_unknown.ok()) return first_unknown;

  // Chunk objects in ascending universe order, the order SplitByWindow
  // emits, so iteration order — and therefore every reduction — matches
  // the batch path bit for bit.
  const std::vector<uint32_t>& named = objects.objects();
  std::vector<std::pair<uint32_t, uint32_t>> order;  // (universe index, slot)
  order.reserve(named.size());
  for (uint32_t slot = 0; slot < named.size(); ++slot) order.emplace_back(named[slot], slot);
  std::sort(order.begin(), order.end());
  std::vector<uint32_t> local_of_slot(named.size());
  DataChunk chunk;
  chunk.window_start = window_start;
  chunk.parent_object.reserve(order.size());
  std::vector<std::string> object_ids;
  object_ids.reserve(order.size());
  for (size_t local = 0; local < order.size(); ++local) {
    local_of_slot[order[local].second] = static_cast<uint32_t>(local);
    chunk.parent_object.push_back(order[local].first);
    object_ids.push_back(universe_->object_id(order[local].first));
  }
  chunk.data = Dataset(schema, std::move(object_ids), universe_->source_ids());
  for (size_t m = 0; m < schema.num_properties(); ++m) {
    chunk.data.mutable_dict(m) = universe_->dict(m);
  }
  // Row order: a repeated claim keeps its last value.
  for (const Claim& c : claims) {
    chunk.data.SetObservation(c.source, local_of_slot[c.slot], c.property, c.value);
  }
  return chunk;
}

}  // namespace crh
