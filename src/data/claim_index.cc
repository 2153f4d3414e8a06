#include "data/claim_index.h"

#include <algorithm>
#include <limits>

namespace crh {
namespace {

// Unboxed lane values for one claim (see the header's layout comment).
double NumericLane(const Value& v) {
  return v.is_continuous() ? v.continuous() : std::numeric_limits<double>::quiet_NaN();
}

CategoryId LabelLane(const Value& v) {
  return v.is_categorical() ? v.category() : kInvalidCategory;
}

}  // namespace

ClaimIndex ClaimIndex::Build(const Dataset& data) {
  ClaimIndex index;
  index.num_objects_ = data.num_objects();
  index.num_properties_ = data.num_properties();
  const size_t num_entries = index.num_entries();
  const size_t k_sources = data.num_sources();
  CRH_CHECK_LE(k_sources, size_t{std::numeric_limits<uint32_t>::max()});

  // Pass 1: claims per entry. Table cells are row-major over (i, m), so a
  // flat cell index IS the entry id.
  std::vector<size_t> counts(num_entries, 0);
  for (size_t k = 0; k < k_sources; ++k) {
    const std::vector<Value>& cells = data.observations(k).cells();
    CRH_DCHECK_EQ(cells.size(), num_entries);
    for (size_t e = 0; e < num_entries; ++e) {
      if (!cells[e].is_missing()) ++counts[e];
    }
  }

  index.offsets_.assign(num_entries + 1, 0);
  for (size_t e = 0; e < num_entries; ++e) {
    index.offsets_[e + 1] = index.offsets_[e] + counts[e];
    index.max_span_size_ = std::max(index.max_span_size_, counts[e]);
  }
  const size_t num_claims = index.offsets_[num_entries];
  index.sources_.resize(num_claims);
  index.values_.resize(num_claims);
  index.numeric_.resize(num_claims);
  index.labels_.resize(num_claims);

  // Pass 2: fill. Iterating k ascending in the outer loop leaves each
  // entry's claims sorted by source id, matching a dense K-scan's order.
  std::vector<size_t> cursor = index.offsets_;  // drops the trailing total
  for (size_t k = 0; k < k_sources; ++k) {
    const std::vector<Value>& cells = data.observations(k).cells();
    for (size_t e = 0; e < num_entries; ++e) {
      if (cells[e].is_missing()) continue;
      const size_t at = cursor[e]++;
      index.sources_[at] = static_cast<uint32_t>(k);
      index.values_[at] = cells[e];
      index.numeric_[at] = NumericLane(cells[e]);
      index.labels_[at] = LabelLane(cells[e]);
    }
  }
  return index;
}

ClaimIndex ClaimIndex::CreateEmpty(size_t num_objects, size_t num_properties) {
  ClaimIndex index;
  index.num_objects_ = num_objects;
  index.num_properties_ = num_properties;
  index.offsets_.assign(index.num_entries() + 1, 0);
  return index;
}

void ClaimIndex::Append(const Dataset& chunk, const std::vector<size_t>& parent_object) {
  CRH_CHECK_EQ(chunk.num_properties(), num_properties_);
  CRH_CHECK_EQ(parent_object.size(), chunk.num_objects());
  const size_t num_entries = this->num_entries();
  const size_t m_props = num_properties_;
  const size_t chunk_objects = chunk.num_objects();
  const size_t k_sources = chunk.num_sources();
  CRH_CHECK_LE(k_sources, size_t{std::numeric_limits<uint32_t>::max()});

  // Stage the chunk's claims as their own small CSR over PARENT entry ids,
  // sorted by source within each entry (outer k ascending, as in Build).
  std::vector<size_t> added(num_entries, 0);
  size_t batch_total = 0;
  for (size_t k = 0; k < k_sources; ++k) {
    const std::vector<Value>& cells = chunk.observations(k).cells();
    CRH_DCHECK_EQ(cells.size(), chunk_objects * m_props);
    for (size_t local = 0; local < chunk_objects; ++local) {
      const size_t parent = parent_object[local];
      CRH_CHECK_LT(parent, num_objects_);
      for (size_t m = 0; m < m_props; ++m) {
        if (cells[local * m_props + m].is_missing()) continue;
        ++added[parent * m_props + m];
        ++batch_total;
      }
    }
  }
  if (batch_total == 0) return;

  std::vector<size_t> batch_offsets(num_entries + 1, 0);
  for (size_t e = 0; e < num_entries; ++e) {
    batch_offsets[e + 1] = batch_offsets[e] + added[e];
  }
  std::vector<uint32_t> batch_sources(batch_total);
  std::vector<Value> batch_values(batch_total);
  std::vector<size_t> batch_cursor = batch_offsets;
  for (size_t k = 0; k < k_sources; ++k) {
    const std::vector<Value>& cells = chunk.observations(k).cells();
    for (size_t local = 0; local < chunk_objects; ++local) {
      const size_t base = parent_object[local] * m_props;
      for (size_t m = 0; m < m_props; ++m) {
        const Value& v = cells[local * m_props + m];
        if (v.is_missing()) continue;
        const size_t at = batch_cursor[base + m]++;
        batch_sources[at] = static_cast<uint32_t>(k);
        batch_values[at] = v;
      }
    }
  }

  // Grow the claim arrays geometrically so a chunk stream costs amortized
  // O(1) per claim in reallocation, then slide spans right in place. Only
  // when full: doubling on every append would double the capacity per
  // chunk and exhaust memory a few dozen chunks into a stream.
  const size_t old_total = values_.size();
  const size_t new_total = old_total + batch_total;
  if (new_total > values_.capacity()) {
    const size_t grown = std::max(new_total, values_.capacity() * 2);
    sources_.reserve(grown);
    values_.reserve(grown);
    numeric_.reserve(grown);
    labels_.reserve(grown);
  }
  sources_.resize(new_total);
  values_.resize(new_total);
  numeric_.resize(new_total);
  labels_.resize(new_total);

  // Merge entry by entry from the BACK. Writing entry e's merged span
  // backward from its new end never clobbers unread old claims: the write
  // cursor stays ahead of the old read cursor by exactly the number of
  // batch claims still to be placed at or below entry e (>= 0).
  size_t write = new_total;
  size_t shift = batch_total;  // batch claims destined for entries <= e
  for (size_t e = num_entries; e-- > 0;) {
    const size_t old_begin = offsets_[e];
    size_t old_read = offsets_[e + 1];          // one past the old span
    size_t batch_read = batch_offsets[e + 1];   // one past the batch span
    const size_t batch_begin = batch_offsets[e];
    while (old_read > old_begin || batch_read > batch_begin) {
      const bool take_batch =
          batch_read > batch_begin &&
          (old_read == old_begin || batch_sources[batch_read - 1] > sources_[old_read - 1]);
      --write;
      if (take_batch) {
        --batch_read;
        --shift;
        sources_[write] = batch_sources[batch_read];
        values_[write] = batch_values[batch_read];
        numeric_[write] = NumericLane(batch_values[batch_read]);
        labels_[write] = LabelLane(batch_values[batch_read]);
      } else {
        --old_read;
        // A duplicate (entry, source) pair would make the union ill-defined.
        CRH_CHECK(batch_read == batch_begin ||
                  batch_sources[batch_read - 1] != sources_[old_read]);
        sources_[write] = sources_[old_read];
        values_[write] = values_[old_read];
        numeric_[write] = numeric_[old_read];
        labels_[write] = labels_[old_read];
      }
    }
    // The span's new end is its old end plus every batch claim below it.
    offsets_[e + 1] += shift + (batch_offsets[e + 1] - batch_begin);
    max_span_size_ = std::max(max_span_size_, offsets_[e + 1] - write);
  }
  CRH_DCHECK_EQ(write, size_t{0});
  CRH_DCHECK_EQ(shift, size_t{0});
  CRH_DCHECK_EQ(offsets_[num_entries], new_total);
}

}  // namespace crh
