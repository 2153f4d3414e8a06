#include "data/id_index.h"

#include <functional>
#include <limits>

#include "common/check.h"

namespace crh {

IdIndex::IdIndex(const std::vector<std::string>& ids) { Rehash(ids, ids.size()); }

size_t IdIndex::Find(std::string_view name, const std::vector<std::string>& ids) const {
  if (slots_.empty()) return kNotFound;
  const uint32_t entry = slots_[Probe(name, ids)];
  return entry == 0 ? kNotFound : entry - 1;
}

size_t IdIndex::FindOrAdd(std::string_view name, std::vector<std::string>* ids) {
  if (2 * (size_ + 1) > slots_.size()) Rehash(*ids, size_ + 1);
  const size_t slot = Probe(name, *ids);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  CRH_CHECK_LT(ids->size(), size_t{std::numeric_limits<uint32_t>::max()});
  ids->emplace_back(name);
  slots_[slot] = static_cast<uint32_t>(ids->size());
  ++size_;
  return ids->size() - 1;
}

size_t IdIndex::Probe(std::string_view name, const std::vector<std::string>& ids) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (slots_[slot] != 0 && ids[slots_[slot] - 1] != name) slot = (slot + 1) & mask;
  return slot;
}

void IdIndex::Rehash(const std::vector<std::string>& ids, size_t count) {
  CRH_CHECK_LE(ids.size(), size_t{std::numeric_limits<uint32_t>::max()});
  size_t capacity = 16;
  while (capacity < 2 * count) capacity *= 2;
  slots_.assign(capacity, 0);
  size_ = 0;
  for (size_t pos = 0; pos < ids.size(); ++pos) {
    const size_t slot = Probe(ids[pos], ids);
    if (slots_[slot] == 0) ++size_;
    slots_[slot] = static_cast<uint32_t>(pos + 1);
  }
}

}  // namespace crh
