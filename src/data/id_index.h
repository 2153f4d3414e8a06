#ifndef CRH_DATA_ID_INDEX_H_
#define CRH_DATA_ID_INDEX_H_

/// \file id_index.h
/// Name -> position lookup over a caller-owned list of strings.
///
/// Object ids, source ids and category labels all live in plain
/// `std::vector<std::string>` lists (Dataset, CategoryDict). IdIndex is the
/// one hash index over such a list: an open-addressing table of positions
/// (4 bytes a slot, load at most 1/2, linear probing) that never stores the
/// strings themselves. Lookups take a `std::string_view`, so callers can
/// probe with a view into a CSV line without building a std::string.
///
/// Because the table holds positions, not pointers, it stays valid when the
/// list reallocates, moves or is copied together with the index; the price
/// is that every call names the list it indexes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace crh {

class IdIndex {
 public:
  /// Returned by Find for a name the list does not hold.
  static constexpr size_t kNotFound = ~size_t{0};

  IdIndex() = default;

  /// Indexes every string of `ids`. A repeated string maps to its last
  /// position, as assigning `index[id] = i` in order would.
  explicit IdIndex(const std::vector<std::string>& ids);

  /// Position of `name` in `ids` (the list this index was built over), or
  /// kNotFound.
  size_t Find(std::string_view name, const std::vector<std::string>& ids) const;

  /// Position of `name`, appending it to `*ids` and indexing it first when
  /// absent. New names therefore get positions in first-appearance order.
  size_t FindOrAdd(std::string_view name, std::vector<std::string>* ids);

 private:
  /// The slot holding `name`, or the empty slot that ends its probe run.
  /// Precondition: the table is non-empty.
  size_t Probe(std::string_view name, const std::vector<std::string>& ids) const;
  /// Rebuilds the table with room for `count` names at load <= 1/2.
  void Rehash(const std::vector<std::string>& ids, size_t count);

  std::vector<uint32_t> slots_;  ///< Position + 1; 0 marks an empty slot.
  size_t size_ = 0;              ///< Occupied slots.
};

}  // namespace crh

#endif  // CRH_DATA_ID_INDEX_H_
