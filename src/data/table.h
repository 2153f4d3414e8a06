#ifndef CRH_DATA_TABLE_H_
#define CRH_DATA_TABLE_H_

/// \file table.h
/// Dense N x M value tables with missing cells.
///
/// One ValueTable holds either the observations of a single source over all
/// objects and properties (X^(k) in the paper) or a truth table (X^(*)).
/// Missing observations are first-class: a cell defaults to Value::Missing()
/// and all downstream computations skip missing cells.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/value.h"

namespace crh {

/// A dense table of Values over (object, property) cells.
class ValueTable {
 public:
  ValueTable() = default;

  /// Creates a table of num_objects x num_properties missing cells.
  ValueTable(size_t num_objects, size_t num_properties)
      : num_objects_(num_objects),
        num_properties_(num_properties),
        cells_(num_objects * num_properties) {}

  /// Number of objects (rows, N).
  size_t num_objects() const { return num_objects_; }
  /// Number of properties (columns, M).
  size_t num_properties() const { return num_properties_; }

  /// The cell for object i, property m.
  const Value& Get(size_t i, size_t m) const {
    CRH_DCHECK_LT(i, num_objects_);
    CRH_DCHECK_LT(m, num_properties_);
    return cells_[i * num_properties_ + m];
  }

  /// Sets the cell for object i, property m.
  void Set(size_t i, size_t m, Value v) {
    CRH_DCHECK_LT(i, num_objects_);
    CRH_DCHECK_LT(m, num_properties_);
    cells_[i * num_properties_ + m] = v;
  }

  /// Marks the cell missing.
  void Clear(size_t i, size_t m) {
    CRH_DCHECK_LT(i, num_objects_);
    CRH_DCHECK_LT(m, num_properties_);
    cells_[i * num_properties_ + m] = Value::Missing();
  }

  /// Number of non-missing cells (observations this table contributes).
  size_t CountPresent() const {
    size_t n = 0;
    for (const Value& v : cells_) {
      if (!v.is_missing()) ++n;
    }
    return n;
  }

  /// Flat row-major cell storage, for bulk scans.
  const std::vector<Value>& cells() const { return cells_; }

 private:
  size_t num_objects_ = 0;
  size_t num_properties_ = 0;
  std::vector<Value> cells_;
};

/// A read-only copy of a ValueTable split into fixed-size row pages held
/// by shared_ptr. Copying the table copies page pointers, not cells, and
/// CopyRows replaces only the pages holding the given rows, so successive
/// versions share every page that no write touched (copy on write). The
/// serving daemon publishes its epoch snapshots this way: a chunk rewrites
/// about 100 rows of the truth table, and the pages around them are all a
/// publish copies.
class PagedValueTable {
 public:
  /// Rows per page. Small on purpose: a chunk's objects may lie far apart
  /// (2,000 rows apart in perfbench's serve_200k stream), and each one
  /// costs a whole page copy; docs/PERFORMANCE.md has the measurement.
  static constexpr size_t kPageRows = 64;

  PagedValueTable() = default;

  /// A paged copy of every row of `table`.
  explicit PagedValueTable(const ValueTable& table)
      : num_objects_(table.num_objects()), num_properties_(table.num_properties()) {
    pages_.reserve((num_objects_ + kPageRows - 1) / kPageRows);
    for (size_t first = 0; first < num_objects_; first += kPageRows) {
      pages_.push_back(CopyPage(table, first / kPageRows));
    }
  }

  /// Re-copies from `table` (same shape) the pages that hold `rows`; the
  /// pages are fresh, so copies of this table taken earlier keep the old
  /// ones. Rows may repeat and come in any order.
  void CopyRows(const ValueTable& table, std::span<const size_t> rows) {
    CRH_CHECK_EQ(table.num_objects(), num_objects_);
    CRH_CHECK_EQ(table.num_properties(), num_properties_);
    std::vector<size_t> pages(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) pages[r] = rows[r] / kPageRows;
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (const size_t page : pages) pages_[page] = CopyPage(table, page);
  }

  size_t num_objects() const { return num_objects_; }
  size_t num_properties() const { return num_properties_; }

  /// The cell for object i, property m.
  const Value& Get(size_t i, size_t m) const {
    CRH_DCHECK_LT(i, num_objects_);
    CRH_DCHECK_LT(m, num_properties_);
    return (*pages_[i / kPageRows])[(i % kPageRows) * num_properties_ + m];
  }

 private:
  using Page = std::vector<Value>;

  static std::shared_ptr<const Page> CopyPage(const ValueTable& table, size_t page) {
    const size_t m = table.num_properties();
    const size_t begin = page * kPageRows * m;
    const size_t end = std::min(begin + kPageRows * m, table.cells().size());
    return std::make_shared<const Page>(table.cells().begin() + static_cast<std::ptrdiff_t>(begin),
                                        table.cells().begin() + static_cast<std::ptrdiff_t>(end));
  }

  size_t num_objects_ = 0;
  size_t num_properties_ = 0;
  std::vector<std::shared_ptr<const Page>> pages_;
};

}  // namespace crh

#endif  // CRH_DATA_TABLE_H_
