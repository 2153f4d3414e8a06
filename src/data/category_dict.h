#ifndef CRH_DATA_CATEGORY_DICT_H_
#define CRH_DATA_CATEGORY_DICT_H_

/// \file category_dict.h
/// String-label interning for categorical properties.
///
/// Categorical observations are stored as dense CategoryIds local to their
/// property. The CategoryDict maps labels <-> ids; keeping ids dense lets
/// the solver represent probability vectors (Eq 11-12 of the paper) as
/// plain arrays indexed by CategoryId.

#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "data/id_index.h"

namespace crh {

/// Bidirectional label <-> CategoryId map for one categorical property.
class CategoryDict {
 public:
  /// Returns the id of \p label, interning it if new.
  CategoryId GetOrAdd(std::string_view label) {
    return static_cast<CategoryId>(index_.FindOrAdd(label, &labels_));
  }

  /// Returns the id of \p label, or kInvalidCategory if not interned.
  CategoryId Find(std::string_view label) const {
    const size_t id = index_.Find(label, labels_);
    return id == IdIndex::kNotFound ? kInvalidCategory : static_cast<CategoryId>(id);
  }

  /// The label for an interned id. Precondition: 0 <= id < size().
  const std::string& label(CategoryId id) const {
    return labels_[static_cast<size_t>(id)];
  }

  /// Number of distinct labels (L_m in the paper).
  size_t size() const { return labels_.size(); }

  bool empty() const { return labels_.empty(); }

 private:
  std::vector<std::string> labels_;
  IdIndex index_;  ///< Over labels_.
};

}  // namespace crh

#endif  // CRH_DATA_CATEGORY_DICT_H_
