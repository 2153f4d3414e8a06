#ifndef CRH_DATA_DATASET_H_
#define CRH_DATA_DATASET_H_

/// \file dataset.h
/// The multi-source dataset container consumed by all conflict-resolution
/// algorithms in this library.
///
/// A Dataset bundles: the property Schema, the identities of N objects and
/// K sources, one observation ValueTable per source, per-property category
/// dictionaries, an optional ground-truth table (used for evaluation only,
/// never by the algorithms), and optional per-object timestamps used to cut
/// the data into chunks for the streaming (I-CRH) scenario.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/value.h"
#include "data/category_dict.h"
#include "data/schema.h"
#include "data/table.h"

namespace crh {

/// Multi-source observations about N objects x M properties from K sources.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a dataset with the given schema, object names and source names.
  /// Every source starts with an all-missing observation table.
  Dataset(Schema schema, std::vector<std::string> object_ids,
          std::vector<std::string> source_ids);

  /// The property schema.
  const Schema& schema() const { return schema_; }

  /// Number of objects (N).
  size_t num_objects() const { return object_ids_.size(); }
  /// Number of properties (M).
  size_t num_properties() const { return schema_.num_properties(); }
  /// Number of sources (K).
  size_t num_sources() const { return source_ids_.size(); }
  /// Number of entries (N * M).
  size_t num_entries() const { return num_objects() * num_properties(); }

  /// Name of the i-th object.
  const std::string& object_id(size_t i) const {
    CRH_DCHECK_LT(i, object_ids_.size());
    return object_ids_[i];
  }
  /// Name of the k-th source.
  const std::string& source_id(size_t k) const {
    CRH_DCHECK_LT(k, source_ids_.size());
    return source_ids_[k];
  }

  /// All object names, in index order.
  const std::vector<std::string>& object_ids() const { return object_ids_; }
  /// All source names, in index order.
  const std::vector<std::string>& source_ids() const { return source_ids_; }

  /// Observation table of source k (X^(k)).
  const ValueTable& observations(size_t k) const {
    CRH_DCHECK_LT(k, observations_.size());
    return observations_[k];
  }
  ValueTable& mutable_observations(size_t k) {
    CRH_DCHECK_LT(k, observations_.size());
    return observations_[k];
  }

  /// Records one observation v^(k)_im.
  void SetObservation(size_t k, size_t i, size_t m, Value v) {
    observations_[k].Set(i, m, v);
  }

  /// Total number of non-missing observations across all sources.
  size_t num_observations() const;

  /// Category dictionary of property m (empty for continuous properties).
  const CategoryDict& dict(size_t m) const {
    CRH_DCHECK_LT(m, dicts_.size());
    return dicts_[m];
  }
  CategoryDict& mutable_dict(size_t m) {
    CRH_DCHECK_LT(m, dicts_.size());
    return dicts_[m];
  }

  /// Interns a label for categorical property m and returns its Value.
  Value InternCategorical(size_t m, std::string_view label) {
    return Value::Categorical(dicts_[m].GetOrAdd(label));
  }

  /// True iff a ground-truth table is attached.
  bool has_ground_truth() const { return ground_truth_.has_value(); }
  /// The ground-truth table; cells may be missing (= unlabeled entries).
  const ValueTable& ground_truth() const {
    CRH_DCHECK(has_ground_truth());
    return *ground_truth_;
  }
  /// Attaches a ground-truth table (N x M). Used by evaluation only.
  void set_ground_truth(ValueTable truth) { ground_truth_ = std::move(truth); }
  /// Number of labeled ground-truth entries.
  size_t num_ground_truths() const {
    return has_ground_truth() ? ground_truth_->CountPresent() : 0;
  }

  /// True iff per-object timestamps are attached (streaming scenario).
  bool has_timestamps() const { return !timestamps_.empty(); }
  /// Timestamp (chunk key) of object i.
  int64_t timestamp(size_t i) const {
    CRH_DCHECK_LT(i, timestamps_.size());
    return timestamps_[i];
  }
  /// Attaches per-object timestamps; size must equal num_objects().
  [[nodiscard]] Status set_timestamps(std::vector<int64_t> timestamps);
  /// Sorted list of the distinct timestamps present.
  std::vector<int64_t> DistinctTimestamps() const;

  /// Checks structural invariants: table shapes match N x M, categorical
  /// cells hold valid dictionary ids, continuous cells are finite, and the
  /// type of every cell matches its property's declared type.
  [[nodiscard]] Status Validate() const;

 private:
  Schema schema_;
  std::vector<std::string> object_ids_;
  std::vector<std::string> source_ids_;
  std::vector<ValueTable> observations_;
  std::vector<CategoryDict> dicts_;
  std::optional<ValueTable> ground_truth_;
  std::vector<int64_t> timestamps_;
};

}  // namespace crh

#endif  // CRH_DATA_DATASET_H_
