#ifndef CRH_COMMON_VALUE_H_
#define CRH_COMMON_VALUE_H_

/// \file value.h
/// The heterogeneous observation value type.
///
/// CRH integrates data whose properties have different types. A Value holds
/// either a continuous reading (double), a categorical label (an interned
/// CategoryId local to its property's dictionary), or nothing (a missing
/// observation). The type is deliberately small (16 bytes) so observation
/// tables with tens of millions of cells stay compact.

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

namespace crh {

/// Data type of a property; decides which loss function / resolver applies.
enum class PropertyType : uint8_t {
  kContinuous = 0,
  kCategorical = 1,
  /// Free-form string data (names, addresses, titles). Stored as interned
  /// labels like categorical data, but compared by normalized edit
  /// distance rather than 0-1 equality (Section 2.4's "edit distance for
  /// text data").
  kText = 2,
};

/// Returns "continuous", "categorical" or "text".
const char* PropertyTypeToString(PropertyType type);

/// Interned identifier of a categorical label within one property's
/// CategoryDict. Ids are dense and start at 0.
using CategoryId = int32_t;

/// Sentinel CategoryId meaning "no label".
inline constexpr CategoryId kInvalidCategory = -1;

/// A single observation cell: continuous, categorical, or missing.
class Value {
 public:
  /// Constructs a missing value.
  Value() = default;

  /// Constructs a continuous value.
  static Value Continuous(double v) {
    Value out;
    out.kind_ = Kind::kContinuous;
    out.continuous_ = v;
    return out;
  }

  /// Constructs a categorical value from an interned id.
  static Value Categorical(CategoryId id) {
    Value out;
    out.kind_ = Kind::kCategorical;
    out.category_ = id;
    return out;
  }

  /// Constructs a missing value (same as the default constructor).
  static Value Missing() { return Value(); }

  /// True iff no observation is present.
  bool is_missing() const { return kind_ == Kind::kMissing; }
  /// True iff the value is a continuous reading.
  bool is_continuous() const { return kind_ == Kind::kContinuous; }
  /// True iff the value is a categorical label.
  bool is_categorical() const { return kind_ == Kind::kCategorical; }

  /// The continuous reading; only valid when is_continuous().
  double continuous() const { return continuous_; }
  /// The categorical id; only valid when is_categorical().
  CategoryId category() const { return category_; }

  /// Exact equality. Missing compares equal only to missing; continuous
  /// values compare with ==, so callers needing tolerance should compare
  /// the doubles themselves.
  bool operator==(const Value& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case Kind::kMissing:
        return true;
      case Kind::kContinuous:
        // Value identity is intentionally exact: two claims are the same
        // claim only when bit-equal; tolerant comparison is a loss-function
        // concern, not an identity concern.
        return continuous_ == other.continuous_;  // analyzer:allow(float-equality)
      case Kind::kCategorical:
        return category_ == other.category_;
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Debug representation: "missing", "3.25", or "#7".
  std::string ToString() const;

  /// Hash suitable for unordered containers keyed by Value.
  size_t Hash() const {
    switch (kind_) {
      case Kind::kMissing:
        return 0x9e3779b97f4a7c15ull;
      case Kind::kContinuous:
        return std::hash<double>{}(continuous_);
      case Kind::kCategorical:
        return std::hash<int64_t>{}(0x517cc1b727220a95ll ^ category_);
    }
    return 0;
  }

 private:
  enum class Kind : uint8_t { kMissing = 0, kContinuous = 1, kCategorical = 2 };

  Kind kind_ = Kind::kMissing;
  union {
    double continuous_;
    CategoryId category_ = kInvalidCategory;
  };
};

/// std::hash adapter so Value can key unordered_map / unordered_set.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace crh

#endif  // CRH_COMMON_VALUE_H_
