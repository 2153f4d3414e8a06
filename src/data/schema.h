#ifndef CRH_DATA_SCHEMA_H_
#define CRH_DATA_SCHEMA_H_

/// \file schema.h
/// Typed property schema for multi-source datasets.
///
/// In CRH terminology (Definition 1): an *object* is described by M
/// *properties*; each property has a data type that determines the loss
/// function used for it. The Schema names the properties and records their
/// types plus optional per-property metadata used by generators and the
/// solver (rounding unit, i.e. the physical resolution values are reported
/// at: 1 for integer degrees, 0.01 for prices, ...).

#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/value.h"

namespace crh {

/// One property (column) of the object universe.
struct Property {
  /// Human-readable unique name, e.g. "high_temperature".
  std::string name;
  /// Data type; selects the loss function / truth resolver.
  PropertyType type = PropertyType::kContinuous;
  /// Physical resolution for continuous properties. Generators round
  /// injected noise to a multiple of this; 0 disables rounding.
  double rounding_unit = 0.0;
};

/// Ordered collection of uniquely named properties.
class Schema {
 public:
  Schema() = default;

  /// Appends a property. Fails with AlreadyExists on a duplicate name.
  [[nodiscard]] Status AddProperty(Property property);

  /// Convenience: appends a continuous property.
  [[nodiscard]] Status AddContinuous(const std::string& name, double rounding_unit = 0.0) {
    return AddProperty({name, PropertyType::kContinuous, rounding_unit});
  }

  /// Convenience: appends a categorical property.
  [[nodiscard]] Status AddCategorical(const std::string& name) {
    return AddProperty({name, PropertyType::kCategorical, 0.0});
  }

  /// Convenience: appends a text property (interned strings compared by
  /// normalized edit distance).
  [[nodiscard]] Status AddText(const std::string& name) {
    return AddProperty({name, PropertyType::kText, 0.0});
  }

  /// Number of properties (M).
  size_t num_properties() const { return properties_.size(); }

  /// The m-th property. Precondition: m < num_properties().
  const Property& property(size_t m) const {
    CRH_DCHECK_LT(m, properties_.size());
    return properties_[m];
  }

  /// Index of the property with the given name, or -1 if absent.
  int FindProperty(std::string_view name) const;

  /// True iff property m is categorical.
  bool is_categorical(size_t m) const {
    CRH_DCHECK_LT(m, properties_.size());
    return properties_[m].type == PropertyType::kCategorical;
  }

  /// True iff property m is continuous.
  bool is_continuous(size_t m) const {
    CRH_DCHECK_LT(m, properties_.size());
    return properties_[m].type == PropertyType::kContinuous;
  }

  /// True iff property m holds interned labels (categorical or text).
  bool is_discrete(size_t m) const { return !is_continuous(m); }

  /// Indices of all properties of the given type, in schema order.
  std::vector<size_t> PropertiesOfType(PropertyType type) const;

 private:
  std::vector<Property> properties_;
};

}  // namespace crh

#endif  // CRH_DATA_SCHEMA_H_
