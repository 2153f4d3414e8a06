#include "data/schema.h"

namespace crh {

Status Schema::AddProperty(Property property) {
  if (property.name.empty()) {
    return Status::InvalidArgument("property name must be non-empty");
  }
  if (FindProperty(property.name) >= 0) {
    return Status::AlreadyExists("property '" + property.name + "' already defined");
  }
  properties_.push_back(std::move(property));
  return Status::OK();
}

int Schema::FindProperty(std::string_view name) const {
  // A schema holds a handful of properties: a scan beats hashing the name.
  for (size_t m = 0; m < properties_.size(); ++m) {
    if (properties_[m].name == name) return static_cast<int>(m);
  }
  return -1;
}

std::vector<size_t> Schema::PropertiesOfType(PropertyType type) const {
  std::vector<size_t> out;
  for (size_t m = 0; m < properties_.size(); ++m) {
    if (properties_[m].type == type) out.push_back(m);
  }
  return out;
}

}  // namespace crh
