#include "relational/schema.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/check.h"

namespace ppr {

Schema::Schema(std::vector<AttrId> attrs) : attrs_(std::move(attrs)) {
  // Ids below 64 are checked against a bitmask of the ones seen; any
  // other id against every attribute before it.
  uint64_t seen = 0;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    const AttrId a = attrs_[i];
    if (a >= 0 && a < 64) {
      PPR_CHECK(((seen >> a) & 1) == 0);
      seen |= uint64_t{1} << a;
      continue;
    }
    for (size_t j = 0; j < i; ++j) PPR_CHECK(attrs_[j] != a);
  }
}

int Schema::IndexOf(AttrId attr) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

std::vector<AttrId> Schema::CommonAttrs(const Schema& other) const {
  std::vector<AttrId> out;
  for (AttrId a : attrs_) {
    if (other.Contains(a)) out.push_back(a);
  }
  return out;
}

std::vector<AttrId> Schema::AttrsNotIn(const Schema& other) const {
  std::vector<AttrId> out;
  for (AttrId a : attrs_) {
    if (!other.Contains(a)) out.push_back(a);
  }
  return out;
}

bool Schema::SameAttrSet(const Schema& other) const {
  if (arity() != other.arity()) return false;
  return std::all_of(attrs_.begin(), attrs_.end(),
                     [&](AttrId a) { return other.Contains(a); });
}

std::string Schema::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "x" << attrs_[i];
  }
  out << ")";
  return out.str();
}

}  // namespace ppr
