#include "query/conjunctive_query.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "common/check.h"

namespace ppr {

std::vector<AttrId> Atom::DistinctAttrs() const {
  std::vector<AttrId> out;
  out.reserve(args.size());
  for (AttrId a : args) {
    if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  }
  return out;
}

bool Atom::UsesAttr(AttrId attr) const {
  return std::find(args.begin(), args.end(), attr) != args.end();
}

std::string Atom::ToString() const {
  std::ostringstream out;
  out << relation << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ", ";
    out << "x" << args[i];
  }
  out << ")";
  return out.str();
}

ConjunctiveQuery::ConjunctiveQuery(std::vector<Atom> atoms,
                                   std::vector<AttrId> free_vars)
    : atoms_(std::move(atoms)) {
  SetFreeVars(std::move(free_vars));
}

void ConjunctiveQuery::SetFreeVars(std::vector<AttrId> free_vars) {
  for (size_t i = 0; i < free_vars.size(); ++i) {
    for (size_t j = i + 1; j < free_vars.size(); ++j) {
      PPR_CHECK(free_vars[i] != free_vars[j]);
    }
  }
  free_vars_ = std::move(free_vars);
}

std::vector<AttrId> ConjunctiveQuery::AllAttrs() const {
  size_t uses = free_vars_.size();
  for (const Atom& atom : atoms_) uses += atom.args.size();
  std::vector<AttrId> out;
  out.reserve(uses);
  for (const Atom& atom : atoms_) {
    out.insert(out.end(), atom.args.begin(), atom.args.end());
  }
  out.insert(out.end(), free_vars_.begin(), free_vars_.end());
  SortUniqueAttrs(&out);
  return out;
}

bool ConjunctiveQuery::UsesAttr(AttrId attr) const {
  if (std::find(free_vars_.begin(), free_vars_.end(), attr) !=
      free_vars_.end()) {
    return true;
  }
  return std::any_of(atoms_.begin(), atoms_.end(),
                     [&](const Atom& a) { return a.UsesAttr(attr); });
}

Status ConjunctiveQuery::Validate(const Database& db) const {
  // Atoms naming the relation of the atom before them reuse its lookup.
  const Atom* prev = nullptr;
  const Relation* stored = nullptr;
  for (const Atom& atom : atoms_) {
    if (prev == nullptr || atom.relation != prev->relation) {
      Result<const Relation*> rel = db.Get(atom.relation);
      if (!rel.ok()) return rel.status();
      stored = *rel;
    }
    prev = &atom;
    if (stored->arity() != static_cast<int>(atom.args.size())) {
      return Status::InvalidArgument("atom " + atom.ToString() +
                                     " has wrong arity for relation '" +
                                     atom.relation + "'");
    }
    for (AttrId a : atom.args) {
      if (a < 0) return Status::InvalidArgument("negative attribute id");
    }
  }
  for (AttrId v : free_vars_) {
    bool found = std::any_of(atoms_.begin(), atoms_.end(),
                             [&](const Atom& a) { return a.UsesAttr(v); });
    if (!found) {
      return Status::InvalidArgument("free variable not used by any atom");
    }
  }
  return Status::Ok();
}

std::string ConjunctiveQuery::ToString() const {
  std::ostringstream out;
  out << "pi_{";
  for (size_t i = 0; i < free_vars_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "x" << free_vars_[i];
  }
  out << "} ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out << " |><| ";
    out << atoms_[i].ToString();
  }
  return out.str();
}

void SortUniqueAttrs(std::vector<AttrId>* attrs) {
  uint64_t marks[4] = {0, 0, 0, 0};
  for (AttrId a : *attrs) {
    if (a < 0 || a >= 256) {
      std::sort(attrs->begin(), attrs->end());
      attrs->erase(std::unique(attrs->begin(), attrs->end()), attrs->end());
      return;
    }
    marks[a >> 6] |= uint64_t{1} << (a & 63);
  }
  attrs->clear();
  for (int w = 0; w < 4; ++w) {
    for (uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
      attrs->push_back(w * 64 + std::countr_zero(bits));
    }
  }
}

Graph BuildJoinGraph(const ConjunctiveQuery& query) {
  AttrId max_attr = -1;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) {
      PPR_CHECK(a >= 0);
      max_attr = std::max(max_attr, a);
    }
  }
  for (AttrId a : query.free_vars()) max_attr = std::max(max_attr, a);

  Graph g(max_attr + 1);
  for (const Atom& atom : query.atoms()) {
    const std::vector<AttrId> attrs = atom.DistinctAttrs();
    for (size_t i = 0; i < attrs.size(); ++i) {
      for (size_t j = i + 1; j < attrs.size(); ++j) {
        g.AddEdge(attrs[i], attrs[j]);
      }
    }
  }
  const std::vector<AttrId>& free = query.free_vars();
  for (size_t i = 0; i < free.size(); ++i) {
    for (size_t j = i + 1; j < free.size(); ++j) {
      g.AddEdge(free[i], free[j]);
    }
  }
  return g;
}

}  // namespace ppr
