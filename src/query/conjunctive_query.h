#ifndef PPR_QUERY_CONJUNCTIVE_QUERY_H_
#define PPR_QUERY_CONJUNCTIVE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"
#include "relational/database.h"

namespace ppr {

/// One atom of a conjunctive query: a stored relation name applied to a
/// list of attributes, e.g. edge(v1, v2). Repeated attributes are allowed
/// (edge(x, x)) and mean an equality selection.
struct Atom {
  std::string relation;
  std::vector<AttrId> args;

  /// The distinct attributes of the atom in first-occurrence order — the
  /// schema the atom contributes to the join.
  std::vector<AttrId> DistinctAttrs() const;

  bool UsesAttr(AttrId attr) const;

  /// Renders "edge(x1, x2)".
  std::string ToString() const;
};

/// A project-join (conjunctive) query
///     pi_{x1..xn} (R_1 |><| ... |><| R_m),
/// the paper's query class. `free_vars` is the target schema S_Q; an empty
/// target schema makes the query Boolean (Section 2 emulates Boolean
/// queries in SQL by selecting a single variable, but the algebra here
/// supports a genuinely empty projection).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  /// Constructs a query from atoms and free variables.
  ConjunctiveQuery(std::vector<Atom> atoms, std::vector<AttrId> free_vars);

  void AddAtom(Atom atom) { atoms_.push_back(std::move(atom)); }
  void SetFreeVars(std::vector<AttrId> free_vars);

  const std::vector<Atom>& atoms() const { return atoms_; }
  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  const std::vector<AttrId>& free_vars() const { return free_vars_; }
  bool IsBoolean() const { return free_vars_.empty(); }

  /// All attributes appearing in atoms or the target schema, sorted and
  /// deduplicated.
  std::vector<AttrId> AllAttrs() const;

  /// True when `attr` appears in some atom or in the target schema.
  bool UsesAttr(AttrId attr) const;

  /// Checks the query against a database: every atom's relation must exist
  /// with matching arity, and every free variable must appear in some atom.
  Status Validate(const Database& db) const;

  /// Renders "pi_{x0} edge(x0, x1) |><| ...".
  std::string ToString() const;

 private:
  std::vector<Atom> atoms_;
  std::vector<AttrId> free_vars_;
};

/// Sorts `attrs` ascending and drops repeats. Ids below 256 — every id of
/// a canonical query of up to 256 attributes — are marked in a bitset and
/// read back in order; any other id makes it sort.
void SortUniqueAttrs(std::vector<AttrId>* attrs);

/// Builds the join graph G_Q of Section 5: one node per attribute
/// (0..max attr id), an edge for every pair of attributes co-occurring in
/// an atom, plus a clique over the target schema. Its treewidth
/// characterizes the best achievable intermediate arity (Theorem 1:
/// join width = tw(G_Q) + 1).
Graph BuildJoinGraph(const ConjunctiveQuery& query);

}  // namespace ppr

#endif  // PPR_QUERY_CONJUNCTIVE_QUERY_H_
