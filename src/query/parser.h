#ifndef PPR_QUERY_PARSER_H_
#define PPR_QUERY_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"

namespace ppr {

/// A parsed query plus the mapping from attribute ids back to the
/// variable names used in the text (index = AttrId).
struct ParsedQuery {
  ConjunctiveQuery query;
  std::vector<std::string> var_names;

  /// Name of attribute `a` ("x<a>" for out-of-range ids).
  std::string NameOf(AttrId a) const;
};

/// Parses the textual conjunctive-query syntax
///
///     pi{X, Y} edge(X, Z) & edge(Z, Y)
///
/// — an optional projection head `pi{...}` (omitted or empty = Boolean
/// query), then atoms `name(vars...)` separated by `&` or `,`. Variable
/// names are identifiers ([A-Za-z_][A-Za-z0-9_]*) assigned dense attribute
/// ids in order of first appearance *in the atom list*; head variables
/// must occur in some atom. Relation names share the identifier syntax.
/// Returns InvalidArgument with a position-annotated message on
/// malformed input (unknown head variables, missing parentheses, ...).
/// Tokens are views of `text` and variables resolve through a hash table
/// keyed by those views, so the expected cost is linear in the text's
/// length.
Result<ParsedQuery> ParseQuery(std::string_view text);

}  // namespace ppr

#endif  // PPR_QUERY_PARSER_H_
