#ifndef PPR_ANALYSIS_WIDTH_ANALYZER_INTERNAL_H_
#define PPR_ANALYSIS_WIDTH_ANALYZER_INTERNAL_H_

#include "analysis/width_analyzer.h"
#include "common/status.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

// Internal to src/analysis: shared by width_analyzer.cc and verifier.cc,
// not part of the analysis API.
namespace ppr::analysis_internal {

/// CrossCheckWidth's and AnalyzePlan's results.
struct WidthAndAnalysis {
  Status width;
  StaticAnalysis analysis;
};

/// Both passes over one lowering and validation of `plan`: each result
/// equals what the public function returns on its own (an empty plan or
/// an invalid schedule yields the same error in both).
WidthAndAnalysis CrossCheckAndAnalyzePlan(const ConjunctiveQuery& query,
                                          const Plan& plan,
                                          const Database& db);

}  // namespace ppr::analysis_internal

#endif  // PPR_ANALYSIS_WIDTH_ANALYZER_INTERNAL_H_
