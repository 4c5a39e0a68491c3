#include "analysis/width_analyzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "analysis/schedule.h"
#include "analysis/width_analyzer_internal.h"
#include "common/check.h"
#include "core/theory.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth.h"

namespace ppr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Statistics of one stored relation. All offline (analysis never runs
// during Execute), so exact scans are affordable; they run once per
// distinct relation per call, however many atoms read it.
struct RelationStats {
  const Relation* rel = nullptr;
  /// Row count (with duplicates — the sound multiset bound).
  double rows = 0.0;
  /// Whether the relation is duplicate-free (set semantics; join outputs
  /// of duplicate-free inputs stay duplicate-free, which is what licenses
  /// the cover and domain caps on joins).
  bool dup_free = false;
  /// Distinct values per column.
  std::vector<double> column_distinct;
};

// Database statistics the size bounds are computed from.
struct DbStats {
  /// The distinct relations the query's atoms read.
  std::vector<RelationStats> relations;
  /// Index into `relations` per atom.
  std::vector<int> atom_relation;
  /// Per-attribute active-domain bound: min over atom occurrences of the
  /// distinct values in the bound stored column; kInf when unbound.
  std::vector<double> attr_domain;
};

bool IsDuplicateFree(const Relation& rel) {
  if (rel.arity() == 0) return true;
  std::vector<int64_t> order(static_cast<size_t>(rel.size()));
  std::iota(order.begin(), order.end(), int64_t{0});
  const auto less = [&](int64_t a, int64_t b) {
    const auto ra = rel.row(a);
    const auto rb = rel.row(b);
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                        rb.end());
  };
  std::sort(order.begin(), order.end(), less);
  return std::adjacent_find(order.begin(), order.end(),
                            [&](int64_t a, int64_t b) {
                              return !less(a, b);
                            }) == order.end();
}

// Distinct values in column `col`; `scratch` is reused across columns.
double DistinctColumnValues(const Relation& rel, int col,
                            std::vector<Value>* scratch) {
  scratch->clear();
  for (int64_t i = 0; i < rel.size(); ++i) scratch->push_back(rel.at(i, col));
  std::sort(scratch->begin(), scratch->end());
  return static_cast<double>(
      std::unique(scratch->begin(), scratch->end()) - scratch->begin());
}

Result<DbStats> CollectDbStats(const ConjunctiveQuery& query,
                               const Database& db) {
  DbStats stats;
  AttrId max_attr = -1;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) max_attr = std::max(max_attr, a);
  }
  stats.attr_domain.assign(static_cast<size_t>(max_attr + 1), kInf);
  stats.atom_relation.reserve(query.atoms().size());

  for (const Atom& atom : query.atoms()) {
    Result<const Relation*> stored = db.Get(atom.relation);
    if (!stored.ok()) return stored.status();
    const Relation* rel = *stored;
    if (static_cast<int>(atom.args.size()) != rel->arity()) {
      return Status::InvalidArgument("atom " + atom.ToString() +
                                     " does not match the arity of its "
                                     "stored relation");
    }
    size_t r = 0;
    while (r < stats.relations.size() && stats.relations[r].rel != rel) ++r;
    if (r == stats.relations.size()) {
      RelationStats rs;
      rs.rel = rel;
      rs.rows = static_cast<double>(rel->size());
      rs.dup_free = IsDuplicateFree(*rel);
      std::vector<Value> scratch;
      scratch.reserve(static_cast<size_t>(rel->size()));
      rs.column_distinct.reserve(static_cast<size_t>(rel->arity()));
      for (int c = 0; c < rel->arity(); ++c) {
        rs.column_distinct.push_back(DistinctColumnValues(*rel, c, &scratch));
      }
      stats.relations.push_back(std::move(rs));
    }
    stats.atom_relation.push_back(static_cast<int>(r));
    const RelationStats& rs = stats.relations[r];
    for (size_t c = 0; c < atom.args.size(); ++c) {
      auto& dom = stats.attr_domain[static_cast<size_t>(atom.args[c])];
      dom = std::min(dom, rs.column_distinct[c]);
    }
  }
  return stats;
}

// One scan in schedule order: its distinct attributes (the scan
// operator's schema) and its stored row count.
struct ScanStats {
  const std::vector<AttrId>* attrs = nullptr;
  double rows = 0.0;
};

// Integral relaxation of the AGM fractional edge cover, searched
// greedily: any subset S of the atoms below an operator whose attribute
// sets cover the output attributes U bounds the output by prod |R_i|
// (atoms outside S can only filter). Greedy pick: most newly covered
// attributes, ties to the first of the smaller relations in schedule
// order. `uncovered` is an all-zero mark per attribute id, returned
// all-zero. Returns kInf when the candidate atoms cannot cover U.
double GreedyCoverBound(const std::vector<AttrId>& out_attrs,
                        std::span<const ScanStats> below,
                        std::vector<char>* uncovered) {
  char* mark = uncovered->data();
  // Operator schemas hold no duplicate attribute and only atom
  // attributes (ValidateSchedule).
  int remaining = static_cast<int>(out_attrs.size());
  for (AttrId a : out_attrs) {
    PPR_DCHECK(a >= 0 && static_cast<size_t>(a) < uncovered->size());
    mark[a] = 1;
  }
  double bound = 1.0;
  while (remaining > 0) {
    const ScanStats* best = nullptr;
    int best_covered = 0;
    for (const ScanStats& scan : below) {
      int covered = 0;
      for (AttrId a : *scan.attrs) covered += mark[a];
      if (covered > best_covered ||
          (covered == best_covered && covered > 0 &&
           scan.rows < best->rows)) {
        best = &scan;
        best_covered = covered;
      }
    }
    if (best == nullptr) {
      for (AttrId a : out_attrs) mark[a] = 0;
      return kInf;
    }
    bound *= best->rows;
    for (AttrId a : *best->attrs) {
      remaining -= mark[a];
      mark[a] = 0;
    }
  }
  return bound;
}

// Product of per-attribute active-domain bounds — the DISTINCT cap.
double DomainCap(const std::vector<AttrId>& attrs, const DbStats& db) {
  double cap = 1.0;
  for (AttrId a : attrs) {
    if (a < 0 || static_cast<size_t>(a) >= db.attr_domain.size()) return kInf;
    cap *= db.attr_domain[static_cast<size_t>(a)];
  }
  return cap;
}

// Lowers a non-empty plan and validates the schedule: the first step of
// AnalyzePlan, CrossCheckWidth and NodeBoundsPreOrder alike.
Result<OpSchedule> LowerPlan(const ConjunctiveQuery& query,
                             const Plan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  OpSchedule schedule = BuildSchedule(query, plan);
  if (Status valid = ValidateSchedule(query, schedule); !valid.ok()) {
    return valid;
  }
  return schedule;
}

// AnalyzePlan over a schedule LowerPlan returned.
StaticAnalysis AnalyzeSchedule(const ConjunctiveQuery& query,
                               const OpSchedule& schedule,
                               const Database& db) {
  StaticAnalysis analysis;
  Result<DbStats> stats = CollectDbStats(query, db);
  if (!stats.ok()) {
    analysis.status = stats.status();
    return analysis;
  }
  const DbStats& dbs = *stats;

  // Per-op state: output row bound, duplicate-freeness, and the first of
  // the scans below it. The schedule is post-order, so the operators of
  // a subtree are contiguous and the atoms below operator i are exactly
  // scans[scan_lo ..) as of operator i, left subtree first — the order
  // the greedy cover's tie-break depends on.
  struct OpState {
    double bound = 0.0;
    size_t scan_lo = 0;
    bool dup_free = false;
  };
  const size_t num_ops = static_cast<size_t>(schedule.num_ops());
  std::vector<OpState> state(num_ops);
  std::vector<ScanStats> scans;
  scans.reserve(query.atoms().size());
  std::vector<char> uncovered(dbs.attr_domain.size(), 0);
  analysis.per_op.reserve(num_ops);

  for (size_t si = 0; si < num_ops; ++si) {
    const ScheduledOp& op = schedule.ops[si];
    OpState& st = state[si];
    double bound = kInf;
    switch (op.kind) {
      case OpKind::kScan: {
        const RelationStats& rel =
            dbs.relations[static_cast<size_t>(
                dbs.atom_relation[static_cast<size_t>(op.atom_index)])];
        st.scan_lo = scans.size();
        scans.push_back(ScanStats{&op.out_attrs, rel.rows});
        st.dup_free = rel.dup_free;
        bound = rel.rows;
        if (st.dup_free) {
          bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        }
        break;
      }
      case OpKind::kJoin: {
        const size_t li = static_cast<size_t>(op.left_input);
        const size_t ri = static_cast<size_t>(op.right_input);
        const OpState& left = state[li];
        const OpState& right = state[ri];
        // Post-order: the right subtree ends just before the join and
        // starts after the left one.
        PPR_DCHECK(ri + 1 == si && left.scan_lo <= right.scan_lo);
        st.scan_lo = left.scan_lo;
        st.dup_free = left.dup_free && right.dup_free;
        bound = left.bound * right.bound;
        if (st.dup_free) {
          // Set semantics below: the output is contained in the
          // projection of the join of the atoms below it.
          bound = std::min(
              bound, GreedyCoverBound(
                         op.out_attrs,
                         std::span<const ScanStats>(scans).subspan(st.scan_lo),
                         &uncovered));
          bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        }
        break;
      }
      case OpKind::kProject: {
        const size_t li = static_cast<size_t>(op.left_input);
        PPR_DCHECK(li + 1 == si);
        st.scan_lo = state[li].scan_lo;
        st.dup_free = true;  // ProjectColumns always deduplicates
        // A projection's support set is contained in the set-semantics
        // result regardless of input multiplicities, so the cover bound
        // and the domain cap apply unconditionally.
        bound = std::min(
            state[li].bound,
            GreedyCoverBound(
                op.out_attrs,
                std::span<const ScanStats>(scans).subspan(st.scan_lo),
                &uncovered));
        bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        break;
      }
    }
    st.bound = bound;
    analysis.per_op.push_back(OpBound{op.arity(), bound});
    analysis.max_intermediate_arity =
        std::max(analysis.max_intermediate_arity, op.arity());
    analysis.max_intermediate_rows_bound =
        std::max(analysis.max_intermediate_rows_bound, bound);
    analysis.tuples_produced_bound += bound;
  }
  return analysis;
}

// Numbers the plan nodes pre-order (the numbering shared with
// ExplainResult::nodes and compiled PhysicalNode ids).
void MapPreOrder(const PlanNode* node, int32_t* next,
                 std::unordered_map<const PlanNode*, int32_t>* index) {
  (*index)[node] = (*next)++;
  for (const auto& child : node->children) {
    MapPreOrder(child.get(), next, index);
  }
}

}  // namespace

std::string StaticAnalysis::ToString() const {
  std::ostringstream out;
  if (!status.ok()) {
    out << "analysis failed: " << status.ToString();
    return out.str();
  }
  out << "max_intermediate_arity=" << max_intermediate_arity << "\n"
      << "max_intermediate_rows<=" << max_intermediate_rows_bound
      << " tuples_produced<=" << tuples_produced_bound << "\n";
  return out.str();
}

StaticAnalysis AnalyzePlan(const ConjunctiveQuery& query, const Plan& plan,
                           const Database& db) {
  Result<OpSchedule> schedule = LowerPlan(query, plan);
  if (!schedule.ok()) {
    StaticAnalysis analysis;
    analysis.status = schedule.status();
    return analysis;
  }
  return AnalyzeSchedule(query, *schedule, db);
}

Status NodeBoundsPreOrder(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db,
                          std::vector<PlanNodeBound>* bounds) {
  Result<OpSchedule> lowered = LowerPlan(query, plan);
  if (!lowered.ok()) return lowered.status();
  const OpSchedule& schedule = *lowered;
  StaticAnalysis analysis = AnalyzeSchedule(query, schedule, db);
  if (!analysis.status.ok()) return analysis.status;

  std::unordered_map<const PlanNode*, int32_t> index;
  int32_t next = 0;
  MapPreOrder(plan.root(), &next, &index);
  bounds->assign(index.size(), PlanNodeBound{});

  // per_op aligns 1:1 with the schedule and each scheduled operator
  // points at its logical node; fold the per-operator bounds to per-node
  // maxima.
  PPR_CHECK(schedule.num_ops() ==
            static_cast<int>(analysis.per_op.size()));
  for (int i = 0; i < schedule.num_ops(); ++i) {
    const ScheduledOp& op = schedule.ops[static_cast<size_t>(i)];
    const OpBound& ob = analysis.per_op[static_cast<size_t>(i)];
    auto it = index.find(op.node);
    if (it == index.end()) {
      return Status::Internal("scheduled operator points outside the plan");
    }
    PlanNodeBound& nb = (*bounds)[static_cast<size_t>(it->second)];
    nb.arity_bound = std::max(nb.arity_bound, ob.arity);
    nb.rows_bound = std::max(nb.rows_bound, ob.size_bound);
  }
  return Status::Ok();
}

namespace {

// CrossCheckWidth over a schedule LowerPlan returned.
Status CrossCheckSchedule(const ConjunctiveQuery& query, const Plan& plan,
                          const OpSchedule& schedule) {
  int max_arity = 0;
  for (const ScheduledOp& op : schedule.ops) {
    max_arity = std::max(max_arity, op.arity());
  }
  // The schedule's widest operator output is exactly the plan's join
  // width: fold-step schemas are unions of projected labels, monotone in
  // the fold, so the per-node maximum is the working label.
  if (max_arity != plan.Width()) {
    return Status::Internal(
        "static max arity " + std::to_string(max_arity) +
        " != plan join width " + std::to_string(plan.Width()));
  }

  // Algorithm 1 (Theorem 1, forward direction): the working labels of a
  // valid plan form a tree decomposition of the join graph of width
  // join width - 1.
  const Graph join_graph = BuildJoinGraph(query);
  TreeDecomposition td = PlanToTreeDecomposition(query, plan);
  // The join graph numbers vertices densely up to the largest attribute
  // id, so ids the query never mentions (e.g. isolated vertices of a
  // generated instance) become isolated join-graph vertices that no plan
  // label can cover. Pad singleton bags for them: they are edgeless, so
  // the decomposition stays valid and its width is unchanged.
  if (!td.bags.empty()) {
    std::vector<bool> covered(static_cast<size_t>(join_graph.num_vertices()),
                              false);
    for (const std::vector<int>& bag : td.bags) {
      for (int v : bag) covered[static_cast<size_t>(v)] = true;
    }
    for (int v = 0; v < join_graph.num_vertices(); ++v) {
      if (!covered[static_cast<size_t>(v)] && !query.UsesAttr(v)) {
        td.edges.emplace_back(0, td.num_bags());
        td.bags.push_back({v});
      }
    }
  }
  Status td_valid = ValidateTreeDecomposition(join_graph, td);
  if (!td_valid.ok()) {
    return Status::Internal(
        "plan labels do not form a tree decomposition of the join graph: " +
        td_valid.message());
  }
  if (td.width() != max_arity - 1) {
    return Status::Internal("decomposition width " +
                            std::to_string(td.width()) +
                            " != static max arity - 1");
  }
  const int lb = MmdLowerBound(join_graph);
  if (max_arity - 1 < lb) {
    return Status::Internal(
        "plan width beats the treewidth lower bound (" +
        std::to_string(max_arity - 1) + " < " + std::to_string(lb) +
        ") — Theorem 1 violated, the width analysis is wrong");
  }
  return Status::Ok();
}

}  // namespace

Status CrossCheckWidth(const ConjunctiveQuery& query, const Plan& plan) {
  Result<OpSchedule> schedule = LowerPlan(query, plan);
  if (!schedule.ok()) return schedule.status();
  return CrossCheckSchedule(query, plan, *schedule);
}

namespace analysis_internal {

WidthAndAnalysis CrossCheckAndAnalyzePlan(const ConjunctiveQuery& query,
                                          const Plan& plan,
                                          const Database& db) {
  WidthAndAnalysis out;
  Result<OpSchedule> schedule = LowerPlan(query, plan);
  if (!schedule.ok()) {
    out.width = schedule.status();
    out.analysis.status = schedule.status();
    return out;
  }
  out.width = CrossCheckSchedule(query, plan, *schedule);
  out.analysis = AnalyzeSchedule(query, *schedule, db);
  return out;
}

}  // namespace analysis_internal

Status CheckWidthGuarantee(const ConjunctiveQuery& query, const Plan& plan,
                           int claimed_width) {
  const OpSchedule schedule = BuildSchedule(query, plan);
  Status valid = ValidateSchedule(query, schedule);
  if (!valid.ok()) return valid;
  int max_arity = 0;
  for (const ScheduledOp& op : schedule.ops) {
    max_arity = std::max(max_arity, op.arity());
  }
  if (max_arity > claimed_width) {
    return Status::Internal("plan width " + std::to_string(max_arity) +
                            " exceeds the claimed guarantee of " +
                            std::to_string(claimed_width));
  }
  return Status::Ok();
}

}  // namespace ppr
