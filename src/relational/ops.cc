#include "relational/ops.h"

#include <utility>

#include "common/check.h"
#include "relational/batch_ops.h"

namespace ppr {
namespace {

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<AttrId>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (AttrId a : attrs) {
    int idx = schema.IndexOf(a);
    PPR_CHECK(idx >= 0);
    cols.push_back(idx);
  }
  return cols;
}

// Bit a set for each attribute id a < 64 of `schema`.
uint64_t LowAttrMask(const Schema& schema) {
  uint64_t mask = 0;
  for (AttrId a : schema.attrs()) {
    if (a >= 0 && a < 64) mask |= uint64_t{1} << a;
  }
  return mask;
}

// Schema::Contains, answered from `mask` (LowAttrMask(schema)) for ids
// below 64.
bool InSchema(const Schema& schema, uint64_t mask, AttrId a) {
  return a >= 0 && a < 64 ? ((mask >> a) & 1) != 0 : schema.Contains(a);
}

}  // namespace

JoinSpec PlanJoin(const Schema& left, const Schema& right) {
  JoinSpec spec;
  // Keys: the shared attributes, in left's column order. Membership is a
  // bit test for ids below 64 (canonical queries number attributes from
  // 0), so only shared attributes are searched for.
  const uint64_t left_mask = LowAttrMask(left);
  const uint64_t right_mask = LowAttrMask(right);
  spec.left_key_cols.reserve(static_cast<size_t>(left.arity()));
  spec.right_key_cols.reserve(static_cast<size_t>(left.arity()));
  spec.right_carry_cols.reserve(static_cast<size_t>(right.arity()));
  for (int l = 0; l < left.arity(); ++l) {
    const AttrId a = left.attr(l);
    if (!InSchema(right, right_mask, a)) continue;
    spec.left_key_cols.push_back(l);
    spec.right_key_cols.push_back(right.IndexOf(a));
  }

  // Output schema: all of left's attrs, then right-only attrs.
  std::vector<AttrId> out_attrs;
  out_attrs.reserve(static_cast<size_t>(left.arity() + right.arity()) -
                    spec.right_key_cols.size());
  out_attrs.assign(left.attrs().begin(), left.attrs().end());
  for (int r = 0; r < right.arity(); ++r) {
    if (InSchema(left, left_mask, right.attr(r))) continue;
    spec.right_carry_cols.push_back(r);
    out_attrs.push_back(right.attr(r));
  }
  spec.out_schema = Schema(std::move(out_attrs));
  return spec;
}

ProjectSpec PlanProject(const Schema& input,
                        const std::vector<AttrId>& attrs) {
  ProjectSpec spec;
  spec.cols = ColumnIndices(input, attrs);
  spec.out_schema = Schema(attrs);
  return spec;
}

SemiJoinSpec PlanSemiJoin(const Schema& left, const Schema& right) {
  SemiJoinSpec spec;
  const std::vector<AttrId> common = left.CommonAttrs(right);
  spec.left_key_cols = ColumnIndices(left, common);
  spec.right_key_cols = ColumnIndices(right, common);
  return spec;
}

ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args) {
  PPR_CHECK(static_cast<int>(args.size()) == stored_arity);
  ScanSpec spec;
  std::vector<AttrId> distinct;
  for (size_t c = 0; c < args.size(); ++c) {
    int d = -1;
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (distinct[i] == args[c]) {
        d = static_cast<int>(i);
        break;
      }
    }
    if (d < 0) {
      distinct.push_back(args[c]);
      spec.source_cols.push_back(static_cast<int>(c));
    } else {
      spec.equal_checks.emplace_back(static_cast<int>(c),
                                     spec.source_cols[static_cast<size_t>(d)]);
    }
  }
  spec.out_schema = Schema(std::move(distinct));
  return spec;
}

Relation NaturalJoin(const Relation& left, const Relation& right,
                     ExecContext& ctx) {
  return HashJoin(left, right, PlanJoin(left.schema(), right.schema()), ctx,
                  WholeInputMorsel());
}

Relation Project(const Relation& input, const std::vector<AttrId>& attrs,
                 ExecContext& ctx) {
  return ProjectColumns(input, PlanProject(input.schema(), attrs), ctx,
                        WholeInputMorsel());
}

Relation SemiJoin(const Relation& left, const Relation& right,
                  ExecContext& ctx) {
  return SemiJoinFiltered(left, right,
                          PlanSemiJoin(left.schema(), right.schema()), ctx,
                          WholeInputMorsel());
}

Relation BindAtom(const Relation& stored, const std::vector<AttrId>& args,
                  ExecContext& ctx) {
  return ScanAtom(stored, PlanScan(stored.arity(), args), ctx,
                  WholeInputMorsel());
}

}  // namespace ppr
