#include "analysis/schedule.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/strings.h"

namespace ppr {
namespace {

bool Contains(std::span<const AttrId> attrs, AttrId a) {
  return std::find(attrs.begin(), attrs.end(), a) != attrs.end();
}

// Appends the operators of `node` (post-order, children left to right,
// fold joins interleaved, optional trailing projection) and returns the
// index of the operator producing the node's output.
int LowerNode(const ConjunctiveQuery& query, const PlanNode* node,
              OpSchedule* schedule) {
  int producer = -1;
  if (node->IsLeaf()) {
    ScheduledOp scan;
    scan.kind = OpKind::kScan;
    scan.node = node;
    scan.atom_index = node->atom_index;
    if (node->atom_index >= 0 && node->atom_index < query.num_atoms()) {
      scan.out_attrs =
          query.atoms()[static_cast<size_t>(node->atom_index)].DistinctAttrs();
    }
    producer = schedule->num_ops();
    schedule->ops.push_back(std::move(scan));
  } else {
    for (size_t i = 0; i < node->children.size(); ++i) {
      const int child = LowerNode(query, node->children[i].get(), schedule);
      if (i == 0) {
        producer = child;
        continue;
      }
      ScheduledOp join;
      join.kind = OpKind::kJoin;
      join.node = node;
      join.left_input = producer;
      join.right_input = child;
      // Output schema exactly as PlanJoin derives it: all left attributes,
      // then right-only attributes in the right input's column order.
      const auto& left = schedule->ops[static_cast<size_t>(producer)].out_attrs;
      const auto& right = schedule->ops[static_cast<size_t>(child)].out_attrs;
      join.out_attrs.reserve(left.size() + right.size());
      join.out_attrs = left;
      for (AttrId a : right) {
        if (!Contains(left, a)) join.out_attrs.push_back(a);
      }
      producer = schedule->num_ops();
      schedule->ops.push_back(std::move(join));
    }
  }
  if (node->Projects()) {
    ScheduledOp project;
    project.kind = OpKind::kProject;
    project.node = node;
    project.left_input = producer;
    project.out_attrs = node->projected;
    producer = schedule->num_ops();
    schedule->ops.push_back(std::move(project));
  }
  return producer;
}

std::string AttrsToString(const std::vector<AttrId>& attrs) {
  return "{" +
         StrJoinFormatted(attrs, ", ",
                          [](AttrId a) { return "x" + std::to_string(a); }) +
         "}";
}

// Schemas are a handful of attributes, so a quadratic scan beats a
// sorted copy.
bool HasDuplicates(const std::vector<AttrId>& attrs) {
  for (auto it = attrs.begin(); it != attrs.end(); ++it) {
    if (std::find(attrs.begin(), it, *it) != it) return true;
  }
  return false;
}

// Whether `out` is `atom`'s distinct attributes in first-occurrence
// order (Atom::DistinctAttrs), compared in place.
bool IsAtomSchema(const std::vector<AttrId>& out, const Atom& atom) {
  size_t k = 0;
  for (size_t c = 0; c < atom.args.size(); ++c) {
    const AttrId a = atom.args[c];
    if (Contains(std::span<const AttrId>(atom.args).first(c), a)) continue;
    if (k == out.size() || out[k] != a) return false;
    ++k;
  }
  return k == out.size();
}

// Whether `out` is left ++ right-only attributes (PlanJoin's schema),
// compared in place.
bool IsJoinSchema(const std::vector<AttrId>& out,
                  const std::vector<AttrId>& left,
                  const std::vector<AttrId>& right) {
  if (out.size() < left.size() ||
      !std::equal(left.begin(), left.end(), out.begin())) {
    return false;
  }
  size_t k = left.size();
  for (AttrId a : right) {
    if (Contains(left, a)) continue;
    if (k == out.size() || out[k] != a) return false;
    ++k;
  }
  return k == out.size();
}

// Whether `b` holds exactly the attributes of the duplicate-free `a`.
bool SameAttrSet(const std::vector<AttrId>& a,
                 const std::vector<AttrId>& b) {
  return a.size() == b.size() &&
         std::all_of(a.begin(), a.end(),
                     [&](AttrId x) { return Contains(b, x); }) &&
         std::all_of(b.begin(), b.end(),
                     [&](AttrId x) { return Contains(a, x); });
}

}  // namespace

std::string OpSchedule::ToString(const ConjunctiveQuery& query) const {
  std::ostringstream out;
  for (int i = 0; i < num_ops(); ++i) {
    const ScheduledOp& op = ops[static_cast<size_t>(i)];
    out << "#" << i << " ";
    switch (op.kind) {
      case OpKind::kScan:
        out << "scan ";
        if (op.atom_index >= 0 && op.atom_index < query.num_atoms()) {
          out << query.atoms()[static_cast<size_t>(op.atom_index)].ToString();
        } else {
          out << "atom[" << op.atom_index << "]";
        }
        break;
      case OpKind::kJoin:
        out << "join #" << op.left_input << " |><| #" << op.right_input;
        break;
      case OpKind::kProject:
        out << "project #" << op.left_input;
        break;
    }
    out << " -> " << AttrsToString(op.out_attrs) << "\n";
  }
  return out.str();
}

OpSchedule BuildSchedule(const ConjunctiveQuery& query, const Plan& plan) {
  OpSchedule schedule;
  if (plan.empty()) return schedule;
  // A scan per atom, at most a join per further atom, and a projection
  // on most nodes.
  schedule.ops.reserve(3 * query.atoms().size());
  schedule.root_op = LowerNode(query, plan.root(), &schedule);
  return schedule;
}

Status ValidateSchedule(const ConjunctiveQuery& query,
                        const OpSchedule& schedule) {
  if (schedule.num_ops() == 0 || schedule.root_op < 0) {
    return Status::InvalidArgument("schedule is empty");
  }
  if (schedule.root_op != schedule.num_ops() - 1) {
    return Status::InvalidArgument(
        "root operator is not the last budget-charge point");
  }

  std::vector<int> consumers(static_cast<size_t>(schedule.num_ops()), 0);
  for (int i = 0; i < schedule.num_ops(); ++i) {
    const ScheduledOp& op = schedule.ops[static_cast<size_t>(i)];
    if (HasDuplicates(op.out_attrs)) {
      return Status::InvalidArgument("operator #" + std::to_string(i) +
                                     " emits a duplicate attribute");
    }
    // Budget-charge order: inputs must have charged strictly earlier.
    for (int input : {op.left_input, op.right_input}) {
      if (input == -1) continue;
      if (input < 0 || input >= i) {
        return Status::InvalidArgument(
            "operator #" + std::to_string(i) +
            " consumes #" + std::to_string(input) +
            ", which has not charged the budget yet");
      }
      consumers[static_cast<size_t>(input)]++;
    }

    switch (op.kind) {
      case OpKind::kScan: {
        if (op.atom_index < 0 || op.atom_index >= query.num_atoms()) {
          return Status::InvalidArgument("scan of out-of-range atom index " +
                                         std::to_string(op.atom_index));
        }
        const Atom& atom = query.atoms()[static_cast<size_t>(op.atom_index)];
        if (!IsAtomSchema(op.out_attrs, atom)) {
          return Status::InvalidArgument(
              "scan of " + atom.ToString() + " emits " +
              AttrsToString(op.out_attrs) + " instead of the atom schema");
        }
        if (op.left_input != -1 || op.right_input != -1) {
          return Status::InvalidArgument("scan with an input operator");
        }
        break;
      }
      case OpKind::kJoin: {
        if (op.left_input < 0 || op.right_input < 0) {
          return Status::InvalidArgument("join missing an input");
        }
        const auto& left =
            schedule.ops[static_cast<size_t>(op.left_input)].out_attrs;
        const auto& right =
            schedule.ops[static_cast<size_t>(op.right_input)].out_attrs;
        if (!IsJoinSchema(op.out_attrs, left, right)) {
          std::vector<AttrId> expected = left;
          for (AttrId a : right) {
            if (!Contains(left, a)) expected.push_back(a);
          }
          return Status::InvalidArgument(
              "join emits " + AttrsToString(op.out_attrs) +
              " instead of left ++ right-only " + AttrsToString(expected));
        }
        break;
      }
      case OpKind::kProject: {
        if (op.left_input < 0 || op.right_input != -1) {
          return Status::InvalidArgument("projection must have one input");
        }
        const auto& input =
            schedule.ops[static_cast<size_t>(op.left_input)].out_attrs;
        for (AttrId a : op.out_attrs) {
          if (!Contains(input, a)) {
            return Status::InvalidArgument(
                "projection reads unbound attribute x" + std::to_string(a) +
                " absent from its input " + AttrsToString(input));
          }
        }
        break;
      }
    }
  }

  // Linear use: the executor hands each intermediate to exactly one
  // consumer; the root is consumed by the caller.
  for (int i = 0; i < schedule.num_ops(); ++i) {
    const int expected = i == schedule.root_op ? 0 : 1;
    if (consumers[static_cast<size_t>(i)] != expected) {
      return Status::InvalidArgument(
          "operator #" + std::to_string(i) + " has " +
          std::to_string(consumers[static_cast<size_t>(i)]) +
          " consumers (expected " + std::to_string(expected) + ")");
    }
  }

  if (!SameAttrSet(schedule.ops[static_cast<size_t>(schedule.root_op)]
                       .out_attrs,
                   query.free_vars())) {
    return Status::InvalidArgument(
        "final operator does not produce the target schema");
  }
  return Status::Ok();
}

}  // namespace ppr
