#include "src/core/traversal_plan.hpp"

#include <algorithm>
#include <utility>

namespace miniphi::core {

void TraversalPlanner::emit(tree::Slot* goal, TraversalPlan& out) {
  MINIPHI_ASSERT(!goal->is_tip() && scratch(goal).recompute);
  stack_.clear();
  stack_.push_back({goal, false});
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    tree::Slot* slot = frame.slot;
    if (!frame.expanded) {
      frame.expanded = true;
      // Push the smaller-need child first so the larger one pops — and thus
      // emits — first (Sethi-Ullman ordering).
      tree::Slot* first = slot->child1();
      tree::Slot* second = slot->child2();
      const auto registers = [this](const tree::Slot* child) -> std::int32_t {
        return child->is_tip() ? 0 : scratch_[static_cast<std::size_t>(child->slot_index)].registers;
      };
      if (registers(second) > registers(first)) std::swap(first, second);
      for (tree::Slot* child : {second, first}) {
        if (!child->is_tip() && scratch(child).recompute &&
            scratch(child).op < 0) {
          stack_.push_back({child, false});
        }
      }
      continue;
    }
    stack_.pop_back();
    const auto child_op = [this](const tree::Slot* child) -> std::int32_t {
      if (child->is_tip()) return -1;
      const SlotScratch& c = scratch_[static_cast<std::size_t>(child->slot_index)];
      return c.recompute ? c.op : -1;
    };
    PlfOp op;
    op.slot = slot;
    op.node_id = slot->node_id;
    op.registers = scratch(slot).registers;
    op.left_op = child_op(slot->child1());
    op.right_op = child_op(slot->child2());
    scratch(slot).op = static_cast<std::int32_t>(out.ops_.size());
    out.ops_.push_back(op);
  }
}

void TraversalPlanner::build_preorder(tree::Slot* root_edge, TraversalPlan& out) {
  out.clear();
  // Tips below each node, by node id: every node's root-facing slot in
  // breadth-first order (explicit, no recursion on deep caterpillars), then
  // summed children-first in reverse.
  std::vector<tree::Slot*> order = {root_edge, root_edge->back};
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i]->is_tip()) continue;
    order.push_back(order[i]->child1());
    order.push_back(order[i]->child2());
  }
  std::vector<std::int32_t> tips(order.size());  // node ids are dense in [0, node count)
  const auto tips_of = [&tips](const tree::Slot* up) -> std::int32_t& {
    return tips[static_cast<std::size_t>(up->node_id)];
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    tips_of(*it) = (*it)->is_tip() ? 1 : tips_of((*it)->child1()) + tips_of((*it)->child2());
  }

  // Partial buffers come from a free list, like Sethi–Ullman registers.
  std::vector<std::int32_t> free_buffers;
  int live = 0;
  const auto take = [&]() -> std::int32_t {
    out.buffers_ = std::max(out.buffers_, ++live);
    if (free_buffers.empty()) return static_cast<std::int32_t>(out.buffers_ - 1);
    const std::int32_t buffer = free_buffers.back();
    free_buffers.pop_back();
    return buffer;
  };
  const auto give = [&](std::int32_t buffer) {
    --live;
    free_buffers.push_back(buffer);
  };

  // Emits the ops of both children of the node whose root-facing slot is
  // `up`, reading `parent_op`'s partial (-1 = a root-edge endpoint: its
  // seed ops read the *opposite* endpoint across root_edge->length), and
  // queues the inner children on `pending`, the smaller subtree on top.
  std::vector<std::int32_t> pending;
  const auto expand = [&](tree::Slot* up, std::int32_t parent_op) {
    tree::Slot* first = up->next;
    tree::Slot* second = up->next->next;
    if (tips_of(first->back) < tips_of(second->back)) std::swap(first, second);
    for (auto [toward, other] : {std::pair{first, second}, std::pair{second, first}}) {
      PlfOp op;
      op.kind = PlfOpKind::kPreorder;
      op.slot = toward;
      op.node_id = toward->back->node_id;
      op.sibling = other;
      op.left_op = parent_op;
      op.buffer = take();
      // A tip's partial is read only by its own op's gradient contraction.
      if (toward->back->is_tip()) {
        give(op.buffer);
      } else {
        pending.push_back(static_cast<std::int32_t>(out.ops_.size()));
      }
      out.ops_.push_back(op);
    }
    // Both readers of the parent's partial are emitted.
    if (parent_op >= 0) give(out.ops_[static_cast<std::size_t>(parent_op)].buffer);
  };

  for (tree::Slot* endpoint : {root_edge, root_edge->back}) {
    if (endpoint->is_tip()) continue;
    expand(endpoint, -1);
    while (!pending.empty()) {
      const std::int32_t index = pending.back();
      pending.pop_back();
      expand(out.ops_[static_cast<std::size_t>(index)].slot->back, index);
    }
  }
}

PlanMetricIds register_plan_metrics() {
  PlanMetricIds ids;
  obs::Registry& registry = obs::Registry::instance();
  ids.builds = registry.counter("plan.builds");
  ids.cache_hits = registry.counter("plan.cache_hits");
  ids.reuses = registry.counter("plan.reuses");
  ids.executed_ops = registry.counter("plan.executed_ops");
  ids.executed_plans = registry.counter("plan.executed_plans");
  ids.build_ns = registry.histogram("plan.build_ns");
  return ids;
}

}  // namespace miniphi::core
