// Flat traversal plans: the intermediate representation between "which CLAs
// does this virtual root need?" and "run the newview kernel n times".
//
// Like RAxML-Light and ExaML, miniphi runs a traversal as one serial
// descriptor: a flat operation list (BEAGLE 4.1's shape) that the engine
// executes in order, with all parallelism inside the PLF kernels (paper
// §V-C/§V-D).  Building the list once, instead of recursing per node
// (RAxML's newviewIterative pattern), lets the engine cache it per virtual
// root, size its working set in advance and derive a distributed reduction
// schedule from it.  This file is miniphi's version of that list:
//
//  * PlfOp — one pending newview: the inner slot whose CLA must be
//    (re)computed and the op indices of any children that are computed by
//    the same plan (-1 for tips and for CLAs that are already valid, i.e.
//    plan *inputs*).
//  * TraversalPlan — the ops in Sethi-Ullman DFS post-order (children
//    before parents, and the order that keeps the live-buffer working set
//    ~log2(n) at every cla_budget_bytes), plus the goal slots ("roots").
//  * TraversalPlanner — the iterative planner.  Explicit stacks, no
//    recursion: pathological caterpillar trees from the simulator are deep
//    enough to overflow the thread stack otherwise.
//
// Plans are pure descriptions: building one never touches CLA state, so
// engines cache them per virtual root and revalidate with a cheap epoch
// check (PlanCache below) instead of re-walking the tree.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/tree/tree.hpp"
#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {

/// Direction of one PLF operation.  kNewview is the classic postorder CLA
/// update (the default, so pre-existing plan builders are unaffected);
/// kPreorder computes an *outer* partial — the conditional likelihood of
/// everything outside the edge toward a node, built root-to-tips for the
/// all-branch gradient (Gangavarapu et al. 2023; BEAGLE 4.1's
/// PRE_ORDER_PARTIAL operations).
enum class PlfOpKind : std::int8_t { kNewview, kPreorder };

/// One pending PLF operation: compute the CLA of `slot` (a newview call).
/// Children that the same plan computes are referenced by op index; -1 means
/// the child is a tip or an already-valid CLA (a plan input).
///
/// Preorder ops reuse the same record with different field roles: `slot` is
/// the parent's half-edge pointing at the target node v (so slot->back is
/// v's slot and slot->length is the branch whose gradient pairs with v's
/// postorder CLA), `left_op` is the index of the parent's own preorder op
/// (-1 = the parent is a root-edge endpoint, seeded from the virtual root),
/// `sibling` is the parent's half-edge toward v's sibling (whose *postorder*
/// CLA feeds the update), `node_id` is v and `buffer` the stack buffer v's
/// partial is written to.  By reversibility the update itself is a plain
/// newview: z_v = W[(U e^{Λ t_u} z_u) ∘ (U e^{Λ t_w} y_w)].
struct PlfOp {
  tree::Slot* slot = nullptr;
  int node_id = -1;
  std::int32_t left_op = -1;   ///< op computing child1's CLA, -1 = plan input
  std::int32_t right_op = -1;  ///< op computing child2's CLA, -1 = plan input
  /// Sethi-Ullman buffer need of the subtree rooted here (>= 1; 0 for
  /// preorder ops, which have no postorder subtree).  The executor forwards
  /// it to memory::ClaStore as the CLA's rebuild cost, the eviction score
  /// of DESIGN.md §14.
  std::int32_t registers = 0;
  tree::Slot* sibling = nullptr;  ///< preorder only: parent's half-edge to the sibling
  /// Preorder only: index of the partial buffer this op writes, in
  /// [0, TraversalPlan::buffers()); the parent's is ops()[left_op].buffer.
  std::int32_t buffer = -1;
  PlfOpKind kind = PlfOpKind::kNewview;
};

/// One traversal goal: the slot whose CLA the caller wants valid, and the
/// op that computes it (-1 when it is a tip or already valid — plans for
/// fully cached traversals are empty but still carry their roots).
struct PlanRoot {
  tree::Slot* slot = nullptr;
  std::int32_t op = -1;
};

class TraversalPlan {
 public:
  [[nodiscard]] std::span<const PlfOp> ops() const { return ops_; }
  [[nodiscard]] std::span<const PlanRoot> roots() const { return roots_; }
  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] std::int64_t op_count() const { return static_cast<std::int64_t>(ops_.size()); }

  /// Preorder plans: partial buffers live at once at the plan's peak, the
  /// size of the stack its ops' `buffer` indices address (0 otherwise).
  [[nodiscard]] int buffers() const { return buffers_; }

  void clear() {
    buffers_ = 0;
    ops_.clear();
    roots_.clear();
  }

 private:
  friend class TraversalPlanner;

  std::vector<PlfOp> ops_;  ///< Sethi-Ullman DFS post-order
  std::vector<PlanRoot> roots_;
  int buffers_ = 0;
};

/// Iterative traversal planner.  One instance per engine; the per-slot
/// scratch arrays are reused across builds (grown on demand), so a build is
/// one allocation-free O(subtree) sweep after warm-up.
class TraversalPlanner {
 public:
  /// Plans the minimal set of newview ops that makes the CLA toward every
  /// goal valid.  `valid(slot)` reports whether an inner slot's CLA is
  /// currently valid *toward that slot*; the planner still descends through
  /// valid nodes, because a deep invalidation must propagate to every
  /// ancestor (the RAxML partial-traversal rule).  Children are emitted
  /// larger-register-need-first (Sethi-Ullman), which bounds the live
  /// working set of a DFS-order execution by ~log2(n).
  template <typename ValidFn>
  void build(std::span<tree::Slot* const> goals, ValidFn&& valid, TraversalPlan& out) {
    out.clear();
    ++stamp_;
    for (tree::Slot* goal : goals) {
      measure(goal, valid);
      PlanRoot root;
      root.slot = goal;
      if (!goal->is_tip() && scratch(goal).recompute) {
        emit(goal, out);
        root.op = scratch(goal).op;
      }
      out.roots_.push_back(root);
    }
  }

 private:
  struct SlotScratch {
    std::uint32_t stamp = 0;      ///< build id this entry belongs to
    std::int32_t registers = 0;   ///< Sethi-Ullman buffer need of the subtree
    std::int32_t op = -1;         ///< emitted op index (emission pass)
    bool recompute = false;
  };

  struct Frame {
    tree::Slot* slot = nullptr;
    bool expanded = false;
  };

  [[nodiscard]] SlotScratch& scratch(const tree::Slot* slot) {
    const auto index = static_cast<std::size_t>(slot->slot_index);
    if (index >= scratch_.size()) scratch_.resize(index + 1);
    return scratch_[index];
  }

  /// Pass 1: bottom-up {recompute, registers} for every inner slot of the
  /// goal's subtree (explicit-stack post-order; skips slots already measured
  /// in this build).
  template <typename ValidFn>
  void measure(tree::Slot* goal, ValidFn&& valid) {
    if (goal->is_tip() || scratch(goal).stamp == stamp_) return;
    stack_.clear();
    stack_.push_back({goal, false});
    while (!stack_.empty()) {
      Frame& frame = stack_.back();
      tree::Slot* slot = frame.slot;
      if (!frame.expanded) {
        frame.expanded = true;
        for (tree::Slot* child : {slot->child1(), slot->child2()}) {
          if (!child->is_tip() && scratch(child).stamp != stamp_) {
            stack_.push_back({child, false});
          }
        }
        continue;
      }
      stack_.pop_back();
      SlotScratch& entry = scratch(slot);
      entry.stamp = stamp_;
      entry.op = -1;
      const auto need = [this](const tree::Slot* child) -> std::pair<bool, std::int32_t> {
        if (child->is_tip()) return {false, 0};
        const SlotScratch& c = scratch_[static_cast<std::size_t>(child->slot_index)];
        return {c.recompute, c.registers};
      };
      const auto [r1, reg1] = need(slot->child1());
      const auto [r2, reg2] = need(slot->child2());
      if (!r1 && !r2 && valid(slot)) {
        // Whole subtree valid: a resident plan input, costing one buffer.
        entry.recompute = false;
        entry.registers = 1;
        continue;
      }
      entry.recompute = true;
      entry.registers =
          std::max<std::int32_t>(1, (reg1 == reg2) ? reg1 + 1 : std::max(reg1, reg2));
    }
  }

 public:
  /// Builds the root-to-tips preorder plan for the gradient pass: one
  /// kPreorder op per non-root edge (2n-4 ops — tips included, since the
  /// branch *above* a tip still needs its gradient), emitted depth first.
  /// At each node both children's ops are emitted, then the descent enters
  /// the subtree with fewer tips first; each op's partial gets a buffer
  /// index from a free list, Sethi–Ullman register style, held from its op
  /// until both of its children's ops are emitted (a tip's only by its own
  /// op).  A partial left waiting is always the larger sibling's, so at
  /// most ⌈log2 n⌉ + 2 buffers are live for n taxa; buffers() records the
  /// plan's peak.  Parents precede children, so emission order is the
  /// schedule.  Requires every postorder CLA to be
  /// valid toward `root_edge` (run validate_edge first); needs no planner
  /// state, hence static.
  static void build_preorder(tree::Slot* root_edge, TraversalPlan& out);

 private:
  /// Pass 2: emits the goal's recompute set in Sethi-Ullman DFS post-order,
  /// assigning child-op links as it goes.
  void emit(tree::Slot* goal, TraversalPlan& out);

  std::vector<SlotScratch> scratch_;  ///< indexed by slot_index
  std::vector<Frame> stack_;
  std::uint32_t stamp_ = 0;
};

/// Execution counters of one plan cache (also published as obs metrics when
/// the engine has metrics on).
struct PlanCounters {
  std::int64_t builds = 0;        ///< plans built (or rebuilt) from the tree
  std::int64_t cache_hits = 0;    ///< traversals skipped: cached plan still satisfied
  std::int64_t reuses = 0;        ///< prebuilt plans executed without a rebuild
  std::int64_t executed_ops = 0;  ///< newview ops run through plan execution
  std::int64_t executed_plans = 0;
};

/// Registry ids for the shared plan metric family ("plan.*").
struct PlanMetricIds {
  obs::MetricId builds = 0;
  obs::MetricId cache_hits = 0;
  obs::MetricId reuses = 0;
  obs::MetricId executed_ops = 0;
  obs::MetricId executed_plans = 0;
  obs::MetricId build_ns = 0;  ///< histogram: per-build planning latency
};

/// Interns the plan metric family (idempotent; engines share the counters,
/// like the plf.* kernel family).
[[nodiscard]] PlanMetricIds register_plan_metrics();

/// Per-branch plan cache plus the plan.* counters and metrics.  Every
/// engine family owns one through its EngineCore, whose executor runs the
/// plans it hands out in DFS order with the pin/evict discipline.
///
/// Epoch protocol: every CLA state change (newview, invalidation, eviction,
/// model or rate change) must call note_cla_state_changed().  A cached plan
/// whose built_epoch matches the current epoch is re-executable as-is
/// ("reuse"); one whose satisfied_epoch matches means the goal CLAs are
/// still exactly as the last execution left them and the traversal is
/// skipped outright ("cache hit").
class PlanCache {
 public:
  /// One cached plan: the canonical branch slot it was built for, the epoch
  /// it was built against, and the epoch right after it last executed.
  struct Entry {
    tree::Slot* key = nullptr;
    std::uint64_t built_epoch = 0;      ///< 0 = never built
    std::uint64_t satisfied_epoch = 0;  ///< 0 = never executed
    std::int64_t last_use = 0;
    TraversalPlan plan;
  };

  explicit PlanCache(int capacity = 8) : capacity_(capacity) {
    entries_.reserve(static_cast<std::size_t>(capacity));
  }

  /// Interns the plan.* metric family; call once when the owner has metrics
  /// enabled.
  void enable_metrics() {
    metrics_ = true;
    ids_ = register_plan_metrics();
  }

  void note_cla_state_changed() { ++epoch_; }

  [[nodiscard]] const PlanCounters& counters() const { return counters_; }

  /// Cache slot for the branch: both directions share one entry, keyed on
  /// the smaller slot index (small LRU over a fixed set; SPR candidate scans
  /// cycle through nearby branches, deeper history does not pay).
  Entry& entry_for(tree::Slot* edge) {
    tree::Slot* key = (edge->back->slot_index < edge->slot_index) ? edge->back : edge;
    Entry* found = nullptr;
    Entry* lru = nullptr;
    for (auto& entry : entries_) {
      if (entry.key == key) {
        found = &entry;
        break;
      }
      if (lru == nullptr || entry.last_use < lru->last_use) lru = &entry;
    }
    if (found == nullptr) {
      if (entries_.size() < static_cast<std::size_t>(capacity_)) {
        found = &entries_.emplace_back();
      } else {
        found = lru;
      }
      found->key = key;
      found->built_epoch = 0;
      found->satisfied_epoch = 0;
    }
    found->last_use = ++use_counter_;
    return *found;
  }

  /// Whether the entry's goal CLAs are untouched since its last execution.
  [[nodiscard]] bool satisfied(const Entry& entry) const {
    return entry.satisfied_epoch != 0 && entry.satisfied_epoch == epoch_;
  }

  /// Records that the entry's traversal ran, at the post-execution epoch.
  void mark_satisfied(Entry& entry) {
    entry.built_epoch = epoch_;
    entry.satisfied_epoch = epoch_;
  }

  /// The entry's plan, rebuilt from the tree unless it matches the current
  /// epoch.  `valid(slot)` is the owner's CLA validity test.
  template <typename ValidFn>
  const TraversalPlan& prepare(Entry& entry, ValidFn&& valid) {
    if (entry.built_epoch == epoch_) {
      // The tree and CLA validity have not changed since this plan was
      // built: the op list is still exact.
      ++counters_.reuses;
      if (metrics_) obs::Registry::instance().add(ids_.reuses, 1);
      return entry.plan;
    }
    Timer timer;
    tree::Slot* const goals[2] = {entry.key, entry.key->back};
    planner_.build(std::span<tree::Slot* const>(goals), valid, entry.plan);
    entry.built_epoch = epoch_;
    entry.satisfied_epoch = 0;
    ++counters_.builds;
    if (metrics_) {
      obs::Registry& registry = obs::Registry::instance();
      registry.add(ids_.builds, 1);
      registry.observe(ids_.build_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
    }
    return entry.plan;
  }

  /// Builds an uncached plan toward one goal (the executor recomputing a
  /// dropped input) with the same planner scratch.
  template <typename ValidFn>
  void build_subplan(tree::Slot* goal, ValidFn&& valid, TraversalPlan& out) {
    tree::Slot* const goals[1] = {goal};
    planner_.build(std::span<tree::Slot* const>(goals), valid, out);
    ++counters_.builds;
    if (metrics_) obs::Registry::instance().add(ids_.builds, 1);
  }

  void count_cache_hit() {
    ++counters_.cache_hits;
    if (metrics_) obs::Registry::instance().add(ids_.cache_hits, 1);
  }

  void count_executed_op() {
    ++counters_.executed_ops;
    if (metrics_) obs::Registry::instance().add(ids_.executed_ops, 1);
  }

  void count_executed_plan() {
    ++counters_.executed_plans;
    if (metrics_) obs::Registry::instance().add(ids_.executed_plans, 1);
  }

 private:
  int capacity_;
  TraversalPlanner planner_;
  std::vector<Entry> entries_;
  std::uint64_t epoch_ = 1;
  std::int64_t use_counter_ = 0;
  PlanCounters counters_;
  PlanMetricIds ids_;
  bool metrics_ = false;
};

/// Minimal parallel-for seam so the partitioned evaluator can run its
/// stream tasks concurrently without a dependency on src/parallel (which
/// links against core, not the other way around).
/// run() must execute fn(0..count-1) to completion before returning; fn
/// must be safe to call from multiple threads.
class ParallelFor {
 public:
  virtual ~ParallelFor() = default;
  virtual void run(int count, const std::function<void(int)>& fn) = 0;
};

}  // namespace miniphi::core
