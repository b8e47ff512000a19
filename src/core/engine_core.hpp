// Shared orchestration core of the likelihood engines (DESIGN.md §9, §14).
//
// The dense DNA, CAT and general engines differ only in their kernels: the
// table builders, the newview/evaluate/derivative/preorder kernel calls and
// the CLA checksum.  Everything around those calls is one piece of code,
// owned by an EngineCore member of each engine (BEAGLE 4.1's shape: one
// library core, back-ends that differ in their kernels):
//
//   * per-node CLA state — validity, orientation and the SDC trust pass;
//   * the CLA budget and the tiered memory::ClaStore (eviction invalidates
//     through on_drop), plus the lazily configured preorder tier;
//   * the PlanCache and its epoch protocol;
//   * the plan executors: level order on a full budget, Sethi–Ullman DFS
//     order with next-use hints, prefetch, pins and nested-subplan
//     recompute under a tight one (Izquierdo-Carrasco, paper §V-A);
//   * the external plan API the batching evaluators drive;
//   * cooperative cancellation and the guarded entry-point loop (trust pass,
//     SDC heal, pin release on CancelledError).
//
// The engine plugs in through EngineFamily: its newview is the one hook the
// executors call per plan op.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine_config.hpp"
#include "src/core/sdc.hpp"
#include "src/core/traversal_plan.hpp"
#include "src/memory/cla_store.hpp"
#include "src/tree/tree.hpp"
#include "src/util/cancellation.hpp"

namespace miniphi::core {

/// What an engine family plugs into its EngineCore.
class EngineFamily {
 public:
  /// Computes the CLA toward `slot` from its two children (tips or valid,
  /// resident CLAs) and commits it through EngineCore::commit_cla.
  virtual void run_newview(tree::Slot* slot) = 0;

  /// The family's checksum of the first `blocks` site blocks of a CLA.
  [[nodiscard]] virtual std::uint64_t cla_checksum(const double* values,
                                                   const std::int32_t* scales,
                                                   std::int64_t blocks) = 0;

  /// The family's invalidation of one inner node and of every CLA (the
  /// heal loop's targeted and full sweeps); each also drops family state
  /// derived from the CLAs.
  virtual void invalidate_node(int node_id) = 0;
  virtual void invalidate_all() = 0;

 protected:
  ~EngineFamily() = default;
};

class EngineCore {
 public:
  /// Inputs of one preorder op, readied by begin_preorder_op: the target
  /// node, and its left input — either the parent's preorder partial or,
  /// for a seed op, the opposite root-edge endpoint's postorder side.
  struct PreorderInputs {
    int node = -1;                   ///< v, whose preorder partial the op computes
    int parent = -1;                 ///< u (non-seed ops), left input's preorder partial
    tree::Slot* opposite = nullptr;  ///< seed ops: the left input's postorder side
    double left_length = 0.0;        ///< branch the left input crosses
    tree::Slot* sibling = nullptr;   ///< right input: the sibling's postorder side
  };

  EngineCore(EngineFamily& family, tree::Tree& tree) : family_(family), tree_(tree) {}
  // The store's on_drop callback holds `this`.
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Sizes the CLA store for `length` patterns of `block` doubles each
  /// under config's budget; `who` prefixes the budget errors.  Call once
  /// from the engine constructor.
  void configure(const EngineConfig& config, std::int64_t length, std::int64_t block,
                 const std::string& who);

  [[nodiscard]] bool metrics() const { return metrics_; }
  [[nodiscard]] bool sdc_checks() const { return sdc_checks_; }

  // --- CLA state ---------------------------------------------------------

  /// Whether the inner slot's CLA is valid *toward that slot*.  The planner
  /// calls this once per slot, so it stays a plain inline read.
  [[nodiscard]] bool slot_valid(const tree::Slot* s) const {
    const ClaState& node = clas_[static_cast<std::size_t>(s->node_id - taxa_)];
    return node.valid && node.orientation == s->slot_index;
  }

  [[nodiscard]] double* values(int node_id) { return store_.values(node_id - taxa_); }
  [[nodiscard]] std::int32_t* scales(int node_id) { return store_.scales(node_id - taxa_); }

  /// Marks one inner node stale and frees its buffers (tips are ignored).
  void invalidate_node(int node_id);
  void invalidate_all();

  /// Write acquisition of `node_id`'s buffer with room for `blocks` site
  /// blocks (a site-repeats slot asks for its class count): may evict
  /// unpinned victims, spilling them or (via on_drop) invalidating them.
  void acquire(int node_id, std::int64_t blocks) { store_.acquire(node_id - taxa_, blocks); }

  /// Withdraws a node's validity while its buffer is overwritten in place,
  /// so an unwind mid-kernel cannot leave a half-written CLA advertised.
  void begin_overwrite(int node_id) { clas_[inner(node_id)].valid = false; }

  /// Commits a freshly computed CLA toward `slot` covering `blocks` site
  /// blocks: valid, oriented, trusted for this pass.  Under SDC checks it
  /// stores `sum` (or, without one, the family checksum of the buffer).
  void commit_cla(tree::Slot* slot, std::int64_t blocks, const sdc::ClaChecksum* sum = nullptr);

  /// Makes a valid CLA resident (reloading it from the spill tier) and,
  /// with `verify`, re-verifies it before a kernel consumes it.
  void resident_input(const tree::Slot* slot, bool verify = true);

  // --- SDC defense -------------------------------------------------------

  /// Lazily re-verifies a committed CLA; throws sdc::CorruptionDetected on
  /// a mismatch.  No-op without sdc_checks or once trusted this pass.
  void verify_cla(const tree::Slot* slot);

  /// Whether a chunked kernel loop must fold `child`'s checksum (inner,
  /// committed, not yet trusted this pass); finish_deferred_verify then
  /// compares the folded sum, throwing on a mismatch.
  [[nodiscard]] bool wants_deferred_verify(const tree::Slot* child) const;
  void finish_deferred_verify(const tree::Slot* child, const sdc::ClaChecksum& sum);

  /// Counts a detection and throws sdc::CorruptionDetected.
  [[noreturn]] void report_corruption(int node_id, const std::string& what);

  [[nodiscard]] const sdc::Counters& sdc_counters() const { return sdc_counters_; }

  /// Test hook: flips one bit of a committed, resident CLA (word index
  /// taken modulo the blocks the store holds for it) and clears its
  /// verification memo; false when there is none.
  bool corrupt_cla_for_testing(int node_id, std::int64_t word, int bit);

  // --- Guarded entry points ----------------------------------------------

  /// Runs one top-level call: opens a trust pass, heals and retries on
  /// sdc::CorruptionDetected (bounded; then escalates), and releases every
  /// pin before a CancelledError leaves the engine.
  template <typename Fn>
  auto guarded(Fn&& body) {
    for (int attempt = 0;; ++attempt) {
      try {
        if (sdc_checks_) ++sdc_pass_;
        return body();
      } catch (const sdc::CorruptionDetected& fault) {
        heal_or_rethrow(fault, attempt);
      } catch (const CancelledError&) {
        release_pins();
        throw;
      }
    }
  }

  /// log_likelihood() of every family: validates the edge, runs the family's
  /// `evaluate(edge)` on the pinned endpoints and releases them; under SDC
  /// checks a non-finite result is an unlocalized fault.
  template <typename EvaluateFn>
  double log_likelihood(tree::Slot* edge, EvaluateFn&& evaluate) {
    MINIPHI_ASSERT(edge != nullptr && edge->back != nullptr);
    return guarded([&] {
      validate_edge(edge);
      const double result = evaluate(edge);
      unpin(edge->node_id);
      unpin(edge->back->node_id);
      if (sdc_checks_ && !std::isfinite(result)) {
        report_corruption(-1, "sdc: non-finite log-likelihood from evaluate");
      }
      return result;
    });
  }

  /// Branch optimization's loop: `prepare` (itself guarded) runs outside
  /// the retry so its escalation propagates; a fault in `body` heals and
  /// re-prepares.
  template <typename Prepare, typename Body>
  auto heal_loop(Prepare&& prepare, Body&& body) {
    for (int attempt = 0;; ++attempt) {
      prepare();
      try {
        return body();
      } catch (const sdc::CorruptionDetected& fault) {
        heal_or_rethrow(fault, attempt);
      }
    }
  }

  /// Cancellation boundary (EngineConfig::cancel).
  void check_cancel() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// Drops every pin in both tiers; safe when none are held.
  void release_pins() {
    store_.reset_pins();
    if (pre_store_.is_configured()) pre_store_.reset_pins();
  }

  // --- Traversals --------------------------------------------------------

  /// Makes the CLAs at (edge, edge->back) valid through the plan cache and
  /// leaves both inner endpoints pinned and resident; callers unpin after
  /// the consuming root kernel.
  void validate_edge(tree::Slot* edge);

  void unpin(int node_id) {
    if (node_id >= taxa_) store_.unpin(node_id - taxa_);
  }

  /// The plan for (edge, edge->back), or nullptr when the cached one is
  /// satisfied — what DistributedEvaluator derives its CommPlan from.
  const TraversalPlan* plan_traversal(tree::Slot* edge);

  [[nodiscard]] const PlanCounters& plan_counters() const { return plan_cache_.counters(); }

  // --- CLA storage -------------------------------------------------------

  [[nodiscard]] const memory::ClaStore& store() const { return store_; }
  [[nodiscard]] memory::ClaStore& store() { return store_; }

  // --- Preorder descent (all-branch gradient) -----------------------------

  /// Sizes the preorder tier on first use: one always-spilling slot per
  /// node (an outer partial cannot be recomputed from a subtree).
  void ensure_preorder_tier();

  /// Runs `op_fn(plan, op)` for every op of the root-to-tips preorder plan
  /// at `root_edge`, serially in emission order, with a cancellation check
  /// per op.
  template <typename OpFn>
  void run_preorder_descent(tree::Slot* root_edge, OpFn&& op_fn) {
    // The descent's reload pattern is not the postorder plan the store last
    // saw: a fresh plan window keeps stale next-use hints out of eviction.
    store_.begin_plan();
    TraversalPlanner::build_preorder(root_edge, preorder_plan_);
    for (const PlfOp& op : preorder_plan_.ops()) {
      check_cancel();
      op_fn(preorder_plan_, op);
    }
  }

  /// Opens one preorder op: acquires and pins the node's preorder buffer,
  /// pins and readies its postorder inputs (sibling; opposite endpoint for
  /// a seed op), and reloads and verifies the parent's preorder partial.
  PreorderInputs begin_preorder_op(const TraversalPlan& plan, const PlfOp& op);

  /// After the preorder newview: releases the newview inputs and records
  /// the fresh partial's checksum (trusted only at consumption).
  void end_preorder_newview(const PreorderInputs& in);

  /// Before the gradient contraction: pins, readies (reload or rebuild)
  /// and verifies the inner node's own postorder CLA.
  void ready_preorder_node(tree::Slot* node_slot);

  /// After the gradient contraction: releases the node's postorder CLA and
  /// its preorder partial, and drops the partials this op read last.
  void end_preorder_op(const PreorderInputs& in);

  [[nodiscard]] double* preorder_values(int node_id) { return pre_store_.values(node_id); }
  [[nodiscard]] std::int32_t* preorder_scales(int node_id) { return pre_store_.scales(node_id); }

 private:
  struct ClaState {
    int orientation = -1;             ///< slot_index the CLA points toward
    bool valid = false;               ///< logical validity; residency is the store's
    std::uint64_t checksum = 0;       ///< SDC: checksum of the committed region
    std::int64_t checked_blocks = 0;  ///< site blocks it covers (0 = none)
    std::uint64_t verified_pass = 0;  ///< trust pass of the last verification
  };

  [[nodiscard]] std::size_t inner(int node_id) const {
    MINIPHI_ASSERT(node_id >= taxa_);
    return static_cast<std::size_t>(node_id - taxa_);
  }

  /// Every CLA state change bumps the plan-cache epoch.
  void note_cla_state_changed() { plan_cache_.note_cla_state_changed(); }

  void pin(int node_id) {
    if (node_id >= taxa_) store_.pin(node_id - taxa_);
  }

  /// Reloads an evicted valid CLA; a reload restarts its trust pass.
  void ensure_resident_cla(int node_id);

  /// Readies a plan input: pins it and makes it resident, recomputing it
  /// through a nested subplan when it was dropped since planning.  Inputs
  /// `computed_in_plan` are already valid and pinned.
  void ready_child(tree::Slot* child, bool computed_in_plan);

  /// Runs a prepared plan: pins its pre-valid roots, then executes level
  /// order on a full budget or DFS order with pin discipline on a tight one.
  void execute_plan(const TraversalPlan& plan);

  /// One op through the family's newview.  `pinning` readies the children
  /// and pins the output until its consumer; off on the full-budget paths,
  /// where level order guarantees readiness and nothing is evicted.
  void run_plan_op(const PlfOp& op, bool pinning);

  /// Queues the op's valid frontier inputs into the store's prefetch ring.
  void prefetch_op_inputs(const PlfOp& op);

  /// Checksums a CLA and compares it with the recorded one; a mismatch
  /// reports a fault on `fault_node` (-1 = unlocalized) with `what`.
  void verify_against(ClaState& state, const double* values, const std::int32_t* scales,
                      int fault_node, const std::string& what);

  /// Heal step of the guarded loops: resets the pins the throw stranded,
  /// then invalidates the faulty node (or everything) and counts a heal, or
  /// counts an escalation and rethrows once the retry budget is spent.
  /// Without sdc_checks there is no heal: the fault propagates as is.
  void heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt);

  EngineFamily& family_;
  tree::Tree& tree_;
  int taxa_ = 0;
  std::int64_t length_ = 0;
  std::int64_t block_ = 0;  ///< doubles per site block
  bool metrics_ = false;

  std::vector<ClaState> clas_;  ///< indexed by inner index
  memory::ClaStore store_;
  std::string spill_dir_;       ///< for the lazily configured preorder tier
  PlanCache plan_cache_;

  memory::ClaStore pre_store_;   ///< slot == node_id (tips too)
  std::vector<ClaState> pre_;    ///< indexed by node_id; only the SDC fields
  std::vector<int> pre_readers_;  ///< child ops yet to read each partial
  TraversalPlan preorder_plan_;

  bool sdc_checks_ = false;
  std::uint64_t sdc_pass_ = 1;
  sdc::Counters sdc_counters_;
  sdc::MetricIds sdc_ids_;

  const CancelToken* cancel_ = nullptr;
};

}  // namespace miniphi::core
