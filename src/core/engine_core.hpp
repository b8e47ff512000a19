// Shared orchestration core of the likelihood engines (DESIGN.md §9, §14).
//
// The dense DNA, CAT and general engines differ only in their kernels: the
// table builders, the newview/evaluate/derivative/preorder kernel calls and
// the CLA checksum.  Everything around those calls is one piece of code,
// owned by the EngineCore member of each engine's EngineFamily base
// (BEAGLE 4.1's shape: one library core, back-ends that differ in their
// kernels):
//
//   * per-node CLA state — validity, orientation and the SDC trust pass;
//   * the CLA byte budget and the tiered memory::ClaStore (eviction
//     invalidates through on_drop), plus the gradient descent's stack of
//     preorder partials, sized by its plan;
//   * the PlanCache and its epoch protocol;
//   * the plan executor: Sethi–Ullman DFS order with next-use hints,
//     prefetch, pins and nested-subplan recompute, at every CLA budget
//     (Izquierdo-Carrasco, paper §V-A);
//   * the Evaluator entry points: evaluation, the derivative protocol, the
//     Newton–Raphson branch optimizer with its uphill guard, smoothing
//     sweeps and the linear-time all-branch gradient descent (Gangavarapu
//     et al.);
//   * kernel accounting: one call per kernel invocation feeds EvalStats, the
//     plf.* registry counters and the optional KernelTrace;
//   * cooperative cancellation and the guarded entry-point loop (trust pass,
//     SDC heal, pin release on CancelledError).
//
// An engine derives from EngineFamily and overrides its kernel hooks; the
// core calls each hook once per kernel invocation, except in the gradient
// descent, where it runs every op slab by slab (kSdcChunkSites sites) and
// still accounts one call per kernel per op.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine_config.hpp"
#include "src/core/engine_metrics.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/kernels.hpp"
#include "src/core/sdc.hpp"
#include "src/core/trace.hpp"
#include "src/core/traversal_plan.hpp"
#include "src/memory/cla_store.hpp"
#include "src/tree/tree.hpp"
#include "src/util/aligned.hpp"
#include "src/util/cancellation.hpp"

namespace miniphi::core {

/// Branch-length domain for Newton–Raphson optimization.
inline constexpr double kMinBranchLength = 1e-8;
inline constexpr double kMaxBranchLength = 50.0;

/// Site blocks per chunk of the serial kernel loops: the dense newview and
/// derivativeSum with their fused SDC checksums, and the slabs of every
/// family's gradient descent.  512 blocks (64 KiB of dense values) keep a
/// chunk cache resident between the kernel that writes it and the kernel or
/// checksum that reads it next.  A multiple of kDerivSiteGroup, so a
/// derivativeCore carried across slabs is bit-identical to one call.
inline constexpr std::int64_t kSdcChunkSites = 512;
static_assert(kSdcChunkSites % kDerivSiteGroup == 0);

class EngineFamily;

/// Inputs of one preorder op, all readied (postorder inputs pinned and
/// resident) by the core before the family's descent kernels run: the
/// target node and the stack buffer of its partial, its left input — either
/// the parent's preorder partial or, for a seed op, the opposite root-edge
/// endpoint's postorder side — the sibling, and the node's own postorder
/// side the gradient contracts against.
struct PreorderInputs {
  int node = -1;                   ///< v, whose preorder partial the op computes
  int buffer = -1;                 ///< stack buffer of v's partial
  int parent_buffer = -1;          ///< non-seed ops: stack buffer of the parent's partial
  tree::Slot* opposite = nullptr;  ///< seed ops: the left input's postorder side
  double left_length = 0.0;        ///< branch the left input crosses
  tree::Slot* sibling = nullptr;   ///< right input: the sibling's postorder side
  tree::Slot* own = nullptr;       ///< v's half-edge up the gradient's edge: tip codes or a CLA
};

class EngineCore {
 public:
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

  // --- Evaluator entry points --------------------------------------------

  /// Log-likelihood at (edge, edge->back): validates the edge, runs the
  /// family's evaluate on the pinned endpoints and releases them; under SDC
  /// checks a non-finite result is an unlocalized fault.
  double log_likelihood(tree::Slot* edge);

  /// Validates (edge, edge->back) and fills the family's sum buffer through
  /// its derivativeSum; derivatives() then evaluates ℓ′/ℓ″ at any length.
  void prepare_derivatives(tree::Slot* edge);
  std::pair<double, double> derivatives(double z);

  /// Newton–Raphson optimization of one branch.  Iteration 0 also projects
  /// lnL at the starting length; a final iterate whose projection does not
  /// beat it is rejected, so the likelihood never drops.  Sets the length
  /// on the edge and returns it.
  double optimize_branch(tree::Slot* edge, int max_iterations);

  /// `passes` sweeps of optimize_branch over every edge; returns the final
  /// log-likelihood at `root_edge`.
  double optimize_all_branches(tree::Slot* root_edge, int passes);

  /// All-branch derivatives in one postorder + preorder sweep: the root edge
  /// through the two-endpoint protocol, then one preorder op per other edge
  /// in the depth-first plan's emission order (parents first, smaller
  /// subtree first), serial so the result does not depend on how the
  /// postorder CLAs were produced.  The partials live on a stack of
  /// full-width buffers grown to the plan's peak (at most ⌈log2 n⌉ + 2),
  /// indexed by each op's buffer.  Each op readies its
  /// inputs once, then runs one loop over kSdcChunkSites-site slabs: the
  /// family's preorder newview writes the slab of the node's partial,
  /// derivativeSum contracts it against the node's postorder side into a
  /// slab-sized scratch, and derivativeCore folds that scratch into sums
  /// carried from slab to slab (DerivCarry) — bit-identical to running
  /// each kernel over the full width, with the slab still in cache.
  void gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out);

  // --- Kernel accounting -------------------------------------------------

  /// Interns the per-kernel registry metrics "plf.<isa>.<path>.*" for the
  /// postorder kernels and "plf.<isa>.<preorder_path>.*" for the gradient
  /// descent's; a no-op with metrics off.
  void register_kernel_metrics(simd::Isa isa, const char* path, const char* preorder_path);

  /// The one accounting call per kernel invocation: adds to EvalStats,
  /// publishes the registry counters when metrics are on and records the
  /// KernelTrace entry when one is attached.  `sites` counts the blocks the
  /// call computed (the whole slice stands for them); the CLA bytes follow
  /// from the kernel and the tip-ness of its inputs.  derivativeCore reads
  /// only the sum buffer, so it takes the tips of the derivativeSum that
  /// filled it.  A descent op counts as one call per kernel over the whole
  /// slice, with its slab times summed.
  void account_kernel(Kernel kernel, bool preorder, std::int64_t sites, double seconds,
                      bool left_tip = false, bool right_tip = false);

  /// Rescaling events of one newview (metrics on only).
  void account_scaling_events(std::int64_t fresh);

  [[nodiscard]] const EvalStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EvalStats{}; }

  // --- CLA state ---------------------------------------------------------

  /// Whether the inner slot's CLA is valid *toward that slot*.  The planner
  /// calls this once per slot, so it stays a plain inline read.
  [[nodiscard]] bool slot_valid(const tree::Slot* s) const {
    const ClaState& node = clas_[static_cast<std::size_t>(s->node_id - taxa_)];
    return node.valid && node.orientation == s->slot_index;
  }

  [[nodiscard]] double* values(int node_id) { return store_.values(node_id - taxa_); }
  [[nodiscard]] std::int32_t* scales(int node_id) { return store_.scales(node_id - taxa_); }

  /// Marks one inner node stale and frees its buffers (tips are ignored);
  /// either call also retires the prepared sum buffer.
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

  /// Drops every pin in the CLA store; safe when none are held.
  void release_pins() { store_.reset_pins(); }

  // --- Traversals --------------------------------------------------------

  /// The plan for (edge, edge->back), or nullptr when the cached one is
  /// satisfied — what DistributedEvaluator derives its CommPlan from.
  const TraversalPlan* plan_traversal(tree::Slot* edge);

  [[nodiscard]] const PlanCounters& plan_counters() const { return plan_cache_.counters(); }

  // --- CLA storage -------------------------------------------------------

  [[nodiscard]] const memory::ClaStore& store() const { return store_; }
  [[nodiscard]] memory::ClaStore& store() { return store_; }

  /// A preorder partial (full width, site-indexed) on the descent's stack.
  [[nodiscard]] double* preorder_values(int buffer) {
    return partials_[static_cast<std::size_t>(buffer)].values.data();
  }
  [[nodiscard]] std::int32_t* preorder_scales(int buffer) {
    return partials_[static_cast<std::size_t>(buffer)].scales.data();
  }

  /// Bytes held by the stack of preorder partials: the peak of the largest
  /// descent plan run so far, in full-width buffers (outside the cap).
  [[nodiscard]] std::int64_t preorder_stack_bytes() const {
    return static_cast<std::int64_t>(partials_.size()) * full_width_cla_bytes(length_, block_);
  }

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

  /// Cancellation boundary (EngineConfig::cancel).
  void check_cancel() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// The body of prepare_derivatives(), run inside a guarded call.
  void run_prepare_derivatives(tree::Slot* edge);

  /// The family's derivativeCore at `z` over the prepared sum buffer, plus
  /// the one non-finite sentinel (the sum buffer is transient and not
  /// checksummed).
  std::pair<double, double> run_derivative_core(double z, bool want_lnl, double& lnl);

  /// Checksum of a whole CLA: one family fold over blocks [0, blocks).
  [[nodiscard]] std::uint64_t checksum_of(const double* values, const std::int32_t* scales,
                                          std::int64_t blocks);

  /// Every CLA state change bumps the plan-cache epoch.
  void note_cla_state_changed() { plan_cache_.note_cla_state_changed(); }

  void pin(int node_id) {
    if (node_id >= taxa_) store_.pin(node_id - taxa_);
  }
  void unpin(int node_id) {
    if (node_id >= taxa_) store_.unpin(node_id - taxa_);
  }

  /// Makes the CLAs at (edge, edge->back) valid through the plan cache and
  /// leaves both inner endpoints pinned and resident; callers unpin after
  /// the consuming root kernel.
  void validate_edge(tree::Slot* edge);

  /// Reloads an evicted valid CLA; a reload restarts its trust pass.
  void ensure_resident_cla(int node_id);

  /// Readies a plan input: pins it and makes it resident, recomputing it
  /// through a nested subplan when it was dropped since planning.  Inputs
  /// `computed_in_plan` are already valid and pinned.
  void ready_child(tree::Slot* child, bool computed_in_plan);

  /// Runs a prepared plan: pins its pre-valid roots, then executes its ops
  /// in DFS order with pin discipline, leaving the roots pinned.
  void execute_plan(const TraversalPlan& plan);

  /// One op through the family's newview: readies the children, and pins
  /// the output until its consumer releases it.
  void run_plan_op(const PlfOp& op);

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

  // --- Preorder descent (all-branch gradient) -----------------------------

  /// Opens one preorder op: names its partial's and the parent's stack
  /// buffers, and pins and readies (reload or rebuild) its postorder inputs
  /// — sibling, opposite endpoint for a seed op, and the node's own CLA,
  /// which is verified up front.
  PreorderInputs begin_preorder_op(const TraversalPlan& plan, const PlfOp& op);

  /// Whether the op must verify the parent's preorder partial: folded slab
  /// by slab just before the newview reads it, compared in end_preorder_op.
  [[nodiscard]] bool wants_parent_verify(const PreorderInputs& in) const;

  /// Closes one preorder op after its last slab: compares the parent
  /// partial's folded checksum (`parent_sum`, when verified; a mismatch
  /// throws before the edge's entry exists), records the fresh partial's
  /// (`fresh_sum`; trusted only at consumption) and releases every pin.
  void end_preorder_op(const PreorderInputs& in, const sdc::ClaChecksum* parent_sum,
                       const sdc::ClaChecksum& fresh_sum);

  EngineFamily& family_;
  tree::Tree& tree_;
  int taxa_ = 0;
  std::int64_t length_ = 0;
  std::int64_t block_ = 0;  ///< doubles per site block
  bool metrics_ = false;

  std::vector<ClaState> clas_;  ///< indexed by inner index
  memory::ClaStore store_;
  PlanCache plan_cache_;

  /// One full-width preorder partial of the descent's stack.
  struct Partial {
    AlignedDoubles values;
    std::vector<std::int32_t, AlignedAllocator<std::int32_t>> scales;
    ClaState sdc;  ///< only the SDC fields
  };
  std::vector<Partial> partials_;  ///< indexed by PlfOp::buffer; grown to the plan's peak
  TraversalPlan preorder_plan_;

  // The family's sum buffer (Newton protocol only; the descent sums slab by
  // slab into its own scratch): filled by derivativeSum, read by
  // derivativeCore until the next prepare, newview or invalidation.
  bool sum_prepared_ = false;
  bool sum_right_tip_ = false;  ///< tip-ness of the summed branch (for the trace)

  EvalStats stats_;
  EngineMetricIds metric_ids_;      ///< postorder kernels (metrics on)
  EngineMetricIds pre_metric_ids_;  ///< gradient-descent kernels (metrics on)
  KernelTrace* trace_ = nullptr;

  bool sdc_checks_ = false;
  std::uint64_t sdc_pass_ = 1;
  sdc::Counters sdc_counters_;
  sdc::MetricIds sdc_ids_;

  const CancelToken* cancel_ = nullptr;
};

/// The Evaluator every engine family is.  Each entry point forwards to the
/// family's EngineCore, which runs the orchestration and calls back into
/// the private kernel hooks below once per kernel invocation; a family
/// supplies only those hooks, its tables and its kernels.
class EngineFamily : public Evaluator {
 public:
  double log_likelihood(tree::Slot* edge) override { return core_.log_likelihood(edge); }
  void prepare_derivatives(tree::Slot* edge) override { core_.prepare_derivatives(edge); }
  std::pair<double, double> derivatives(double z) override { return core_.derivatives(z); }
  double optimize_branch(tree::Slot* edge, int max_iterations) override {
    return core_.optimize_branch(edge, max_iterations);
  }
  using Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override {
    return core_.optimize_all_branches(root_edge, passes);
  }
  /// Works on every CLA budget: preorder partials live on a stack of
  /// full-width buffers sized by the depth-first plan (at most
  /// ⌈log2 n⌉ + 2, outside the cap), and postorder inputs the descent finds
  /// evicted are reloaded or rebuilt in place.
  bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) override {
    core_.gradient_all_branches(root_edge, out);
    return true;
  }

  /// Site-repeat class maps are not state to invalidate (each is
  /// re-checked against its children on use), so the inherited
  /// invalidate_branch() is the same call.
  void invalidate_node(int node_id) override { core_.invalidate_node(node_id); }
  void invalidate_all() { core_.invalidate_all(); }

  [[nodiscard]] const EvalStats& stats() const override { return core_.stats(); }
  [[nodiscard]] const KernelStat& stats(Kernel k) const { return core_.stats().kernel(k); }
  void reset_stats() override { core_.reset_stats(); }

  /// The postorder CLA store (eviction/spill/reload counters and the spill
  /// test hooks live there).
  [[nodiscard]] const memory::ClaStore& cla_store() const { return core_.store(); }
  [[nodiscard]] memory::ClaStore& cla_store_for_testing() { return core_.store(); }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    return core_.store().budget_bytes();
  }
  /// Bytes of the gradient descent's preorder stack (EngineCore).
  [[nodiscard]] std::int64_t preorder_stack_bytes() const { return core_.preorder_stack_bytes(); }

  /// Plan for validating the CLAs at (edge, edge->back), or nullptr when the
  /// cached plan is already satisfied.  The distributed evaluator derives
  /// its communication plan from it; the pointer stays valid until the next
  /// plan or invalidation call on this engine.
  const TraversalPlan* plan_traversal(tree::Slot* edge) { return core_.plan_traversal(edge); }

  /// Monotonic plan-cache statistics (builds, satisfied-plan cache hits,
  /// executed ops/plans).
  [[nodiscard]] const PlanCounters& plan_counters() const { return core_.plan_counters(); }

  /// SDC verification/heal counters (EngineConfig::sdc_checks; DESIGN.md
  /// §10), mirrored to the `sdc.*` registry family with metrics on.
  [[nodiscard]] const sdc::Counters& sdc_counters() const { return core_.sdc_counters(); }

  /// Test-only fault injection: XORs one bit into a committed CLA buffer
  /// (word index taken modulo the blocks held) and clears the node's
  /// verification memo, modelling corruption that struck *after* the last
  /// check.  Returns false when the node has no resident valid CLA.
  bool corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
    return core_.corrupt_cla_for_testing(node_id, word, bit);
  }

  /// Drops every pin in the CLA store.  Entry points do this themselves
  /// when a cancellation unwinds; external executors (PartitionedEvaluator)
  /// call it when the unwind starts outside any engine.  Safe when no pins
  /// are held.
  void release_pins() { core_.release_pins(); }

  /// A Newton step with the standard safeguards: the geometric uphill move
  /// where ℓ is not locally concave, clamped to the branch-length domain.
  /// The aggregating evaluators' own Newton loops use it too.
  static double newton_step(double z, double first, double second);

 protected:
  explicit EngineFamily(tree::Tree& tree) : core_(*this, tree) {}
  ~EngineFamily() override = default;

  // Validity, orientation, the tiered store, plans, the executor, the entry
  // points, kernel accounting, cancellation and the SDC heal loop.
  EngineCore core_;

 private:
  friend class EngineCore;

  // --- Kernel hooks (called by the core only) -----------------------------

  /// Computes the CLA toward `slot` from its two children (tips or valid,
  /// resident CLAs) and commits it through EngineCore::commit_cla.
  virtual void run_newview(tree::Slot* slot) = 0;

  /// Folds site blocks [begin, end) of a CLA — values and scale counts —
  /// into `sum`; folding a range in ascending slabs gives the same state as
  /// one fold.  A CLA's checksum is the fold of its blocks [0, n).
  virtual void fold_checksum(sdc::ClaChecksum& sum, const double* values,
                             const std::int32_t* scales, std::int64_t begin,
                             std::int64_t end) = 0;

  /// evaluate across the branch (p, q) of length `length`: p is inner, both
  /// endpoints valid and pinned.
  virtual double run_evaluate(tree::Slot* p, tree::Slot* q, double length) = 0;

  /// derivativeSum of the branch (p, q) into the family's sum buffer: p is
  /// inner, both endpoints valid and pinned.
  virtual void run_derivative_sum(tree::Slot* p, tree::Slot* q) = 0;

  /// derivativeCore over the sum buffer at branch length `z`: returns
  /// (ℓ′, ℓ″) and, with `want_lnl`, the projected lnL at `z` in `lnl` (ℓ′
  /// and ℓ″ are the same bits either way).
  virtual std::pair<double, double> run_derivative_core(double z, bool want_lnl,
                                                        double& lnl) = 0;

  // --- The gradient descent's kernels: one op, slab by slab ---------------
  //
  // The core opens each op once, then calls the three range hooks on
  // ascending slabs [begin, end) of at most kSdcChunkSites sites that tile
  // [0, slice) (every slab but the last a multiple of kDerivSiteGroup
  // sites), serially and in kernel order.  The range hooks neither time
  // nor account: the core does both.

  /// Opens one descent op on readied inputs: builds the op's P-tables (and
  /// tip lookups) and its derivative table at in.own->length once, binds the
  /// preorder newview, derivativeSum and derivativeCore contexts, and
  /// zeroes the derivativeCore carry.
  virtual void begin_descent_op(const PreorderInputs& in) = 0;

  /// The preorder newview on one slab: in.node's partial from its left
  /// input and the sibling's postorder side.
  virtual void run_preorder_newview(std::int64_t begin, std::int64_t end) = 0;

  /// derivativeSum of the partial's slab against the node's own postorder
  /// side, into the family's slab-sized scratch.
  virtual void run_preorder_sum(std::int64_t begin, std::int64_t end) = 0;

  /// derivativeCore over the slab scratch with the op's carry; returns the
  /// running (ℓ′, ℓ″), which after the last slab are the edge's.
  virtual std::pair<double, double> run_descent_core(std::int64_t begin, std::int64_t end) = 0;
};

}  // namespace miniphi::core
