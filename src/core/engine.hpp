// Likelihood engine: orchestrates the four PLF kernels over a tree.
//
// One engine owns the conditional likelihood arrays (CLAs) for a contiguous
// *slice* of the alignment patterns.  This mirrors both parallelization
// schemes in the paper: RAxML-Light's PThreads workers and ExaML's MPI ranks
// each own a site slice and reduce scalar results (log-likelihood,
// derivatives); alternatively one engine can span all patterns and
// parallelize each kernel's site loop with OpenMP (the ExaML-MIC hybrid
// scheme, Section V-D).
//
// CLA validity uses RAxML's orientation scheme: each inner node caches which
// of its three slots its CLA currently "points toward", plus a validity bit.
// Partial traversals recompute exactly the invalid/reoriented part of the
// tree.  Topology or branch-length changes must be announced via
// invalidate_node(); traversals descend through valid nodes, so a deep
// invalidation correctly propagates to all ancestors on the next traversal.
//
// Traversals are *planned*, not recursed: every virtual-root placement is
// compiled (by core::TraversalPlanner) into a flat, dependency-leveled
// PlfOp list which a small executor runs against the kernels.  Plans are
// cached per branch and revalidated with an epoch counter that every CLA
// state change (newview, invalidation, model change, eviction) bumps — a
// repeated evaluation at an untouched branch skips the tree walk entirely.
// The flat form is also what the batching layers consume: partitioned and
// wavefront evaluators fetch per-engine plans via plan_traversal(), run the
// interleaved ops level by level through execute_plan_level(), and mark
// them done with commit_planned_traversal().
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/engine_config.hpp"
#include "src/core/engine_metrics.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/kernels.hpp"
#include "src/core/ptable.hpp"
#include "src/core/sdc.hpp"
#include "src/core/trace.hpp"
#include "src/core/traversal_plan.hpp"
#include "src/memory/cla_store.hpp"
#include "src/model/gtr.hpp"
#include "src/tree/tree.hpp"
#include "src/util/aligned.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {

/// Branch-length domain for Newton–Raphson optimization.
inline constexpr double kMinBranchLength = 1e-8;
inline constexpr double kMaxBranchLength = 50.0;

class LikelihoodEngine final : public Evaluator {
 public:
  /// All knobs are the shared core::EngineConfig set (the former DNA
  /// fast-path extras — trace, cla_buffers, site_repeats — moved up in PR 8
  /// so the factory seam configures every engine with one type).
  using Config = EngineConfig;

  /// The engine keeps references to patterns and tree; both must outlive it.
  /// The model is copied (it is small) and can be replaced via set_model.
  LikelihoodEngine(const bio::PatternSet& patterns, const model::GtrModel& model,
                   tree::Tree& tree, const Config& config);

  /// Default configuration: widest supported ISA, full pattern range.
  LikelihoodEngine(const bio::PatternSet& patterns, const model::GtrModel& model,
                   tree::Tree& tree)
      : LikelihoodEngine(patterns, model, tree, Config{}) {}

  [[nodiscard]] std::int64_t slice_begin() const { return offset_; }
  [[nodiscard]] std::int64_t slice_size() const { return length_; }
  [[nodiscard]] const model::GtrModel& model() const { return model_; }
  [[nodiscard]] simd::Isa isa() const override { return ops_.isa; }

  /// Replaces the model (e.g. new α or GTR rates); invalidates all CLAs.
  void set_model(const model::GtrModel& model);

  // GTR seam of the Evaluator interface (model optimization through the
  // factory-returned handle).
  [[nodiscard]] const model::GtrModel* gtr_model() const override { return &model_; }
  bool set_gtr_model(const model::GtrModel& model) override {
    set_model(model);
    return true;
  }

  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override { return model_.params().alpha; }

  /// Marks one inner node's CLA stale.  Call for every node whose incident
  /// branches or subtree composition changed.
  void invalidate_node(int node_id) override;
  /// Branch-length-only invalidation: drops the CLA values but keeps the
  /// node's site-repeat classes (they depend only on topology + tip data).
  void invalidate_branch(int node_id) override;
  void invalidate_all();

  /// Log-likelihood of this engine's slice with the virtual root on the
  /// branch (edge, edge->back).  Runs the minimal newview traversal first.
  double log_likelihood(tree::Slot* edge) override;

  /// Phase 1 of branch optimization at (edge, edge->back): ensures both
  /// endpoint CLAs are valid and fills the sum buffer (derivativeSum kernel).
  /// The buffer stays valid until the next prepare/newview-invalidating call.
  void prepare_derivatives(tree::Slot* edge) override;

  /// Phase 2: first/second derivative of the slice log-likelihood w.r.t.
  /// the branch length, evaluated at `z` (derivativeCore kernel).
  std::pair<double, double> derivatives(double z) override;

  /// Newton–Raphson optimization of one branch (single-engine convenience;
  /// distributed drivers run their own Newton loop over derivatives()).
  /// Returns the optimized branch length, which is also set on the edge.
  double optimize_branch(tree::Slot* edge, int max_iterations) override;
  using Evaluator::optimize_branch;

  /// One smoothing pass over all branches; returns the final log-likelihood
  /// at `root_edge`.
  double optimize_all_branches(tree::Slot* root_edge, int passes) override;
  double optimize_all_branches(tree::Slot* root_edge) { return optimize_all_branches(root_edge, 1); }

  /// All-branch derivatives in one postorder + preorder sweep: the postorder
  /// CLAs are validated toward `root_edge` once, then a root-to-tips descent
  /// computes one *preorder partial* per non-root edge (the conditional
  /// likelihood of everything outside the edge's subtree) with the ordinary
  /// newview kernel — reversibility folds the direction reversal into the
  /// stored eigenspace form — and contracts it against the edge's postorder
  /// side through derivativeSum/derivativeCore.  O(N) kernel invocations for
  /// all 2N−3 branches instead of the O(N²) of preparing each branch with its
  /// own traversal.  Works on every CLA budget: preorder partials live in
  /// their own store-managed tier (spilled, never recomputed) and postorder
  /// inputs the descent finds evicted are reloaded or rebuilt in place.
  bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) override;

  [[nodiscard]] const KernelStat& stats(Kernel k) const { return stats_.kernel(k); }
  [[nodiscard]] const EvalStats& stats() const override { return stats_; }
  void reset_stats() override;

  /// Applies a Newton step with the standard safeguards (used by both the
  /// local and the distributed Newton loops so they behave identically).
  static double newton_step(double z, double first, double second);

  /// Number of CLA buffers this engine allocated (== inner node count
  /// unless a smaller Config::cla_buffers budget is in force).
  [[nodiscard]] int cla_buffer_count() const { return store_.resident_count(); }

  /// The postorder CLA store (eviction/spill/reload counters and the spill
  /// test hooks live there).
  [[nodiscard]] const memory::ClaStore& cla_store() const { return store_; }
  [[nodiscard]] memory::ClaStore& cla_store_for_testing() { return store_; }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override { return store_.resident_bytes(); }

  /// Whether the site-repeats path is active.
  [[nodiscard]] bool site_repeats() const { return site_repeats_; }

  /// Drops every pin in both CLA tiers (postorder store and the preorder
  /// gradient tier).  Top-level entry points call this when a cooperative
  /// cancellation (Config::cancel) unwinds mid-traversal, so a cancelled
  /// engine holds zero pins and stays reusable; external executors
  /// (PartitionedEvaluator) call it for the same reason when the unwind
  /// starts outside any engine.  Safe when no pins are held.
  void release_pins() {
    store_.reset_pins();
    if (pre_store_.is_configured()) pre_store_.reset_pins();
  }

  // --- Silent-data-corruption defense (Config::sdc_checks) ---------------

  /// Monotonic SDC verification/heal counters (always maintained when
  /// sdc_checks is on; mirrored to the `sdc.*` registry family with metrics).
  [[nodiscard]] const sdc::Counters& sdc_counters() const { return sdc_counters_; }

  /// Test-only fault injection: XORs one bit into a committed CLA buffer
  /// (word index taken modulo the committed region) and clears the node's
  /// verification memo, modelling corruption that struck *after* the last
  /// check.  Returns false when the node has no resident valid CLA.
  bool corrupt_cla_for_testing(int node_id, std::int64_t word, int bit);

  // --- Flat traversal plans ---------------------------------------------

  /// Plan for validating the CLAs at (edge, edge->back): the cached plan if
  /// it still matches the engine's CLA state, a freshly built one otherwise.
  /// Returns nullptr when the cached plan is already *satisfied* — nothing
  /// to run.  Used by batching executors (partitioned / wavefront /
  /// distributed); log_likelihood() and prepare_derivatives() consult the
  /// same cache internally.  The pointer stays valid until the next plan or
  /// invalidation call on this engine.
  const TraversalPlan* plan_traversal(tree::Slot* edge);

  /// Runs one dependency level of `plan` (all its ops are independent).
  /// External execution requires the full CLA budget: the caller, not the
  /// engine, owns op ordering, so the eviction pin discipline of the
  /// internal executor does not apply.  Thread-safety: one thread per
  /// engine at a time; different engines may run their levels concurrently.
  void execute_plan_level(const TraversalPlan& plan, int level);

  /// Runs a single op of `plan` (same contract and budget requirement as
  /// execute_plan_level; the caller must respect level order across calls).
  void execute_plan_op(const TraversalPlan& plan, std::int32_t op);

  /// Marks the traversal planned at `edge` as executed (all levels ran via
  /// execute_plan_level).  The next log_likelihood()/prepare_derivatives()
  /// at this edge then skips straight to the root kernel.
  void commit_planned_traversal(tree::Slot* edge);

  /// Monotonic plan-cache statistics (builds, satisfied-plan cache hits,
  /// prebuilt-plan reuses, executed ops/plans).
  [[nodiscard]] const PlanCounters& plan_counters() const { return plan_counters_; }

  /// Unique repeat classes of one inner node's current CLA (slice size on
  /// the dense path; 0 when the node's repeat map has not been built yet).
  [[nodiscard]] std::int64_t node_unique_classes(int node_id) const;

  /// Mean unique-class fraction over all inner nodes with built repeat maps
  /// (1.0 on the dense path) — the tentpole's headline instrumentation.
  [[nodiscard]] double unique_site_ratio() const;

 private:
  struct NodeCla {
    int slot = -1;                 ///< ClaStore slot (== inner index)
    int orientation = -1;          ///< slot_index the CLA points toward
    bool valid = false;            ///< logical validity; residency is the store's
    // SDC defense (Config::sdc_checks): checksum of the committed region,
    // the site blocks it covers (== unique classes on the repeats path), and
    // the trust-pass stamp of the last successful verification so one buffer
    // verifies at most once per top-level call.
    std::uint64_t checksum = 0;
    std::int64_t checked_blocks = 0;
    std::uint64_t verified_pass = 0;
  };

  [[nodiscard]] NodeCla& node_cla(int node_id);
  [[nodiscard]] bool slot_valid(const tree::Slot* s) const;
  [[nodiscard]] double* cla_data(NodeCla& node);
  [[nodiscard]] std::int32_t* scale_data(NodeCla& node);

  /// Write acquisition: gives `node` a resident buffer (store eviction may
  /// spill or drop an unpinned victim).
  void ensure_buffer(NodeCla& node);

  /// Read acquisition: makes a *valid* node's contents resident, reloading
  /// from the spill tier when evicted there.  A reload restarts the node's
  /// lazy trust pass (spilled state re-earns trust like resident state).
  void ensure_resident_cla(NodeCla& node);

  /// One cached plan: the canonical branch slot it was built for, the CLA
  /// epoch it was built against, and the epoch right after it last executed
  /// (satisfied_epoch == cla_epoch_ means every goal CLA is still exactly
  /// as the plan left it, so the traversal can be skipped outright).
  struct PlanCacheEntry {
    tree::Slot* key = nullptr;
    std::uint64_t built_epoch = 0;      ///< 0 = never built
    std::uint64_t satisfied_epoch = 0;  ///< 0 = never executed
    std::int64_t last_use = 0;
    TraversalPlan plan;
  };

  /// Cache slot for the branch (LRU over a small fixed set; SPR candidate
  /// scans cycle through nearby branches, deeper history does not pay).
  PlanCacheEntry& plan_entry(tree::Slot* edge);

  /// Builds the entry's plan unless it already matches cla_epoch_.
  const TraversalPlan& prepare_entry(PlanCacheEntry& entry);

  /// Makes the CLAs at (edge, edge->back) valid via the plan cache and
  /// leaves both end nodes pinned (+1); callers unpin after the consuming
  /// root kernel ran.
  void validate_edge(tree::Slot* edge);

  /// Runs a prepared plan: pins its pre-valid roots, then executes the ops
  /// — level order on a full budget (per-level spans/metrics), Sethi-Ullman
  /// DFS order under a tight budget (the order the pin discipline needs).
  void execute_plan(const TraversalPlan& plan);

  /// One op: readies the children (pin inputs, recompute evicted ones),
  /// runs newview, unpins the children and pins the output until its
  /// consumer — or, for root ops, until the caller unpins.  `pinning` is
  /// false on the external full-budget path, where level order alone
  /// guarantees readiness and eviction cannot happen.
  void run_plan_op(const PlfOp& op, bool pinning);

  /// Readies one child CLA for a pinning-mode op: in-plan children are
  /// already valid and pinned; pre-valid inputs get pinned and touched; an
  /// input evicted since planning (tight budget) is recomputed through a
  /// nested sub-plan — Izquierdo-Carrasco recomputation, time for memory.
  void ready_child(tree::Slot* child, bool computed_in_plan);

  /// Queues the op's valid frontier inputs (not computed in this plan) into
  /// the store's prefetch ring so spilled CLAs stream back while earlier
  /// kernels run.
  void prefetch_op_inputs(const PlfOp& op);

  void pin(int node_id);
  void unpin(int node_id);

  /// Every CLA state change bumps the epoch that plan-cache entries are
  /// validated against.
  void note_cla_state_changed() { ++cla_epoch_; }

  void run_newview(tree::Slot* slot);
  /// `verify` = false defers the input-CLA verification to the caller (the
  /// chunk loop in run_newview verifies interleaved with kernel execution
  /// instead of paying an up-front cold sweep).
  ChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                              std::span<double> ump, double branch_length, bool verify);

  double run_evaluate(tree::Slot* edge);

  // --- SDC defense internals --------------------------------------------

  /// Starts a new trust pass: every buffer consumed afterwards re-verifies
  /// (at most once).  Called at each top-level entry point.
  void begin_sdc_pass() { ++sdc_pass_; }

  /// Site blocks per chunk of the serial newview/derivativeSum loop: the
  /// dense kernels have no cross-site state, so they split bit-identically
  /// at any boundary; 512 blocks (64 KiB of values) keep each chunk cache
  /// resident between the kernel touching it and the SDC checksum
  /// re-reading it, which turns the checksum sweeps from DRAM traffic into
  /// register work.
  static constexpr std::int64_t kSdcChunkSites = 512;

  /// Whole-range lane-structured checksum of a committed CLA region, via
  /// the ISA-matched KernelOps::cla_checksum back-end.
  [[nodiscard]] std::uint64_t compute_cla_checksum(NodeCla& node, std::int64_t blocks);

  /// Lazily re-verifies a committed CLA before it is consumed as an input;
  /// throws sdc::CorruptionDetected on mismatch.  No-op when sdc_checks is
  /// off or the buffer was already verified this pass.
  void verify_cla(const tree::Slot* slot);

  /// True when the chunk loop must accumulate-and-compare `child`'s
  /// checksum (inner, committed, not yet trusted this pass).
  [[nodiscard]] bool wants_deferred_verify(const tree::Slot* child);

  /// Compare step of a deferred (chunked) verification: counts the check,
  /// throws on mismatch, marks the buffer trusted for this pass.
  void finish_deferred_verify(const tree::Slot* child, const sdc::ClaChecksum& sum);

  /// Counts a detection and throws sdc::CorruptionDetected.
  [[noreturn]] void report_corruption(int node_id, const std::string& what);

  /// Heal step of the bounded retry loop: resets the pin table (the throw
  /// unwound mid-plan), invalidates the corrupt node (or everything, for
  /// unlocalized faults), and counts a heal — or counts an escalation and
  /// rethrows once the retry budget is spent.  Must be called from a catch
  /// handler for sdc::CorruptionDetected.
  void heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt);

  /// The body of prepare_derivatives(), wrapped by the heal loop.
  void run_prepare_derivatives(tree::Slot* edge);

  /// The body of derivatives(), optionally also projecting the prepared
  /// branch's log-likelihood at `z` (DerivCtx::want_lnl) — the guard
  /// optimize_branch uses to reject an uphill final Newton iterate.
  std::pair<double, double> run_derivatives(double z, bool want_lnl, double& lnl_out);

  // --- Preorder partials (all-branch gradient) ---------------------------
  //
  // One buffer per node (tips included: the branch *above* a tip still needs
  // its gradient).  A node's preorder partial is the eigenspace conditional
  // of the whole tree minus the node's subtree, seen across the node's
  // parent edge — computed top-down by the standard newview kernel from the
  // parent's preorder partial and the sibling's postorder CLA.  Buffers are
  // always dense (site-indexed) even on the site-repeats path, because the
  // outer context of a site is not a function of the subtree pattern the
  // repeat classes dedup on; the repeat machinery still compresses every
  // postorder *input* through the per-site class maps.  Allocated lazily on
  // the first gradient_all_branches() call (~2× the postorder CLA pool).
  struct PreorderCla {
    // Values/scales live in pre_store_ (slot == node_id); the preorder tier
    // always spills on eviction because an outer partial, unlike a postorder
    // CLA, cannot be recomputed from a subtree.
    std::uint64_t checksum = 0;        ///< sdc defense, as NodeCla
    std::int64_t checked_blocks = 0;
    std::uint64_t verified_pass = 0;
  };

  /// The body of gradient_all_branches(), wrapped by the heal loop.
  void run_gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out);

  /// One preorder op: computes the preorder partial of op.node_id and
  /// appends the gradient of the edge above it (op.slot) to `out`.
  void run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                       std::vector<BranchGradient>& out);

  /// Re-verifies a preorder partial before it is consumed as a parent input.
  /// Unlike postorder CLAs, a preorder buffer is never read on a later pass,
  /// so storing its checksum does NOT mark it trusted — the exposure window
  /// is precisely compute → first consumption within one descent.
  void verify_preorder_cla(int node_id);

  // --- Site-repeats machinery -------------------------------------------
  //
  // Per inner node: a site → class map (two sites share a class iff their
  // tip-state pattern inside the node's subtree is identical, the LvD
  // subtree-pattern identity), the per-class child indices the repeat
  // kernel consumes, and a version stamp.  A node's classes are the
  // deduplicated pairs of its children's classes (tip codes for tips), so
  // maps are built bottom-up exactly where newview runs.  They depend only
  // on topology + tip data: invalidate_values() (branch lengths, model)
  // keeps them, invalidate_node() (possible topology change) drops them,
  // and parents notice rebuilt children through the version stamps.
  struct NodeRepeats {
    std::vector<std::uint32_t> class_of_site;  ///< [length_] site → class
    std::vector<std::uint32_t> left_index;     ///< [unique] class → left block/code
    std::vector<std::uint32_t> right_index;    ///< [unique] class → right block/code
    std::int64_t unique = 0;
    int orientation = -1;  ///< slot_index the classes point toward, -1 = invalid
    std::uint64_t version = 0;     ///< identity of this build (for parents)
    std::uint64_t left_seen = 0;   ///< child signatures at build time
    std::uint64_t right_seen = 0;
  };

  struct RepeatHashEntry {
    std::uint64_t key = 0;
    std::uint32_t cls = 0;
    std::uint32_t epoch = 0;
  };

  /// Signature identifying a child's current class structure: stable for
  /// tips, the map's build version for inner nodes.
  [[nodiscard]] std::uint64_t repeat_signature(const tree::Slot* child) const;

  /// (Re)builds the repeat classes for `slot` if its children's class
  /// structure changed since the last build; returns the unique count.
  std::int64_t ensure_repeat_classes(tree::Slot* slot);

  /// Marks one node's CLA values stale but keeps its repeat classes (used
  /// for branch-length changes, which cannot alter subtree tip patterns).
  void invalidate_values(int node_id);

  const bio::PatternSet& patterns_;
  model::GtrModel model_;
  tree::Tree& tree_;
  KernelOps ops_;
  KernelTuning tuning_;
  bool use_openmp_ = false;
  std::int64_t offset_ = 0;
  std::int64_t length_ = 0;

  std::vector<NodeCla> clas_;  ///< indexed by inner index (node_id - ntaxa)

  // Site-repeats state (empty unless Config::site_repeats).
  bool site_repeats_ = false;
  std::vector<NodeRepeats> repeats_;        ///< indexed like clas_
  std::vector<RepeatHashEntry> repeat_table_;  ///< open-addressing dedup table
  std::uint32_t repeat_epoch_ = 0;
  std::uint64_t repeat_version_counter_ = 0;

  // Tiered CLA storage (DESIGN.md §14): the store owns the buffer pool, the
  // pin table, the monotonic LRU epoch, and the recompute-vs-spill policy;
  // the engine owns validity, orientation, and checksums.
  memory::ClaStore store_;
  std::string cla_spill_dir_;  ///< kept for the lazily configured preorder tier

  // Branch-independent tables.
  AlignedDoubles tipvec16_;
  AlignedDoubles wtable_;

  // Per-call workspaces (rebuilt constantly; allocation-free hot path).
  AlignedDoubles ptable_left_;
  AlignedDoubles ptable_right_;
  AlignedDoubles ump_left_;
  AlignedDoubles ump_right_;
  AlignedDoubles diag_;
  AlignedDoubles evtab_;
  AlignedDoubles dtab_;
  AlignedDoubles sum_buffer_;

  EvalStats stats_;

  // Metrics publication (Config::metrics == kOn): ids cached once at
  // construction so the kernel path pays one branch + a few sharded adds.
  bool metrics_ = false;
  EngineMetricIds metric_ids_;

  // Plan cache + planner (see the class comment).
  static constexpr int kPlanCacheSize = 8;
  TraversalPlanner planner_;
  std::vector<PlanCacheEntry> plan_cache_;
  std::uint64_t cla_epoch_ = 1;
  std::int64_t plan_use_counter_ = 0;
  PlanCounters plan_counters_;
  PlanMetricIds plan_ids_;

  // SDC defense state (see sdc.hpp and DESIGN.md §10).
  bool sdc_checks_ = false;
  std::uint64_t sdc_pass_ = 1;  ///< trust pass for the verify memo
  sdc::Counters sdc_counters_;
  sdc::MetricIds sdc_ids_;

  // Preorder-partial state (lazily sized by gradient_all_branches).
  memory::ClaStore pre_store_;                 ///< slot == node_id (tips too)
  std::vector<PreorderCla> pre_clas_;          ///< indexed by node_id (tips too)
  std::vector<std::uint32_t> identity_gather_; ///< 0..length_-1 (dense side of a gather op)
  std::vector<std::uint32_t> code_gather_left_;   ///< tip codes widened for newview_repeats
  std::vector<std::uint32_t> code_gather_right_;
  TraversalPlan preorder_plan_;
  EngineMetricIds pre_metric_ids_;  ///< "plf.<isa>.preorder.*" family

  // State of the prepared derivative buffer.
  bool sum_prepared_ = false;
  bool sum_right_tip_ = false;   ///< tip-ness of the prepared branch (for the trace)
  bool sum_left_tip_ = false;

  KernelTrace* trace_ = nullptr;

  // Cooperative cancellation (Config::cancel; DESIGN.md §15).  checked at
  // plan-level boundaries via check_cancel(); nullptr = never cancelled.
  const CancelToken* cancel_ = nullptr;
  void check_cancel() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  friend class EngineTestPeer;
};

}  // namespace miniphi::core
