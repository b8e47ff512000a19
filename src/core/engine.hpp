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
// Orchestration is not this file's: the engine is the DNA fast-path family
// of the shared core::EngineCore (engine_core.hpp), which owns CLA validity,
// the tiered store, the plan cache and both plan executors, cancellation and
// the SDC heal loop for every engine family.  Traversals are *planned*, not
// recursed — each virtual-root placement compiles into a flat,
// dependency-leveled PlfOp list, cached per branch under an epoch protocol —
// and the core calls back into run_newview() once per op.  This class keeps
// what is DNA-specific: the 4-state Γ kernels and their tables, the chunked
// SDC checksum loop, the site-repeats class maps, and the kernel statistics.
// The flat form is also what the distributed layer consumes: it fetches
// each traversal's plan via plan_traversal() to derive its communication
// plan.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/engine_config.hpp"
#include "src/core/engine_core.hpp"
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

class LikelihoodEngine final : public Evaluator, private EngineFamily {
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
  /// branches or subtree composition changed.  Site-repeat class maps are
  /// not state to invalidate (each is re-checked against its children on
  /// use), so the inherited invalidate_branch() is the same call.
  void invalidate_node(int node_id) override;
  void invalidate_all() override;

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

  /// Full-width CLA buffers the budget holds (== inner node count unless
  /// a smaller Config::cla_buffers or cla_budget_bytes budget is in force).
  [[nodiscard]] int cla_buffer_count() const { return core_.store().full_width_buffers(); }

  /// The postorder CLA store (eviction/spill/reload counters and the spill
  /// test hooks live there).
  [[nodiscard]] const memory::ClaStore& cla_store() const { return core_.store(); }
  [[nodiscard]] memory::ClaStore& cla_store_for_testing() { return core_.store(); }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    return core_.store().budget_bytes();
  }

  /// Whether the site-repeats path is active.
  [[nodiscard]] bool site_repeats() const { return site_repeats_; }

  /// Drops every pin in both CLA tiers (postorder store and the preorder
  /// gradient tier).  Top-level entry points call this when a cooperative
  /// cancellation (Config::cancel) unwinds mid-traversal, so a cancelled
  /// engine holds zero pins and stays reusable; external executors
  /// (PartitionedEvaluator) call it for the same reason when the unwind
  /// starts outside any engine.  Safe when no pins are held.
  void release_pins() { core_.release_pins(); }

  // --- Silent-data-corruption defense (Config::sdc_checks) ---------------

  /// Monotonic SDC verification/heal counters (always maintained when
  /// sdc_checks is on; mirrored to the `sdc.*` registry family with metrics).
  [[nodiscard]] const sdc::Counters& sdc_counters() const { return core_.sdc_counters(); }

  /// Test-only fault injection: XORs one bit into a committed CLA buffer
  /// (word index taken modulo the committed region) and clears the node's
  /// verification memo, modelling corruption that struck *after* the last
  /// check.  Returns false when the node has no resident valid CLA.
  bool corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
    return core_.corrupt_cla_for_testing(node_id, word, bit);
  }

  // --- Flat traversal plans ---------------------------------------------

  /// Plan for validating the CLAs at (edge, edge->back): the cached plan if
  /// it still matches the engine's CLA state, a freshly built one otherwise.
  /// Returns nullptr when the cached plan is already *satisfied* — nothing
  /// to run.  Used by the distributed evaluator; log_likelihood() and
  /// prepare_derivatives() consult the same cache internally.  The pointer
  /// stays valid until the next plan or invalidation call on this engine.
  const TraversalPlan* plan_traversal(tree::Slot* edge) { return core_.plan_traversal(edge); }

  /// Monotonic plan-cache statistics (builds, satisfied-plan cache hits,
  /// prebuilt-plan reuses, executed ops/plans).
  [[nodiscard]] const PlanCounters& plan_counters() const { return core_.plan_counters(); }

  /// Unique repeat classes of one inner node's current CLA (slice size on
  /// the dense path and for identity slots; 0 when the node holds no valid
  /// CLA).
  [[nodiscard]] std::int64_t node_unique_classes(int node_id) const;

  /// Mean unique-class fraction over all directed slots with a built class
  /// record, identity slots counting 1.0 (1.0 on the dense path).
  [[nodiscard]] double unique_site_ratio() const;

  /// Monotonic count of class-record (re)builds: one per slot whose
  /// children's class structure changed since its last build, hashed or
  /// marked identity (0 on the dense path).
  [[nodiscard]] std::int64_t repeat_map_builds() const { return repeat_map_builds_; }

 private:
  // EngineFamily hooks (see engine_core.hpp).
  void run_newview(tree::Slot* slot) override;
  [[nodiscard]] std::uint64_t cla_checksum(const double* values, const std::int32_t* scales,
                                           std::int64_t blocks) override;

  /// `verify` = false defers the input-CLA verification to the caller (the
  /// chunk loop in run_newview verifies interleaved with kernel execution
  /// instead of paying an up-front cold sweep).
  ChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                              std::span<double> ump, double branch_length, bool verify);

  double run_evaluate(tree::Slot* edge);

  /// Site blocks per chunk of the serial newview/derivativeSum loop: the
  /// dense kernels have no cross-site state, so they split bit-identically
  /// at any boundary; 512 blocks (64 KiB of values) keep each chunk cache
  /// resident between the kernel touching it and the SDC checksum
  /// re-reading it, which turns the checksum sweeps from DRAM traffic into
  /// register work.
  static constexpr std::int64_t kSdcChunkSites = 512;

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
  // postorder *input* through the per-site class maps.  The core allocates
  // them lazily on the first gradient_all_branches() call (~2× the
  // postorder CLA pool).
  /// The body of gradient_all_branches(), wrapped by the heal loop.
  void run_gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out);

  /// One preorder op: computes the preorder partial of op.node_id and
  /// appends the gradient of the edge above it (op.slot) to `out`.
  void run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                       std::vector<BranchGradient>& out);

  // --- Site-repeats machinery -------------------------------------------
  //
  // One class record per directed inner slot (indexed by slot_index - ntaxa,
  // dense in [0, 3(n-2))): a site → class map for the subtree behind the
  // slot (two sites share a class iff their tip-state pattern inside that
  // subtree is identical, the LvD subtree-pattern identity) and each
  // class's first site, from which newview derives the per-class child
  // indices the repeat kernel consumes.  A slot's classes are the
  // deduplicated pairs of its children's classes (tip codes for tips),
  // built bottom-up where newview runs.  Records are a memo checked on
  // use, never invalidated: each remembers the signatures its children
  // had when it was built (a constant per-taxon tag for tips, a per-build
  // version or the shared identity signature for inner slots) and rebuilds
  // only when they differ.  Re-orienting a node therefore reuses that
  // orientation's record, and branch-length, model and heal invalidations
  // never touch them.
  //
  // Identity cutoff: a slot whose classes would exceed kIdentityFraction of
  // the slice keeps no map and computes site-indexed like the dense path.
  // Class counts only grow toward the root, so a slot with an identity
  // child is identity without hashing.

  /// Signature shared by every identity slot: a parent over an identity
  /// child is identity whatever that child's subtree, so it need not
  /// rebuild when one identity child is replaced by another.
  static constexpr std::uint64_t kIdentitySignature = 0x4000000000000000ULL;

  struct SlotRepeats {
    std::vector<std::uint32_t> class_of_site;  ///< [length_] site → class; empty if identity
    std::vector<std::uint32_t> first_site;     ///< [unique] class → its first site
    std::int64_t unique = 0;        ///< computed blocks (length_ if identity); 0 = never built
    std::uint64_t signature = 0;    ///< what parents see: build version or kIdentitySignature
    std::uint64_t left_seen = 0;    ///< child signatures at build time
    std::uint64_t right_seen = 0;
    [[nodiscard]] bool identity() const { return signature == kIdentitySignature; }
  };

  /// Fraction of the slice above which a slot runs as identity.  Near it a
  /// gathered class costs ~1.5× a dense site and hashing adds more, so
  /// compression barely pays, while near-unique maps hold most of the map
  /// bytes; search time measured flat from 0.5 to 0.9 and map memory grows
  /// with the fraction (EXPERIMENTS.md).
  static constexpr double kIdentityFraction = 0.7;

  struct RepeatHashEntry {
    std::uint64_t key = 0;
    std::uint32_t cls = 0;
    std::uint32_t epoch = 0;
  };

  [[nodiscard]] SlotRepeats& repeats_of(const tree::Slot* slot) {
    return repeats_[static_cast<std::size_t>(slot->slot_index - tree_.taxon_count())];
  }
  [[nodiscard]] const SlotRepeats& repeats_of(const tree::Slot* slot) const {
    return repeats_[static_cast<std::size_t>(slot->slot_index - tree_.taxon_count())];
  }

  /// Signature identifying a child's current class structure.
  [[nodiscard]] std::uint64_t repeat_signature(const tree::Slot* child) const;

  /// (Re)builds the class record of `slot` if its children's signatures
  /// changed since its last build.
  const SlotRepeats& ensure_repeat_classes(tree::Slot* slot);

  /// Where `child`'s per-site classes live: its tip code row or its map.
  void child_classes(const tree::Slot* child, const bio::DnaCode*& codes,
                     const std::uint32_t*& map) const;

  /// Fills class_left_/class_right_ with a compressed slot's per-class
  /// child indices (block index or tip code) for newview_repeats.
  void fill_class_children(tree::Slot* slot, const SlotRepeats& rep);

  /// Whether `slot` is an inner slot whose CLA is class-compressed.
  [[nodiscard]] bool compressed(const tree::Slot* slot) const {
    return site_repeats_ && !slot->is_tip() && !repeats_of(slot).identity();
  }

  /// Per-site block index (or tip code) of `slot`'s postorder side: its
  /// class map, identity_gather_, or the tip's codes widened into `scratch`.
  const std::uint32_t* site_gather(const tree::Slot* slot, std::vector<std::uint32_t>& scratch);

  const bio::PatternSet& patterns_;
  model::GtrModel model_;
  tree::Tree& tree_;
  KernelOps ops_;
  KernelTuning tuning_;
  bool use_openmp_ = false;
  std::int64_t offset_ = 0;
  std::int64_t length_ = 0;

  // Validity, orientation, the tiered store, plans, executors, cancellation
  // and the SDC heal loop (engine_core.hpp).
  EngineCore core_;

  // Site-repeats state (empty unless Config::site_repeats).
  bool site_repeats_ = false;
  std::vector<SlotRepeats> repeats_;           ///< indexed by slot_index - ntaxa
  std::vector<RepeatHashEntry> repeat_table_;  ///< open-addressing dedup table
  std::vector<std::uint32_t> build_classes_;   ///< build scratch, swapped into the record
  std::vector<std::uint32_t> build_first_;
  std::vector<std::uint32_t> class_left_;      ///< per-class child indices of one newview
  std::vector<std::uint32_t> class_right_;
  std::int64_t max_classes_ = 0;               ///< identity above this many classes
  std::uint32_t repeat_epoch_ = 0;
  std::uint64_t repeat_version_counter_ = 0;
  std::int64_t repeat_map_builds_ = 0;
  std::vector<std::uint32_t> identity_gather_;    ///< 0..length_-1 (site-indexed side of a gather)
  std::vector<std::uint32_t> code_gather_left_;   ///< tip codes widened for newview_repeats
  std::vector<std::uint32_t> code_gather_right_;

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

  // Kernel metric ids (Config::metrics == kOn), cached once at construction
  // so the kernel path pays one branch + a few sharded adds.
  EngineMetricIds metric_ids_;

  EngineMetricIds pre_metric_ids_;  ///< "plf.<isa>.preorder.*" family

  // State of the prepared derivative buffer.
  bool sum_prepared_ = false;
  bool sum_right_tip_ = false;   ///< tip-ness of the prepared branch (for the trace)
  bool sum_left_tip_ = false;

  KernelTrace* trace_ = nullptr;
};

}  // namespace miniphi::core
