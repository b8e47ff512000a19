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
// Orchestration is not this file's: the engine is the DNA fast-path
// EngineFamily (engine_core.hpp), whose core::EngineCore owns CLA validity,
// the tiered store, the plan cache and the plan executor, the Evaluator
// entry points (Newton optimizer, all-branch gradient descent), kernel
// accounting, cancellation and the SDC heal loop for every engine family.
// Traversals are *planned*, not recursed — each virtual-root placement
// compiles into a flat, depth-first PlfOp list, cached per branch
// under an epoch protocol — and the core calls back into run_newview() once
// per op.  This class keeps what is DNA-specific: the 4-state Γ kernels and
// their tables, the chunked SDC checksum loop and the site-repeats class
// maps.  The flat form is also what the distributed layer consumes: it
// fetches each traversal's plan via plan_traversal() to derive its
// communication plan.
#pragma once

#include <array>
#include <cstdint>
#include <span>
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

class LikelihoodEngine final : public EngineFamily {
 public:
  /// All knobs are the shared core::EngineConfig set (the former DNA
  /// fast-path extras — trace, the CLA budget, site_repeats — moved up so
  /// the factory seam configures every engine with one type).
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

  /// Whether the site-repeats path is active.
  [[nodiscard]] bool site_repeats() const { return site_repeats_; }

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
  [[nodiscard]] std::int64_t repeat_map_builds() const { return map_stats_.builds; }

  /// Class-record builds by how they were decided (all 0 on the dense path).
  struct RepeatMapStats {
    std::int64_t builds = 0;              ///< as repeat_map_builds()
    std::int64_t direct = 0;              ///< deduplicated through the direct table
    std::int64_t hashed = 0;              ///< deduplicated through the hash table
    std::int64_t identity_by_subset = 0;  ///< identity: holds a known identity leaf set
    std::int64_t direct_ns = 0;           ///< time in the direct dedup loops
    std::int64_t hashed_ns = 0;           ///< time in the hashed dedup loops
  };
  [[nodiscard]] const RepeatMapStats& repeat_map_stats() const { return map_stats_; }

  /// Read-only view of an inner slot's class record: the site → class map
  /// and each class's child pair (a tip child's pair entry is its code).
  /// All empty for identity and unbuilt records and on the dense path.
  struct ClassRecordView {
    std::span<const std::uint32_t> class_of_site;
    std::span<const std::uint32_t> left;
    std::span<const std::uint32_t> right;
  };
  [[nodiscard]] ClassRecordView class_record(const tree::Slot* slot) const;

  /// Largest class span (left classes × right classes, a tip counting
  /// kTipClasses) a build deduplicates through the direct-indexed table;
  /// wider builds hash.  Both paths build identical records, so this is an
  /// ablation hook for tests and benches: 0 hashes every build, and a span
  /// above kDirectSpan lets the table grow past its 1 MiB cap.
  void set_repeat_direct_span(std::uint64_t span) { direct_span_ = span; }

  /// Default direct-table span: 2^18 uint32 slots, 1 MiB per engine, and
  /// at most kDirectSpanPerSite slots per site of the slice (128 B a site,
  /// about one full-width CLA), so narrow engines keep small tables.
  static constexpr std::uint64_t kDirectSpan = std::uint64_t{1} << 18;
  static constexpr std::uint64_t kDirectSpanPerSite = 32;
  /// Classes a tip child contributes to the span: its 4-bit code range.
  static constexpr std::uint32_t kTipClasses = 16;

 private:
  // Kernel hooks (see engine_core.hpp).
  void run_newview(tree::Slot* slot) override;
  void fold_checksum(sdc::ClaChecksum& sum, const double* values, const std::int32_t* scales,
                     std::int64_t begin, std::int64_t end) override;
  double run_evaluate(tree::Slot* p, tree::Slot* q, double length) override;
  void run_derivative_sum(tree::Slot* p, tree::Slot* q) override;
  std::pair<double, double> run_derivative_core(double z, bool want_lnl, double& lnl) override;
  void begin_descent_op(const PreorderInputs& in) override;
  void run_preorder_newview(std::int64_t begin, std::int64_t end) override;
  void run_preorder_sum(std::int64_t begin, std::int64_t end) override;
  std::pair<double, double> run_descent_core(std::int64_t begin, std::int64_t end) override;

  /// `verify` = false defers the input-CLA verification to the caller (the
  /// chunk loop in run_newview verifies interleaved with kernel execution
  /// instead of paying an up-front cold sweep).
  ChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                              std::span<double> ump, double branch_length, bool verify);

  // Preorder partials (all-branch gradient) are always dense (site-indexed)
  // even on the site-repeats path, because the outer context of a site is
  // not a function of the subtree pattern the repeat classes dedup on; the
  // repeat machinery still compresses every postorder *input* through the
  // per-site class maps.  The core allocates them lazily on the first
  // gradient_all_branches() call (~2× the postorder CLA pool).

  // --- Site-repeats machinery -------------------------------------------
  //
  // One class record per directed inner slot (indexed by slot_index - ntaxa,
  // dense in [0, 3(n-2))): a site → class map for the subtree behind the
  // slot (two sites share a class iff their tip-state pattern inside that
  // subtree is identical, the LvD subtree-pattern identity) and each
  // class's child pair, the per-class child indices the repeat kernel
  // consumes.  A slot's classes are the deduplicated pairs of its children's
  // classes (tip codes for tips), built bottom-up where newview runs.
  // Records are a memo checked on use, never invalidated: each remembers
  // the signatures its children had when it was built (a constant
  // per-taxon tag for tips, a per-build version or the shared identity
  // signature for inner slots) and rebuilds only when they differ.
  // Re-orienting a node therefore reuses that orientation's record, and
  // branch-length, model and heal invalidations never touch them.
  //
  // Identity cutoff: a slot whose classes would exceed kIdentityFraction of
  // the slice keeps no map and computes site-indexed like the dense path.
  // Restricting a site's pattern to fewer taxa maps classes onto classes,
  // so a leaf set's class count never falls when taxa are added: a slot
  // with an identity child, or whose leaf set holds one that hashing found
  // identity, is identity without hashing.

  /// Signature shared by every identity slot: a parent over an identity
  /// child is identity whatever that child's subtree, so it need not
  /// rebuild when one identity child is replaced by another.
  static constexpr std::uint64_t kIdentitySignature = 0x4000000000000000ULL;

  struct SlotRepeats {
    std::vector<std::uint32_t> class_of_site;  ///< [length_] site → class; empty if identity
    std::vector<std::uint32_t> left;           ///< [unique] class → left child's class
    std::vector<std::uint32_t> right;          ///< [unique] class → right child's class
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

  [[nodiscard]] std::size_t record_index(const tree::Slot* slot) const {
    return static_cast<std::size_t>(slot->slot_index - tree_.taxon_count());
  }
  [[nodiscard]] SlotRepeats& repeats_of(const tree::Slot* slot) {
    return repeats_[record_index(slot)];
  }
  [[nodiscard]] const SlotRepeats& repeats_of(const tree::Slot* slot) const {
    return repeats_[record_index(slot)];
  }

  /// Signature identifying a child's current class structure.
  [[nodiscard]] std::uint64_t repeat_signature(const tree::Slot* child) const;

  /// (Re)builds the class record of `slot` if its children's signatures
  /// changed since its last build.
  const SlotRepeats& ensure_repeat_classes(tree::Slot* slot);

  /// Deduplicates the children's class pairs into build_classes_ and the
  /// build_left_/build_right_ pairs; returns the class count, or -1 past
  /// the identity cutoff.  The class span picks the path: `direct` says
  /// whether the direct table served the build.
  std::int64_t dedup_classes(const tree::Slot* left, const tree::Slot* right, bool& direct);

  /// Writes `slot`'s leaf bitset (its record's words of leaf_sets_) as the
  /// OR of its children's.  Only records with two compressed children keep
  /// one: an identity record's parents are identity by the child rule and
  /// never read it.
  void build_leaf_set(const tree::Slot* slot);

  [[nodiscard]] const std::uint64_t* leaf_set(const tree::Slot* slot) const {
    return leaf_sets_.data() + record_index(slot) * leaf_words_;
  }

  /// Whether `slot`'s leaf set holds one of identity_sets_.
  [[nodiscard]] bool holds_identity_set(const tree::Slot* slot) const;

  /// Adds `slot`'s leaf set, found identity by hashing, to identity_sets_,
  /// dropping the members it is a subset of.
  void add_identity_set(const tree::Slot* slot);

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

  // Site-repeats state (empty unless Config::site_repeats).
  bool site_repeats_ = false;
  std::vector<SlotRepeats> repeats_;           ///< indexed by slot_index - ntaxa
  std::vector<RepeatHashEntry> repeat_table_;  ///< open-addressing dedup table
  std::vector<std::uint32_t> direct_table_;    ///< class + 1 at lc·uR + rc; zero between builds
  std::uint64_t direct_span_ = kDirectSpan;
  std::vector<std::uint32_t> build_classes_;   ///< build scratch, swapped into the record
  std::vector<std::uint32_t> build_left_;      ///< build scratch: each new class's pair
  std::vector<std::uint32_t> build_right_;
  std::int64_t max_classes_ = 0;               ///< identity above this many classes
  std::uint32_t repeat_epoch_ = 0;
  std::uint64_t repeat_version_counter_ = 0;
  RepeatMapStats map_stats_;
  RepeatMapMetricIds map_metric_ids_;          ///< registered when metrics are on
  std::size_t leaf_words_ = 0;                 ///< 64-bit words of one leaf bitset
  std::vector<std::uint64_t> leaf_sets_;       ///< [records × leaf_words_]
  std::vector<std::uint64_t> identity_sets_;   ///< antichain of minimal identity leaf sets
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
  AlignedDoubles sum_buffer_;  ///< full width: the Newton protocol's

  // The open descent op: begin_descent_op binds the contexts once per op,
  // the range hooks point them at each slab.
  NewviewCtx descent_newview_;
  void (*descent_newview_fn_)(NewviewCtx&) = nullptr;
  SumCtx descent_sum_;
  void (*descent_sum_fn_)(SumCtx&) = nullptr;
  DerivCtx descent_core_;
  AlignedDoubles slab_sum_;  ///< one slab's sum blocks
};

}  // namespace miniphi::core
