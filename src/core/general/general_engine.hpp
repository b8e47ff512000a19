// Likelihood engine for arbitrary state counts (protein support).
//
// The general counterpart of LikelihoodEngine: same CLA-orientation scheme,
// same Evaluator interface (so SPR search, fork-join pools etc. work
// unchanged on protein data), but with runtime state-count geometry and the
// general kernels.  Tip codes are resolved through a state-set mask table
// (see bio/aa.hpp), which also lets DNA data run through this engine for
// cross-validation against the 4-state fast path.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/engine.hpp"  // Kernel, KernelStat, branch-length bounds
#include "src/core/engine_core.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/general/general_kernels.hpp"
#include "src/core/general/general_tables.hpp"
#include "src/memory/cla_store.hpp"
#include "src/model/general.hpp"
#include "src/util/aligned.hpp"

namespace miniphi::core {

class GeneralEngine final : public Evaluator, private EngineFamily {
 public:
  /// All knobs are the shared core::EngineConfig set; no extras.
  using Config = EngineConfig;

  /// `code_masks[code]` gives the state set of tip code `code`; every code
  /// appearing in `patterns` must be within range.
  GeneralEngine(const bio::PatternSet& patterns, const model::GeneralModel& model,
                tree::Tree& tree, std::vector<std::uint32_t> code_masks, const Config& config);

  GeneralEngine(const bio::PatternSet& patterns, const model::GeneralModel& model,
                tree::Tree& tree, std::vector<std::uint32_t> code_masks)
      : GeneralEngine(patterns, model, tree, std::move(code_masks), Config{}) {}

  [[nodiscard]] const model::GeneralModel& general_model() const { return model_; }
  [[nodiscard]] const GeneralDims& dims() const { return dims_; }
  [[nodiscard]] simd::Isa isa() const override { return ops_.isa; }
  [[nodiscard]] std::int64_t slice_size() const { return length_; }

  /// Replaces the model (same state count required); invalidates all CLAs.
  void set_general_model(const model::GeneralModel& model);

  double log_likelihood(tree::Slot* edge) override;
  void prepare_derivatives(tree::Slot* edge) override;
  std::pair<double, double> derivatives(double z) override;
  double optimize_branch(tree::Slot* edge, int max_iterations) override;
  using Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override;
  /// O(N) all-branch gradient via the postorder + preorder two-pass sweep
  /// (see LikelihoodEngine::gradient_all_branches).  Works on every CLA
  /// budget: the preorder partials live in their own always-spilling
  /// memory::ClaStore tier, and evicted postorder inputs are reloaded or
  /// recomputed in place during the descent.  The preorder pass
  /// is serial even when use_openmp is on: its per-edge kernels reuse the
  /// shared table scratch, and serial emission keeps the result bit-identical
  /// across dispatch schedules.
  bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) override;
  void invalidate_node(int node_id) override;
  void set_alpha(double alpha) override { set_general_model(model_.with_alpha(alpha)); }
  [[nodiscard]] double alpha() const override { return model_.alpha(); }

  void invalidate_all() override;

  /// Traversal-plan cache statistics (builds / satisfied hits / reuses /
  /// executed ops+plans) — see core::PlanCache.
  [[nodiscard]] const PlanCounters& plan_counters() const { return core_.plan_counters(); }

  /// SDC verification/heal counters (Config::sdc_checks; see DESIGN.md §10).
  [[nodiscard]] const sdc::Counters& sdc_counters() const { return core_.sdc_counters(); }

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

  /// Test-only fault injection: flips one bit of a committed CLA and clears
  /// the verification memo; false when the node's CLA is invalid.
  bool corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
    return core_.corrupt_cla_for_testing(node_id, word, bit);
  }

  [[nodiscard]] const KernelStat& stats(Kernel k) const { return stats_.kernel(k); }
  [[nodiscard]] const EvalStats& stats() const override { return stats_; }
  void reset_stats() override { stats_ = EvalStats{}; }

 private:
  // EngineFamily hooks (see engine_core.hpp).
  void run_newview(tree::Slot* slot) override;
  [[nodiscard]] std::uint64_t cla_checksum(const double* values, const std::int32_t* scales,
                                           std::int64_t blocks) override;

  GChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                               std::span<double> ump, double branch_length);
  double run_evaluate(tree::Slot* edge);

  const bio::PatternSet& patterns_;
  model::GeneralModel model_;
  tree::Tree& tree_;
  std::vector<std::uint32_t> code_masks_;
  GeneralDims dims_;
  GeneralKernelOps ops_;
  KernelTuning tuning_;
  bool use_openmp_ = false;
  std::int64_t offset_ = 0;
  std::int64_t length_ = 0;

  // Validity, orientation, the tiered store, plans, executors, cancellation
  // and the SDC heal loop (engine_core.hpp).
  EngineCore core_;

  AlignedDoubles tipvec_;
  AlignedDoubles wtable_;
  AlignedDoubles ptable_left_;
  AlignedDoubles ptable_right_;
  AlignedDoubles ump_left_;
  AlignedDoubles ump_right_;
  AlignedDoubles diag_;
  AlignedDoubles evtab_;
  AlignedDoubles dtab_;
  AlignedDoubles sum_buffer_;

  /// Stat bookkeeping for one kernel call (`cla_blocks` = CLA site blocks
  /// touched, each dims_.block() doubles); publishes when metrics are on.
  void record_kernel(Kernel k, std::int64_t cla_blocks, double seconds);

  void run_prepare_derivatives(tree::Slot* edge);

  // All-branch gradient: the preorder descent runs through the core, which
  // owns the preorder tier; these are the general kernel calls per op.
  void run_gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out);
  void run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                       std::vector<BranchGradient>& out);

  EvalStats stats_;
  EngineMetricIds metric_ids_;
  bool sum_prepared_ = false;
};

}  // namespace miniphi::core
