// Likelihood engine for the CAT model of rate heterogeneity.
//
// CAT (Stamatakis 2006) replaces the Γ mixture with one rate per site,
// drawn from a small set of rate categories that are themselves estimated
// from the data.  Memory and compute drop ~4× versus Γ(4) — the reason
// RAxML uses it for large trees — at the cost of a non-probabilistic
// per-site rate assignment step (optimize_site_rates below, the analogue of
// RAxML's optimizeRateCategories).
//
// The Evaluator interface works as usual for topology/branch operations, so
// the SPR search runs unchanged; set_alpha() throws, because CAT has no Γ
// shape — callers optimize per-site rates instead (run searches with
// SearchOptions::optimize_model = false and call optimize_site_rates).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/cat/cat_kernels.hpp"
#include "src/core/engine.hpp"  // Kernel/KernelStat, branch bounds, GtrModel machinery
#include "src/core/engine_core.hpp"
#include "src/core/evaluator.hpp"
#include "src/memory/cla_store.hpp"
#include "src/util/aligned.hpp"

namespace miniphi::core {

class CatEngine final : public Evaluator, private EngineFamily {
 public:
  /// Common knobs come from core::EngineConfig.  The CAT kernels have no
  /// OpenMP path, so EngineConfig::use_openmp is accepted and ignored.
  using Config = EngineConfig;

  /// `model` supplies the GTR part (eigensystem); its Γ settings are
  /// ignored.  Starts with `categories` rate categories spread over a
  /// moderate range and every site assigned to the category nearest rate 1.
  CatEngine(const bio::PatternSet& patterns, const model::GtrModel& model, tree::Tree& tree,
            int categories, const Config& config);

  CatEngine(const bio::PatternSet& patterns, const model::GtrModel& model, tree::Tree& tree,
            int categories = 4)
      : CatEngine(patterns, model, tree, categories, Config{}) {}

  [[nodiscard]] int category_count() const { return static_cast<int>(category_rates_.size()); }
  [[nodiscard]] const std::vector<double>& category_rates() const { return category_rates_; }
  /// Pattern-indexed category assignment (slice-local indexing).
  [[nodiscard]] const std::vector<std::uint8_t>& site_categories() const {
    return site_categories_;
  }

  /// Replaces rates and per-site assignment wholesale (rates positive,
  /// assignment values < rates.size()); invalidates all CLAs.
  void set_categories(std::vector<double> rates, std::vector<std::uint8_t> assignment);

  /// Per-site rate optimization (RAxML optimizeRateCategories analogue):
  /// scores every site on a dense rate grid against the current CLAs at
  /// `root_edge`, clusters the per-site optima into `category_count()`
  /// equal-weight categories, renormalizes to unit mean rate, recomputes,
  /// and repeats `iterations` times.  Returns the final log-likelihood.
  double optimize_site_rates(tree::Slot* root_edge, int iterations = 2);

  /// Per-site log-likelihoods with one rate applied on every branch (the
  /// scoring primitive of optimize_site_rates; RAxML's evaluatePartial
  /// analogue).  Exposed for tests.
  std::vector<double> single_rate_site_log_likelihoods(tree::Slot* root_edge, double rate);

  // Evaluator interface.
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
  /// recomputed in place during the descent.
  bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) override;
  void invalidate_node(int node_id) override;
  /// CAT has no Γ shape; throws miniphi::Error (use optimize_site_rates).
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override;

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
  [[nodiscard]] simd::Isa isa() const { return ops_.isa; }

 private:
  // EngineFamily hooks (see engine_core.hpp).
  void run_newview(tree::Slot* slot) override;
  [[nodiscard]] std::uint64_t cla_checksum(const double* values, const std::int32_t* scales,
                                           std::int64_t blocks) override;

  CatChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                                 std::span<double> ump, double branch_length);
  double run_evaluate(tree::Slot* edge);

  // Table builders over the current category rates.
  void build_ptable(double z, std::span<double> out) const;
  void build_ump(std::span<const double> ptable, std::span<double> out) const;
  void build_diag(double z, std::span<double> out) const;
  void build_dtab(double z, std::span<double> out) const;

  const bio::PatternSet& patterns_;
  model::GtrModel model_;
  tree::Tree& tree_;
  CatKernelOps ops_;
  KernelTuning tuning_;
  std::int64_t offset_ = 0;
  std::int64_t length_ = 0;

  std::vector<double> category_rates_;
  std::vector<std::uint8_t> site_categories_;  ///< [length_]

  // Validity, orientation, the tiered store, plans, executors, cancellation
  // and the SDC heal loop (engine_core.hpp).
  EngineCore core_;

  AlignedDoubles tipvec_;   ///< [16 codes × 4]
  AlignedDoubles wtable_;   ///< [16]
  AlignedDoubles ptable_left_;
  AlignedDoubles ptable_right_;
  AlignedDoubles ump_left_;
  AlignedDoubles ump_right_;
  AlignedDoubles diag_;
  AlignedDoubles evtab_;
  AlignedDoubles dtab_;
  AlignedDoubles sum_buffer_;

  /// Stat bookkeeping for one kernel call (`cla_blocks` = CLA site blocks
  /// touched); publishes to the obs registry when metrics are on.
  void record_kernel(Kernel k, std::int64_t cla_blocks, double seconds);

  void run_prepare_derivatives(tree::Slot* edge);

  // All-branch gradient: the preorder descent runs through the core, which
  // owns the preorder tier; these are the CAT kernel calls per op.
  void run_gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out);
  void run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                       std::vector<BranchGradient>& out);

  EvalStats stats_;
  EngineMetricIds metric_ids_;
  bool sum_prepared_ = false;
};

}  // namespace miniphi::core
