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
#include "src/core/engine_core.hpp"
#include "src/model/gtr.hpp"
#include "src/util/aligned.hpp"

namespace miniphi::core {

class CatEngine final : public EngineFamily {
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

  /// CAT has no Γ shape; throws miniphi::Error (use optimize_site_rates).
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override;

  [[nodiscard]] simd::Isa isa() const override { return ops_.isa; }

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

  CatChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                                 std::span<double> ump, double branch_length);

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

  AlignedDoubles tipvec_;   ///< [16 codes × 4]
  AlignedDoubles wtable_;   ///< [16]
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
  CatNewviewCtx descent_newview_;
  CatSumCtx descent_sum_;
  CatDerivCtx descent_core_;
  AlignedDoubles slab_sum_;  ///< one slab's sum blocks
};

}  // namespace miniphi::core
