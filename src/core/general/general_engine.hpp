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
#include "src/core/engine_core.hpp"
#include "src/core/general/general_kernels.hpp"
#include "src/core/general/general_tables.hpp"
#include "src/model/general.hpp"
#include "src/util/aligned.hpp"

namespace miniphi::core {

class GeneralEngine final : public EngineFamily {
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

  void set_alpha(double alpha) override { set_general_model(model_.with_alpha(alpha)); }
  [[nodiscard]] double alpha() const override { return model_.alpha(); }

 private:
  // Kernel hooks (see engine_core.hpp).
  void run_newview(tree::Slot* slot) override;
  void fold_checksum(sdc::ClaChecksum& sum, const double* values, const std::int32_t* scales,
                     std::int64_t begin, std::int64_t end) override;
  double run_evaluate(tree::Slot* p, tree::Slot* q, double length) override;
  void run_derivative_sum(tree::Slot* p, tree::Slot* q) override;
  std::pair<double, double> run_derivative_core(double z, bool want_lnl, double& lnl) override;
  /// The gradient descent's kernels run serially even when use_openmp is
  /// on, slab by slab.
  void begin_descent_op(const PreorderInputs& in) override;
  void run_preorder_newview(std::int64_t begin, std::int64_t end) override;
  void run_preorder_sum(std::int64_t begin, std::int64_t end) override;
  std::pair<double, double> run_descent_core(std::int64_t begin, std::int64_t end) override;

  GChildInput make_child_input(tree::Slot* child, std::span<double> ptable,
                               std::span<double> ump, double branch_length);

  const bio::PatternSet& patterns_;
  model::GeneralModel model_;
  std::vector<std::uint32_t> code_masks_;
  GeneralDims dims_;
  GeneralKernelOps ops_;
  KernelTuning tuning_;
  bool use_openmp_ = false;
  std::int64_t offset_ = 0;
  std::int64_t length_ = 0;

  AlignedDoubles tipvec_;
  AlignedDoubles wtable_;
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
  GNewviewCtx descent_newview_;
  GSumCtx descent_sum_;
  GDerivCtx descent_core_;
  AlignedDoubles slab_sum_;  ///< one slab's sum blocks
};

}  // namespace miniphi::core
