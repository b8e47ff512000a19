// Forwarding core::Evaluator decorator owned by the benchmark: it times
// every virtual call the search makes into the core layer and records a
// span around each, without touching the library.  The search sees the
// same results through it as through the bare evaluator — the self-check
// below and the traced-vs-untraced comparison in the search workloads
// verify that.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/evaluator.hpp"

namespace perfbench {

class TimedEvaluator final : public miniphi::core::Evaluator {
 public:
  /// Call families, one span name and one counter pair each.
  enum Family { kLnl, kDeriv, kOptBranch, kOptAll, kGradient, kSetModel, kInvalidate, kFamilies };
  static const char* family_name(Family family);

  struct FamilyStat {
    std::int64_t calls = 0;
    double seconds = 0.0;
  };

  TimedEvaluator(std::unique_ptr<miniphi::core::Evaluator> inner, std::int64_t op);

  [[nodiscard]] const FamilyStat& stat(Family family) const {
    return stats_[static_cast<std::size_t>(family)];
  }
  /// Duration of the first call that ran kernels (the cold full traversal).
  [[nodiscard]] double first_call_seconds() const { return first_call_seconds_; }
  /// Time covered by all timed calls.
  [[nodiscard]] double covered_seconds() const;

  using miniphi::core::Evaluator::optimize_branch;
  double log_likelihood(miniphi::tree::Slot* edge) override;
  void prepare_derivatives(miniphi::tree::Slot* edge) override;
  std::pair<double, double> derivatives(double z) override;
  double optimize_branch(miniphi::tree::Slot* edge, int max_iterations) override;
  double optimize_all_branches(miniphi::tree::Slot* root_edge, int passes) override;
  bool gradient_all_branches(miniphi::tree::Slot* root_edge,
                             std::vector<miniphi::core::BranchGradient>& out) override;
  void invalidate_node(int node_id) override;
  void invalidate_branch(int node_id) override;
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override { return inner_->alpha(); }
  [[nodiscard]] miniphi::simd::Isa isa() const override { return inner_->isa(); }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    return inner_->cla_bytes_granted();
  }
  [[nodiscard]] const miniphi::model::GtrModel* gtr_model() const override {
    return inner_->gtr_model();
  }
  bool set_gtr_model(const miniphi::model::GtrModel& model) override;
  [[nodiscard]] const miniphi::core::EvalStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  class Call;

  std::unique_ptr<miniphi::core::Evaluator> inner_;
  std::int64_t op_;
  std::array<FamilyStat, kFamilies> stats_{};
  double first_call_seconds_ = -1.0;
};

/// Checks that the decorator forwards every virtual of core::Evaluator to
/// the wrapped evaluator.  Returns the names of methods that did not reach
/// it (empty = pass).
std::vector<std::string> decorator_self_check();

}  // namespace perfbench
