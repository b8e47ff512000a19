#include "perfbench/timed_evaluator.hpp"

#include <set>

#include "perfbench/spans.hpp"

namespace perfbench {

using miniphi::core::BranchGradient;
using miniphi::tree::Slot;

const char* TimedEvaluator::family_name(Family family) {
  static constexpr std::array<const char*, kFamilies> kNames = {
      "core.lnl",     "core.deriv",     "core.opt_branch", "core.opt_all",
      "core.gradient", "core.set_model", "core.invalidate"};
  return kNames[static_cast<std::size_t>(family)];
}

/// Times one forwarded call and records its span.
class TimedEvaluator::Call {
 public:
  Call(TimedEvaluator& owner, Family family)
      : owner_(owner), family_(family), span_(family_name(family), owner.op_),
        start_ns_(SpanLog::instance().now_ns()) {}
  ~Call() {
    const double seconds =
        static_cast<double>(SpanLog::instance().now_ns() - start_ns_) * 1e-9;
    FamilyStat& stat = owner_.stats_[static_cast<std::size_t>(family_)];
    ++stat.calls;
    stat.seconds += seconds;
    const bool runs_kernels = family_ != kInvalidate && family_ != kSetModel;
    if (runs_kernels && owner_.first_call_seconds_ < 0.0) owner_.first_call_seconds_ = seconds;
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  TimedEvaluator& owner_;
  Family family_;
  ScopedSpan span_;
  std::int64_t start_ns_;
};

TimedEvaluator::TimedEvaluator(std::unique_ptr<miniphi::core::Evaluator> inner, std::int64_t op)
    : inner_(std::move(inner)), op_(op) {}

double TimedEvaluator::covered_seconds() const {
  double total = 0.0;
  for (const FamilyStat& stat : stats_) total += stat.seconds;
  return total;
}

double TimedEvaluator::log_likelihood(Slot* edge) {
  const Call call(*this, kLnl);
  return inner_->log_likelihood(edge);
}

void TimedEvaluator::prepare_derivatives(Slot* edge) {
  const Call call(*this, kDeriv);
  inner_->prepare_derivatives(edge);
}

std::pair<double, double> TimedEvaluator::derivatives(double z) {
  const Call call(*this, kDeriv);
  return inner_->derivatives(z);
}

double TimedEvaluator::optimize_branch(Slot* edge, int max_iterations) {
  const Call call(*this, kOptBranch);
  return inner_->optimize_branch(edge, max_iterations);
}

double TimedEvaluator::optimize_all_branches(Slot* root_edge, int passes) {
  const Call call(*this, kOptAll);
  return inner_->optimize_all_branches(root_edge, passes);
}

bool TimedEvaluator::gradient_all_branches(Slot* root_edge, std::vector<BranchGradient>& out) {
  const Call call(*this, kGradient);
  return inner_->gradient_all_branches(root_edge, out);
}

void TimedEvaluator::invalidate_node(int node_id) {
  const Call call(*this, kInvalidate);
  inner_->invalidate_node(node_id);
}

void TimedEvaluator::invalidate_branch(int node_id) {
  const Call call(*this, kInvalidate);
  inner_->invalidate_branch(node_id);
}

void TimedEvaluator::set_alpha(double alpha) {
  const Call call(*this, kSetModel);
  inner_->set_alpha(alpha);
}

bool TimedEvaluator::set_gtr_model(const miniphi::model::GtrModel& model) {
  const Call call(*this, kSetModel);
  return inner_->set_gtr_model(model);
}

namespace {

// Records which virtuals were called on it.
class RecordingEvaluator final : public miniphi::core::Evaluator {
 public:
  explicit RecordingEvaluator(std::set<std::string>& seen) : seen_(seen) {}

  double log_likelihood(Slot*) override { return note("log_likelihood"); }
  void prepare_derivatives(Slot*) override { note("prepare_derivatives"); }
  std::pair<double, double> derivatives(double) override {
    note("derivatives");
    return {0.0, 0.0};
  }
  double optimize_branch(Slot*, int) override { return note("optimize_branch"); }
  double optimize_all_branches(Slot*, int) override { return note("optimize_all_branches"); }
  bool gradient_all_branches(Slot*, std::vector<BranchGradient>&) override {
    note("gradient_all_branches");
    return true;
  }
  void invalidate_node(int) override { note("invalidate_node"); }
  void invalidate_branch(int) override { note("invalidate_branch"); }
  void set_alpha(double) override { note("set_alpha"); }
  [[nodiscard]] double alpha() const override { return note("alpha"); }
  [[nodiscard]] miniphi::simd::Isa isa() const override {
    note("isa");
    return miniphi::simd::Isa::kScalar;
  }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    note("cla_bytes_granted");
    return 0;
  }
  [[nodiscard]] const miniphi::model::GtrModel* gtr_model() const override {
    note("gtr_model");
    return nullptr;
  }
  bool set_gtr_model(const miniphi::model::GtrModel&) override {
    note("set_gtr_model");
    return true;
  }
  [[nodiscard]] const miniphi::core::EvalStats& stats() const override {
    note("stats");
    return stats_;
  }
  void reset_stats() override { note("reset_stats"); }

 private:
  double note(const char* name) const {
    seen_.insert(name);
    return 0.0;
  }
  std::set<std::string>& seen_;
  miniphi::core::EvalStats stats_;
};

}  // namespace

std::vector<std::string> decorator_self_check() {
  std::set<std::string> seen;
  TimedEvaluator timed(std::make_unique<RecordingEvaluator>(seen), -1);
  std::vector<BranchGradient> gradient;
  timed.log_likelihood(nullptr);
  timed.prepare_derivatives(nullptr);
  (void)timed.derivatives(0.1);
  timed.optimize_branch(nullptr, 1);
  timed.optimize_all_branches(nullptr, 1);
  timed.gradient_all_branches(nullptr, gradient);
  timed.invalidate_node(0);
  timed.invalidate_branch(0);
  timed.set_alpha(1.0);
  (void)timed.alpha();
  (void)timed.isa();
  (void)timed.cla_bytes_granted();
  (void)timed.gtr_model();
  timed.set_gtr_model(miniphi::model::GtrModel(miniphi::model::GtrParams{}));
  (void)timed.stats();
  timed.reset_stats();

  std::vector<std::string> missing;
  for (const char* name :
       {"log_likelihood", "prepare_derivatives", "derivatives", "optimize_branch",
        "optimize_all_branches", "gradient_all_branches", "invalidate_node", "invalidate_branch",
        "set_alpha", "alpha", "isa", "cla_bytes_granted", "gtr_model", "set_gtr_model", "stats",
        "reset_stats"}) {
    if (seen.count(name) == 0) missing.emplace_back(name);
  }
  return missing;
}

}  // namespace perfbench
