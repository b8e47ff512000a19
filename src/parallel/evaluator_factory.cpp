#include "src/parallel/evaluator_factory.hpp"

#include <utility>
#include <vector>

#include "src/core/partitioned.hpp"
#include "src/parallel/fork_join_evaluator.hpp"
#include "src/parallel/pool_parallel_for.hpp"

namespace miniphi::parallel {
namespace {

/// Owns the PoolParallelFor adapter together with the partitioned evaluator
/// it is attached to (the attachment is a raw pointer, so their lifetimes
/// must be bound) and forwards the Evaluator interface.
class PooledPartitionedEvaluator final : public core::Evaluator {
 public:
  PooledPartitionedEvaluator(WorkerPool& pool, const bio::Alignment& alignment,
                             std::span<const core::PartitionSpec> partitions,
                             const model::GtrModel& model, tree::Tree& tree,
                             const core::EngineConfig& config, const core::StreamPlan& streams)
      : parallel_for_(pool),
        inner_(alignment, partitions, model, tree, config, streams) {
    inner_.set_parallel_for(&parallel_for_);
  }

  double log_likelihood(tree::Slot* edge) override { return inner_.log_likelihood(edge); }
  void prepare_derivatives(tree::Slot* edge) override { inner_.prepare_derivatives(edge); }
  std::pair<double, double> derivatives(double z) override { return inner_.derivatives(z); }
  double optimize_branch(tree::Slot* edge, int max_iterations) override {
    return inner_.optimize_branch(edge, max_iterations);
  }
  using core::Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override {
    return inner_.optimize_all_branches(root_edge, passes);
  }
  bool gradient_all_branches(tree::Slot* root_edge,
                             std::vector<core::BranchGradient>& out) override {
    return inner_.gradient_all_branches(root_edge, out);
  }
  void invalidate_node(int node_id) override { inner_.invalidate_node(node_id); }
  void invalidate_branch(int node_id) override { inner_.invalidate_branch(node_id); }
  void set_alpha(double alpha) override { inner_.set_alpha(alpha); }
  [[nodiscard]] double alpha() const override { return inner_.alpha(); }
  [[nodiscard]] simd::Isa isa() const override { return inner_.isa(); }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    return inner_.cla_bytes_granted();
  }
  [[nodiscard]] const model::GtrModel* gtr_model() const override { return inner_.gtr_model(); }
  bool set_gtr_model(const model::GtrModel& model) override {
    return inner_.set_gtr_model(model);
  }
  [[nodiscard]] const core::EvalStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  PoolParallelFor parallel_for_;
  core::PartitionedEvaluator inner_;
};

}  // namespace

std::unique_ptr<core::Evaluator> make_fork_join_evaluator(WorkerPool& pool,
                                                          const bio::PatternSet& patterns,
                                                          const model::GtrModel& model,
                                                          tree::Tree& tree,
                                                          const core::EngineConfig& config) {
  return std::make_unique<ForkJoinEvaluator>(pool, patterns, model, tree, config);
}

std::unique_ptr<core::Evaluator> make_stream_evaluator(
    WorkerPool& pool, const bio::Alignment& alignment,
    std::span<const core::PartitionSpec> partitions, const model::GtrModel& model,
    tree::Tree& tree, const core::EngineConfig& config, const core::StreamPlan& streams) {
  return std::make_unique<PooledPartitionedEvaluator>(pool, alignment, partitions, model, tree,
                                                      config, streams);
}

}  // namespace miniphi::parallel
