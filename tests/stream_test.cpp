// Stream-executor suite (DESIGN.md §13): PartitionedEvaluator's stream
// dispatch must be bit-identical across stream counts and thread counts,
// and the pooled factory must match the serial core factory bit for bit on
// every supported ISA — lnL, optimized branch lengths and gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/make_evaluator.hpp"
#include "src/core/partitioned.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/pool_parallel_for.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/platform/cost_model.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

class StreamFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2024);
    alignment_ = std::make_unique<bio::Alignment>(testutil::random_alignment(12, 2000, rng));
    model_ = std::make_unique<model::GtrModel>(testutil::random_gtr_params(rng));
    tree_ = std::make_unique<tree::Tree>(tree::Tree::random(12, rng));
    // Deliberately uneven gene sizes, so LPT packing has work to do.
    specs_ = {{"tiny_a", 0, 40}, {"tiny_b", 40, 80}, {"big_a", 80, 1040}, {"big_b", 1040, 2000}};
  }

  /// Compressed pattern counts per partition — the planner's input.
  std::vector<std::int64_t> pattern_counts() {
    return partition_pattern_counts(*alignment_, specs_);
  }

  std::unique_ptr<bio::Alignment> alignment_;
  std::unique_ptr<model::GtrModel> model_;
  std::unique_ptr<tree::Tree> tree_;
  std::vector<PartitionSpec> specs_;
};

TEST_F(StreamFixture, BitIdenticalAcrossStreamCountsAndThreadCounts) {
  // Every variant below runs identical kernels on identical inputs and
  // reduces in fixed partition order: EXPECT_EQ on doubles, no tolerance.
  const auto counts = pattern_counts();
  const StreamPlan reference_plan =
      platform::plan_partition_streams(counts, 1);
  PartitionedEvaluator reference(*alignment_, specs_, *model_, *tree_, {}, reference_plan);
  const double expected = reference.log_likelihood(tree_->tip(0));
  EXPECT_LT(expected, 0.0);

  for (const int streams : {1, 2, 4}) {
    const StreamPlan plan = platform::plan_partition_streams(counts, streams);
    for (const int workers : {1, 3}) {
      parallel::WorkerPool pool(workers);
      parallel::PoolParallelFor parallel_for(pool);
      PartitionedEvaluator evaluator(*alignment_, specs_, *model_, *tree_, {}, plan);
      evaluator.set_parallel_for(&parallel_for);
      EXPECT_EQ(evaluator.log_likelihood(tree_->tip(0)), expected)
          << streams << " streams, " << workers << " workers";
    }
    // Serial stream dispatch (no executor attached) takes the same path.
    PartitionedEvaluator serial(*alignment_, specs_, *model_, *tree_, {}, plan);
    EXPECT_EQ(serial.log_likelihood(tree_->tip(0)), expected) << streams << " streams, serial";
  }
}

TEST_F(StreamFixture, GradientsAreBitIdenticalAcrossStreamCounts) {
  const auto counts = pattern_counts();
  const StreamPlan reference_plan = platform::plan_partition_streams(counts, 1);
  PartitionedEvaluator reference(*alignment_, specs_, *model_, *tree_, {}, reference_plan);
  std::vector<BranchGradient> expected;
  ASSERT_TRUE(reference.gradient_all_branches(tree_->tip(0), expected));
  ASSERT_FALSE(expected.empty());

  parallel::WorkerPool pool(4);
  parallel::PoolParallelFor parallel_for(pool);
  for (const int streams : {2, 4}) {
    const StreamPlan plan = platform::plan_partition_streams(counts, streams);
    PartitionedEvaluator evaluator(*alignment_, specs_, *model_, *tree_, {}, plan);
    evaluator.set_parallel_for(&parallel_for);
    std::vector<BranchGradient> got;
    ASSERT_TRUE(evaluator.gradient_all_branches(tree_->tip(0), got));
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].edge, expected[i].edge);
      EXPECT_EQ(got[i].first, expected[i].first) << "edge " << i << ", " << streams << " streams";
      EXPECT_EQ(got[i].second, expected[i].second) << "edge " << i;
    }
  }
}

TEST_F(StreamFixture, BranchOptimizationIsStreamInvariant) {
  // Newton branch optimization under streams drives prepare_derivatives /
  // derivatives through the same end-to-end tasks; optimized lengths and the
  // final likelihood must be bit-identical to the serial run.
  const auto counts = pattern_counts();
  const StreamPlan plan1 = platform::plan_partition_streams(counts, 1);
  tree::Tree tree_serial(*tree_);
  PartitionedEvaluator serial(*alignment_, specs_, *model_, tree_serial, {}, plan1);
  const double expected = serial.optimize_all_branches(tree_serial.tip(0), 2);

  parallel::WorkerPool pool(4);
  parallel::PoolParallelFor parallel_for(pool);
  const StreamPlan plan4 = platform::plan_partition_streams(counts, 4);
  tree::Tree tree(*tree_);
  PartitionedEvaluator evaluator(*alignment_, specs_, *model_, tree, {}, plan4);
  evaluator.set_parallel_for(&parallel_for);
  EXPECT_EQ(evaluator.optimize_all_branches(tree.tip(0), 2), expected);
  for (int i = 0; i < tree.slot_count(); ++i) {
    EXPECT_EQ(tree.slot(i)->length, tree_serial.slot(i)->length);
  }
}

TEST_F(StreamFixture, StreamCountersCountCallsTasksAndRegions) {
  const auto counts = pattern_counts();
  const StreamPlan plan = platform::plan_partition_streams(counts, 2);
  ASSERT_EQ(plan.stream_count, 2);

  parallel::WorkerPool pool(2);
  parallel::PoolParallelFor parallel_for(pool);
  PartitionedEvaluator evaluator(*alignment_, specs_, *model_, *tree_, {}, plan);
  evaluator.set_parallel_for(&parallel_for);
  EXPECT_EQ(evaluator.stream_counters().calls, 0);

  (void)evaluator.log_likelihood(tree_->tip(0));
  const StreamCounters after_lnl = evaluator.stream_counters();
  EXPECT_EQ(after_lnl.calls, 1);
  EXPECT_EQ(after_lnl.regions, 1);  // one barrier for the whole evaluation
  EXPECT_EQ(after_lnl.tasks, 2);    // one end-to-end task per stream group

  (void)evaluator.log_likelihood(tree_->tip(0));
  EXPECT_EQ(evaluator.stream_counters().calls, 2);

  // Serial stream dispatch counts calls and tasks but issues no regions.
  PartitionedEvaluator serial(*alignment_, specs_, *model_, *tree_, {}, plan);
  (void)serial.log_likelihood(tree_->tip(0));
  EXPECT_EQ(serial.stream_counters().calls, 1);
  EXPECT_EQ(serial.stream_counters().tasks, 2);
  EXPECT_EQ(serial.stream_counters().regions, 0);

  // Every stream group owns at least one partition.
  std::vector<int> per_stream(2, 0);
  for (const int s : serial.stream_plan().partition_stream) {
    ++per_stream[static_cast<std::size_t>(s)];
  }
  EXPECT_GT(per_stream[0], 0);
  EXPECT_GT(per_stream[1], 0);
}

TEST_F(StreamFixture, FactoriesMatchDirectConstructionBitExactly) {
  const auto counts = pattern_counts();
  const StreamPlan plan = platform::plan_partition_streams(counts, 2);
  PartitionedEvaluator direct(*alignment_, specs_, *model_, *tree_, {}, plan);
  const double expected = direct.log_likelihood(tree_->tip(0));

  // Core factory (serial).
  const auto from_core = make_evaluator(*alignment_, specs_, *model_, *tree_, {}, plan);
  EXPECT_EQ(from_core->log_likelihood(tree_->tip(0)), expected);
  EXPECT_NE(from_core->gtr_model(), nullptr);
  EXPECT_TRUE(from_core->set_gtr_model(*model_));

  // Parallel factory (pooled stream dispatch).
  parallel::WorkerPool pool(2);
  const auto from_parallel =
      parallel::make_stream_evaluator(pool, *alignment_, specs_, *model_, *tree_, {}, plan);
  EXPECT_EQ(from_parallel->log_likelihood(tree_->tip(0)), expected);
  EXPECT_EQ(from_parallel->isa(), direct.isa());
}

TEST_F(StreamFixture, StreamsWorkUnderTightClaBudget) {
  // Stream tasks run the engines' internal executors (with their pin
  // discipline), so a tight CLA budget stays bit-identical to the
  // full-budget run.
  const auto counts = pattern_counts();
  const StreamPlan plan = platform::plan_partition_streams(counts, 2);
  PartitionedEvaluator full(*alignment_, specs_, *model_, *tree_, {}, plan);
  const double expected = full.log_likelihood(tree_->tip(0));

  EngineConfig tight;
  tight.cla_buffers = 4;
  parallel::WorkerPool pool(2);
  parallel::PoolParallelFor parallel_for(pool);
  PartitionedEvaluator budgeted(*alignment_, specs_, *model_, *tree_, tight, plan);
  budgeted.set_parallel_for(&parallel_for);
  EXPECT_EQ(budgeted.log_likelihood(tree_->tip(0)), expected);
}

TEST_F(StreamFixture, RejectsMalformedStreamPlans) {
  StreamPlan bad_stream;
  bad_stream.stream_count = 2;
  bad_stream.partition_stream = {0, 1, 2, 0};  // stream id 2 out of range
  EXPECT_THROW(PartitionedEvaluator(*alignment_, specs_, *model_, *tree_, {}, bad_stream), Error);

  StreamPlan bad_size;
  bad_size.partition_stream = {0};  // 1 entry for 4 partitions
  EXPECT_THROW(PartitionedEvaluator(*alignment_, specs_, *model_, *tree_, {}, bad_size), Error);
}

/// Serial core::make_evaluator against pooled parallel::make_stream_evaluator
/// on one ISA: the same kernels on the same inputs, so lnL, gradients and
/// optimized branch lengths agree bitwise.
class StreamIsaSweep : public StreamFixture, public ::testing::WithParamInterface<simd::Isa> {};

TEST_P(StreamIsaSweep, SerialAndPooledAgreeBitwise) {
  const simd::Isa isa = GetParam();
  if (!simd::isa_supported(isa)) GTEST_SKIP() << simd::to_string(isa) << " not supported";
  EngineConfig config;
  config.isa = isa;
  const StreamPlan plan = platform::plan_partition_streams(pattern_counts(), 3, isa);
  parallel::WorkerPool pool(3);

  tree::Tree tree_serial(*tree_);
  tree::Tree tree_pooled(*tree_);
  const auto serial = make_evaluator(*alignment_, specs_, *model_, tree_serial, config);
  const auto pooled = parallel::make_stream_evaluator(pool, *alignment_, specs_, *model_,
                                                      tree_pooled, config, plan);
  EXPECT_EQ(serial->isa(), isa);
  EXPECT_EQ(pooled->isa(), isa);
  EXPECT_EQ(pooled->log_likelihood(tree_pooled.tip(0)), serial->log_likelihood(tree_serial.tip(0)));

  std::vector<BranchGradient> want;
  std::vector<BranchGradient> got;
  ASSERT_TRUE(serial->gradient_all_branches(tree_serial.tip(0), want));
  ASSERT_TRUE(pooled->gradient_all_branches(tree_pooled.tip(0), got));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].edge->node_id, want[i].edge->node_id);
    EXPECT_EQ(got[i].first, want[i].first) << "edge " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "edge " << i;
  }

  EXPECT_EQ(pooled->optimize_all_branches(tree_pooled.tip(0), 2),
            serial->optimize_all_branches(tree_serial.tip(0), 2));
  for (int i = 0; i < tree_serial.slot_count(); ++i) {
    EXPECT_EQ(tree_pooled.slot(i)->length, tree_serial.slot(i)->length) << "slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, StreamIsaSweep,
                         ::testing::Values(simd::Isa::kScalar, simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const auto& param_info) { return simd::to_string(param_info.param); });

}  // namespace
}  // namespace miniphi::core
