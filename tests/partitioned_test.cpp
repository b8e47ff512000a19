// Tests for src/core/partitioned: multi-gene alignments with per-partition
// models and linked branch lengths.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/partitioned.hpp"
#include "src/parallel/pool_parallel_for.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/platform/cost_model.hpp"
#include "src/search/model_optimizer.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/splits.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

TEST(Partitions, EvenSplitCoversEverySiteOnce) {
  const auto specs = even_partitions(1003, 7);
  ASSERT_EQ(specs.size(), 7u);
  std::int64_t covered = 0;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    EXPECT_EQ(specs[p].begin, (p == 0) ? 0 : specs[p - 1].end);
    EXPECT_GT(specs[p].end, specs[p].begin);
    covered += specs[p].end - specs[p].begin;
  }
  EXPECT_EQ(specs.back().end, 1003);
  EXPECT_EQ(covered, 1003);
  EXPECT_THROW(even_partitions(3, 5), Error);
}

class PartitionedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    alignment_ = std::make_unique<bio::Alignment>(testutil::random_alignment(10, 600, rng));
    model_ = std::make_unique<model::GtrModel>(testutil::random_gtr_params(rng));
    tree_ = std::make_unique<tree::Tree>(tree::Tree::random(10, rng));
  }

  std::unique_ptr<bio::Alignment> alignment_;
  std::unique_ptr<model::GtrModel> model_;
  std::unique_ptr<tree::Tree> tree_;
};

TEST_F(PartitionedFixture, SinglePartitionEqualsPlainEngine) {
  const auto patterns = bio::compress_patterns(*alignment_);
  LikelihoodEngine plain(patterns, *model_, *tree_);
  const double expected = plain.log_likelihood(tree_->tip(0));

  const auto specs = even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 1);
  PartitionedEvaluator evaluator(*alignment_, specs, *model_, *tree_);
  EXPECT_EQ(evaluator.partition_count(), 1);
  EXPECT_NEAR(evaluator.log_likelihood(tree_->tip(0)), expected,
              std::abs(expected) * 1e-11 + 1e-9);
}

TEST_F(PartitionedFixture, ManyPartitionsWithSharedModelEqualUnpartitioned) {
  // With identical models in every partition, the partitioned likelihood
  // must equal the unpartitioned one, for any partition count.
  const auto patterns = bio::compress_patterns(*alignment_);
  LikelihoodEngine plain(patterns, *model_, *tree_);
  const double expected = plain.log_likelihood(tree_->tip(0));

  for (const int count : {2, 3, 8, 25}) {
    const auto specs =
        even_partitions(static_cast<std::int64_t>(alignment_->site_count()), count);
    PartitionedEvaluator evaluator(*alignment_, specs, *model_, *tree_);
    EXPECT_NEAR(evaluator.log_likelihood(tree_->tip(0)), expected,
                std::abs(expected) * 1e-11 + 1e-9)
        << count << " partitions";
  }
}

TEST_F(PartitionedFixture, SiteRepeatsFlowThroughToEveryPartitionEngine) {
  // The engine config (including site_repeats) is forwarded verbatim to each
  // partition engine, every partition keeps its own repeat maps, and the
  // summed likelihood matches the dense partitioned evaluator exactly.
  const auto specs = even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 3);
  LikelihoodEngine::Config dense_config;
  dense_config.site_repeats = false;
  PartitionedEvaluator dense(*alignment_, specs, *model_, *tree_, dense_config);

  LikelihoodEngine::Config config;
  config.site_repeats = true;
  PartitionedEvaluator repeats(*alignment_, specs, *model_, *tree_, config);

  const double want = dense.log_likelihood(tree_->tip(0));
  const double got = repeats.log_likelihood(tree_->tip(0));
  EXPECT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-10);

  for (int p = 0; p < repeats.partition_count(); ++p) {
    auto& engine = repeats.partition_engine(p);
    EXPECT_TRUE(engine.site_repeats());
    EXPECT_LE(engine.unique_site_ratio(), 1.0);
    EXPECT_FALSE(dense.partition_engine(p).site_repeats());
  }

  // Linked-branch optimization goes through invalidate_branch on every
  // partition engine; repeat maps must survive it and agree with dense.
  tree::Tree tree_a(*tree_);
  tree::Tree tree_b(*tree_);
  PartitionedEvaluator dense_opt(*alignment_, specs, *model_, tree_a, dense_config);
  PartitionedEvaluator repeats_opt(*alignment_, specs, *model_, tree_b, config);
  const double lnl_a = dense_opt.optimize_all_branches(tree_a.tip(0), 2);
  const double lnl_b = repeats_opt.optimize_all_branches(tree_b.tip(0), 2);
  EXPECT_NEAR(lnl_a, lnl_b, std::abs(lnl_a) * 1e-9 + 1e-6);
}

TEST_F(PartitionedFixture, BranchOptimizationMatchesUnpartitioned) {
  const auto patterns = bio::compress_patterns(*alignment_);
  tree::Tree tree_a(*tree_);
  tree::Tree tree_b(*tree_);
  LikelihoodEngine plain(patterns, *model_, tree_a);
  const auto specs = even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 4);
  PartitionedEvaluator partitioned(*alignment_, specs, *model_, tree_b);

  const double lnl_a = plain.optimize_all_branches(tree_a.tip(0), 3);
  const double lnl_b = partitioned.optimize_all_branches(tree_b.tip(0), 3);
  EXPECT_NEAR(lnl_a, lnl_b, std::abs(lnl_a) * 1e-9 + 1e-6);
  for (int i = 0; i < tree_a.slot_count(); ++i) {
    EXPECT_NEAR(tree_a.slot(i)->length, tree_b.slot(i)->length, 1e-7);
  }
}

TEST_F(PartitionedFixture, PerPartitionModelsImproveHeterogeneousData) {
  // Simulate two genes under very different GTR parameters on one tree;
  // per-partition model optimization must beat a single shared model.
  Rng rng(99);
  tree::Tree truth = simulate::yule_tree(8, rng, 0.6);

  model::GtrParams fast;
  fast.alpha = 3.0;
  fast.exchangeabilities = {1.0, 8.0, 1.0, 1.0, 8.0, 1.0};
  model::GtrParams slow;
  slow.alpha = 0.3;
  slow.exchangeabilities = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  slow.frequencies = {0.4, 0.1, 0.1, 0.4};

  simulate::SimulationOptions sim;
  sim.sites = 1500;
  const auto gene_a = simulate::simulate_alignment(truth, model::GtrModel(fast), sim, rng);
  const auto gene_b = simulate::simulate_alignment(truth, model::GtrModel(slow), sim, rng);

  // Concatenate the two genes.
  std::vector<std::string> names;
  std::vector<std::vector<bio::DnaCode>> rows;
  for (std::size_t t = 0; t < gene_a.alignment.taxon_count(); ++t) {
    names.push_back(gene_a.alignment.taxon_name(t));
    std::vector<bio::DnaCode> row(gene_a.alignment.row(t).begin(),
                                  gene_a.alignment.row(t).end());
    row.insert(row.end(), gene_b.alignment.row(t).begin(), gene_b.alignment.row(t).end());
    rows.push_back(std::move(row));
  }
  const bio::Alignment concatenated(std::move(names), std::move(rows));

  const std::vector<PartitionSpec> specs = {{"fast_gene", 0, 1500}, {"slow_gene", 1500, 3000}};
  tree::Tree tree_shared(truth);
  tree::Tree tree_split(truth);
  const model::GtrModel start(model::GtrParams::jc69());

  // Shared model: one engine over everything, full model optimization.
  const auto patterns = bio::compress_patterns(concatenated);
  LikelihoodEngine shared(patterns, start, tree_shared);
  (void)shared.optimize_all_branches(tree_shared.tip(0), 4);
  const double shared_lnl =
      search::optimize_model(shared, tree_shared.tip(0)).log_likelihood;

  // Partitioned: per-partition model optimization.
  PartitionedEvaluator split(concatenated, specs, start, tree_split);
  (void)split.optimize_all_branches(tree_split.tip(0), 4);
  double split_lnl = 0.0;
  for (int p = 0; p < split.partition_count(); ++p) {
    split_lnl +=
        search::optimize_model(split.partition_engine(p), tree_split.tip(0)).log_likelihood;
  }
  EXPECT_GT(split_lnl, shared_lnl + 20.0)
      << "per-partition models should fit heterogeneous genes decisively better";

  // And the recovered per-partition alphas should bracket the truth.
  EXPECT_GT(split.partition_engine(0).model().params().alpha, 1.0);  // fast gene: high alpha
  EXPECT_LT(split.partition_engine(1).model().params().alpha, 1.0);  // slow gene: low alpha
}

TEST_F(PartitionedFixture, SearchRunsOnPartitionedEvaluator) {
  Rng rng(55);
  const auto specs = even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 3);
  tree::Tree tree = tree::Tree::random(10, rng);
  PartitionedEvaluator evaluator(*alignment_, specs, *model_, tree);
  search::SearchOptions options;
  options.optimize_model = false;
  options.max_rounds = 2;
  const auto result = search::run_tree_search(evaluator, tree, options);
  EXPECT_LT(result.log_likelihood, 0.0);
  tree.validate();
  // Monotone trajectory as always.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1] - 1e-6);
  }
}

TEST_F(PartitionedFixture, StreamScheduleVariantsAreBitIdentical) {
  // The stream executor must produce bit-identical likelihoods under every
  // stream count and pool size: the kernels run on the same inputs and
  // every reduction sums in fixed partition order, so no tolerance applies.
  // 25 partitions: enough terms that a sum in stream order instead of
  // partition order changes the last bits.
  const auto specs =
      even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 25);
  PartitionedEvaluator reference(*alignment_, specs, *model_, *tree_);
  const double expected = reference.log_likelihood(tree_->tip(0));
  // The serial reference runs its one stream task as a plain loop.
  EXPECT_EQ(reference.stream_counters().calls, 1);
  EXPECT_EQ(reference.stream_counters().tasks, 1);
  EXPECT_EQ(reference.stream_counters().regions, 0);  // no ParallelFor

  const auto patterns = partition_pattern_counts(*alignment_, specs);
  for (const int streams : {1, 2, 4}) {
    const StreamPlan plan = platform::plan_partition_streams(patterns, streams);
    for (const int workers : {1, 2, 4}) {
      parallel::WorkerPool pool(workers);
      parallel::PoolParallelFor parallel_for(pool);
      PartitionedEvaluator evaluator(*alignment_, specs, *model_, *tree_, {}, plan);
      evaluator.set_parallel_for(&parallel_for);
      EXPECT_EQ(evaluator.log_likelihood(tree_->tip(0)), expected)
          << streams << " streams, " << workers << " workers";
      // One region of stream_count tasks for the whole evaluation.
      const StreamCounters& counters = evaluator.stream_counters();
      EXPECT_EQ(counters.regions, 1);
      EXPECT_EQ(counters.tasks, streams);
    }
  }
}

TEST_F(PartitionedFixture, BranchOptimizationIsScheduleInvariant) {
  // Newton branch optimization drives prepare_derivatives/derivatives through
  // the same stream tasks; optimized lengths and the final likelihood must
  // be bit-identical across stream counts and pool sizes.
  const auto specs =
      even_partitions(static_cast<std::int64_t>(alignment_->site_count()), 4);
  tree::Tree tree_serial(*tree_);
  PartitionedEvaluator serial(*alignment_, specs, *model_, tree_serial);
  const double expected = serial.optimize_all_branches(tree_serial.tip(0), 2);

  const auto patterns = partition_pattern_counts(*alignment_, specs);
  for (const int streams : {1, 2, 4}) {
    const StreamPlan plan = platform::plan_partition_streams(patterns, streams);
    for (const int workers : {1, 3}) {
      parallel::WorkerPool pool(workers);
      parallel::PoolParallelFor parallel_for(pool);
      tree::Tree tree(*tree_);
      PartitionedEvaluator evaluator(*alignment_, specs, *model_, tree, {}, plan);
      evaluator.set_parallel_for(&parallel_for);
      EXPECT_EQ(evaluator.optimize_all_branches(tree.tip(0), 2), expected)
          << streams << " streams, " << workers << " workers";
      for (int i = 0; i < tree.slot_count(); ++i) {
        EXPECT_EQ(tree.slot(i)->length, tree_serial.slot(i)->length);
      }
    }
  }
}

TEST_F(PartitionedFixture, RejectsInvalidRanges) {
  const model::GtrModel model(model::GtrParams::jc69());
  const std::vector<PartitionSpec> empty = {};
  EXPECT_THROW(PartitionedEvaluator(*alignment_, empty, model, *tree_), Error);
  const std::vector<PartitionSpec> bad = {{"x", 10, 5}};
  EXPECT_THROW(PartitionedEvaluator(*alignment_, bad, model, *tree_), Error);
  const std::vector<PartitionSpec> overflow = {{"x", 0, 100000}};
  EXPECT_THROW(PartitionedEvaluator(*alignment_, overflow, model, *tree_), Error);
}

}  // namespace
}  // namespace miniphi::core
