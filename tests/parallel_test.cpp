// Tests for src/parallel: worker pool semantics and the fork-join evaluator
// (RAxML-Light PThreads scheme) against the serial engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "src/parallel/fork_join_evaluator.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/splits.hpp"
#include "tests/testutil.hpp"

namespace miniphi::parallel {
namespace {

TEST(WorkerPool, RunsTaskOnEveryWorker) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int thread_id) { hits[static_cast<std::size_t>(thread_id)]++; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  EXPECT_EQ(pool.region_count(), 1);
}

TEST(WorkerPool, ManySequentialRegions) {
  WorkerPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.run([&](int) { counter++; });
  }
  EXPECT_EQ(counter.load(), 600);
  EXPECT_EQ(pool.region_count(), 200);
}

TEST(WorkerPool, ReduceSumIsDeterministic) {
  WorkerPool pool(8);
  const double total = pool.run_reduce_sum([](int thread_id) { return 0.1 * (thread_id + 1); });
  EXPECT_DOUBLE_EQ(total, 0.1 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST(WorkerPool, SingleThreadPoolWorks) {
  WorkerPool pool(1);
  EXPECT_DOUBLE_EQ(pool.run_reduce_sum([](int) { return 2.5; }), 2.5);
}

TEST(WorkerPool, RejectsZeroThreads) { EXPECT_THROW(WorkerPool(0), miniphi::Error); }

TEST(WorkerPool, WorkerExceptionPropagatesToMaster) {
  WorkerPool pool(4);
  try {
    pool.run([](int thread_id) {
      if (thread_id == 2) throw miniphi::Error("worker 2 failed");
    });
    FAIL() << "expected the worker's exception from run()";
  } catch (const miniphi::Error& e) {
    EXPECT_STREQ(e.what(), "worker 2 failed");
  }
  // The region still joined: the pool is fully usable afterwards.
  std::atomic<int> counter{0};
  pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 4);
  EXPECT_EQ(pool.region_count(), 2);
}

TEST(WorkerPool, MasterExceptionPropagates) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run([](int thread_id) {
                 if (thread_id == 0) throw miniphi::Error("master failed");
               }),
               miniphi::Error);
  EXPECT_EQ(pool.region_count(), 1);
}

TEST(WorkerPool, LowestThreadIdExceptionWinsWhenSeveralThrow) {
  WorkerPool pool(4);
  try {
    pool.run([](int thread_id) {
      if (thread_id == 1 || thread_id == 3) {
        throw miniphi::Error("thread " + std::to_string(thread_id) + " failed");
      }
    });
    FAIL() << "expected an exception";
  } catch (const miniphi::Error& e) {
    EXPECT_STREQ(e.what(), "thread 1 failed");
  }
}

TEST(WorkerPool, ReduceSumPropagatesWorkerException) {
  WorkerPool pool(2);
  EXPECT_THROW((void)pool.run_reduce_sum([](int thread_id) -> double {
                 if (thread_id == 1) throw miniphi::Error("reduce failed");
                 return 1.0;
               }),
               miniphi::Error);
  EXPECT_DOUBLE_EQ(pool.run_reduce_sum([](int) { return 1.0; }), 2.0);
}

// --- Exception / cancellation interleaving ----------------------------------
//
// A cancelled job's siblings all throw CancelledError from the same token.
// The rethrow policy must surface the *informative* exception: a real
// failure beats a cancellation regardless of which thread id carried it.

TEST(WorkerPool, ThrowingTaskBesideCancelledSiblingPrefersTheRealError) {
  WorkerPool pool(4);
  CancelToken token;
  token.cancel();
  try {
    pool.run([&](int thread_id) {
      // Thread 1 hits a genuine failure; 0, 2 and 3 observe the cancel.
      // Lowest-id-wins alone would report the cancellation and bury the
      // real error.
      if (thread_id == 1) throw miniphi::Error("real failure");
      token.check();
    });
    FAIL() << "expected an exception";
  } catch (const CancelledError&) {
    FAIL() << "cancellation masked the real failure";
  } catch (const miniphi::Error& e) {
    EXPECT_STREQ(e.what(), "real failure");
  }
  // The region joined cleanly: the pool serves the next job.
  std::atomic<int> counter{0};
  pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

TEST(WorkerPool, AllWorkersCancelledRethrowsTheCancellation) {
  WorkerPool pool(3);
  {
    CancelToken token;
    token.cancel();
    EXPECT_THROW(pool.run([&](int) { token.check(); }), CancelledError);
  }
  {
    // An already-expired deadline must surface as a deadline-flavoured
    // CancelledError so the service maps it to kDeadlineExceeded.
    CancelToken token;
    token.set_deadline_after(std::chrono::nanoseconds(-1));
    try {
      pool.run([&](int) { token.check(); });
      FAIL() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_TRUE(e.deadline_expired());
    }
  }
  EXPECT_DOUBLE_EQ(pool.run_reduce_sum([](int) { return 1.0; }), 3.0);
}

TEST(WorkerPool, CancelledSiblingsDoNotDeadlockOrDropTheException) {
  WorkerPool pool(4);
  // Rotate the failing thread so every (thrower, cancelled-sibling)
  // interleaving is exercised; any dropped exception or missed join shows
  // up as a wrong error or a hang.
  for (int round = 0; round < 50; ++round) {
    CancelToken token;
    token.cancel();
    const int thrower = round % 4;
    bool caught_real = false;
    try {
      pool.run([&](int thread_id) {
        if (thread_id == thrower) throw miniphi::Error("round failure");
        token.check();
      });
    } catch (const CancelledError&) {
      // fall through: caught_real stays false and the assert names the round
    } catch (const miniphi::Error& e) {
      caught_real = std::string(e.what()) == "round failure";
    }
    ASSERT_TRUE(caught_real) << "round " << round << " thrower " << thrower;
  }
  std::atomic<int> counter{0};
  pool.run([&](int) { counter++; });
  EXPECT_EQ(counter.load(), 4);
}

class ForkJoinFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    alignment_ = std::make_unique<bio::Alignment>(testutil::random_alignment(13, 500, rng));
    patterns_ = std::make_unique<bio::PatternSet>(bio::compress_patterns(*alignment_));
    model_ = std::make_unique<model::GtrModel>(testutil::random_gtr_params(rng));
    tree_ = std::make_unique<tree::Tree>(tree::Tree::random(13, rng));
  }

  std::unique_ptr<bio::Alignment> alignment_;
  std::unique_ptr<bio::PatternSet> patterns_;
  std::unique_ptr<model::GtrModel> model_;
  std::unique_ptr<tree::Tree> tree_;
};

TEST_F(ForkJoinFixture, LikelihoodMatchesSerialEngine) {
  core::LikelihoodEngine serial(*patterns_, *model_, *tree_);
  const double expected = serial.log_likelihood(tree_->tip(0));
  for (const int workers : {1, 2, 3, 7}) {
    WorkerPool pool(workers);
    ForkJoinEvaluator evaluator(pool, *patterns_, *model_, *tree_);
    const double actual = evaluator.log_likelihood(tree_->tip(0));
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-11 + 1e-9) << "workers=" << workers;
  }
}

TEST_F(ForkJoinFixture, DerivativesMatchSerialEngine) {
  core::LikelihoodEngine serial(*patterns_, *model_, *tree_);
  WorkerPool pool(4);
  ForkJoinEvaluator evaluator(pool, *patterns_, *model_, *tree_);
  tree::Slot* edge = tree_->tip(3);
  serial.prepare_derivatives(edge);
  evaluator.prepare_derivatives(edge);
  for (const double z : {0.01, 0.1, 0.5}) {
    const auto [e1, e2] = serial.derivatives(z);
    const auto [a1, a2] = evaluator.derivatives(z);
    EXPECT_NEAR(a1, e1, std::abs(e1) * 1e-10 + 1e-8);
    EXPECT_NEAR(a2, e2, std::abs(e2) * 1e-10 + 1e-8);
  }
}

TEST_F(ForkJoinFixture, BranchOptimizationMatchesSerial) {
  tree::Tree tree_a(*tree_);
  tree::Tree tree_b(*tree_);
  core::LikelihoodEngine serial(*patterns_, *model_, tree_a);
  WorkerPool pool(3);
  ForkJoinEvaluator evaluator(pool, *patterns_, *model_, tree_b);

  const double lnl_a = serial.optimize_all_branches(tree_a.tip(0), 3);
  const double lnl_b = evaluator.optimize_all_branches(tree_b.tip(0), 3);
  EXPECT_NEAR(lnl_a, lnl_b, std::abs(lnl_a) * 1e-9 + 1e-6);

  // Branch lengths should agree too.
  for (int i = 0; i < tree_a.slot_count(); ++i) {
    EXPECT_NEAR(tree_a.slot(i)->length, tree_b.slot(i)->length, 1e-7);
  }
}

TEST_F(ForkJoinFixture, FullSearchMatchesSerialSearch) {
  tree::Tree tree_a(*tree_);
  tree::Tree tree_b(*tree_);
  search::SearchOptions options;
  options.optimize_model = false;
  options.max_rounds = 2;

  core::LikelihoodEngine serial(*patterns_, *model_, tree_a);
  const auto result_a = search::run_tree_search(serial, tree_a, options);

  WorkerPool pool(4);
  ForkJoinEvaluator evaluator(pool, *patterns_, *model_, tree_b);
  const auto result_b = search::run_tree_search(evaluator, tree_b, options);

  EXPECT_EQ(tree::robinson_foulds(tree_a, tree_b), 0);
  EXPECT_NEAR(result_a.log_likelihood, result_b.log_likelihood,
              std::abs(result_a.log_likelihood) * 1e-8 + 1e-5);
  EXPECT_GT(pool.region_count(), 100);  // two syncs per kernel region, counted
}

TEST_F(ForkJoinFixture, StatsAggregateAcrossWorkers) {
  WorkerPool pool(4);
  core::LikelihoodEngine::Config config;
  config.site_repeats = false;
  ForkJoinEvaluator evaluator(pool, *patterns_, *model_, *tree_, config);
  (void)evaluator.log_likelihood(tree_->tip(0));
  const auto stat = evaluator.total_stats(core::Kernel::kNewview);
  EXPECT_EQ(stat.calls, 4 * tree_->inner_count());
  EXPECT_EQ(stat.sites, static_cast<std::int64_t>(patterns_->pattern_count()) *
                            tree_->inner_count());
}

TEST_F(ForkJoinFixture, RejectsMoreWorkersThanPatterns) {
  io::SequenceSet records = {{"a", "AC"}, {"b", "AC"}, {"c", "AC"}};
  bio::Alignment tiny(records);
  const auto patterns = bio::compress_patterns(tiny);  // 1 pattern
  Rng rng(1);
  tree::Tree tree = tree::Tree::random(3, rng);
  WorkerPool pool(4);
  EXPECT_THROW(ForkJoinEvaluator(pool, patterns, *model_, tree), miniphi::Error);
}

}  // namespace
}  // namespace miniphi::parallel
