// Tests for src/search: Brent minimization, model optimization, SPR search.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/engine.hpp"
#include "src/search/brent.hpp"
#include "src/util/error.hpp"
#include "src/search/model_optimizer.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "tests/testutil.hpp"

namespace miniphi::search {
namespace {

TEST(Brent, FindsQuadraticMinimum) {
  const auto result = brent_minimize([](double x) { return (x - 1.7) * (x - 1.7); }, -10, 10, 1e-8);
  EXPECT_NEAR(result.x, 1.7, 1e-6);
  EXPECT_NEAR(result.value, 0.0, 1e-10);
}

TEST(Brent, FindsAsymmetricMinimum) {
  // f(x) = x^4 - 3x^3 + 2, f'(x) = 4x^3 - 9x^2 → minimum at x = 9/4.
  const auto result =
      brent_minimize([](double x) { return x * x * x * x - 3 * x * x * x + 2; }, 0.1, 10, 1e-9);
  EXPECT_NEAR(result.x, 2.25, 1e-5);
}

TEST(Brent, RespectsBounds) {
  // Monotone decreasing on the interval: minimum sits at the upper bound.
  const auto result = brent_minimize([](double x) { return -x; }, 0, 5, 1e-8);
  EXPECT_NEAR(result.x, 5.0, 1e-3);
  EXPECT_THROW(brent_minimize([](double x) { return x; }, 3, 2), miniphi::Error);
}

TEST(Brent, HandlesNonSmoothFunction) {
  const auto result = brent_minimize([](double x) { return std::abs(x - 0.3); }, -2, 2, 1e-8);
  EXPECT_NEAR(result.x, 0.3, 1e-4);
}

TEST(Brent, MonotoneObjectivesReturnExactEndpoints) {
  // Regression: the golden-section probes are strictly interior, so without
  // the final endpoint comparison a monotone objective converged to a point
  // ~tolerance inside the interval instead of the boundary optimum.
  const auto decreasing = brent_minimize([](double x) { return -x; }, 0.0, 5.0, 1e-8);
  EXPECT_DOUBLE_EQ(decreasing.x, 5.0);
  EXPECT_DOUBLE_EQ(decreasing.value, -5.0);

  const auto increasing = brent_minimize([](double x) { return 3.0 * x + 1.0; }, -2.0, 7.0, 1e-8);
  EXPECT_DOUBLE_EQ(increasing.x, -2.0);
  EXPECT_DOUBLE_EQ(increasing.value, -5.0);

  // An interior minimum must win against both endpoints (strict comparison
  // keeps the interior point when values tie).
  const auto interior = brent_minimize([](double x) { return (x - 1.0) * (x - 1.0); }, 0.0, 5.0);
  EXPECT_NEAR(interior.x, 1.0, 1e-3);
  EXPECT_LT(interior.value, 1.0);  // beats f(0) = f(2) = 1
}

TEST(Brent, SurvivesNanOnPartOfTheDomain) {
  // Likelihood objectives can go NaN on part of the parameter domain (e.g.
  // numerically hostile α values).  A non-finite probe must shrink the
  // bracket, not propagate into the parabolic memory or the result.
  const auto f = [](double x) {
    if (x < 0.5) return std::numeric_limits<double>::quiet_NaN();
    return (x - 0.7) * (x - 0.7);
  };
  const auto result = brent_minimize(f, 0.0, 2.0, 1e-8);
  EXPECT_TRUE(std::isfinite(result.value));
  EXPECT_NEAR(result.x, 0.7, 1e-4);

  // NaN at the golden-section start point: the interior scan must find a
  // finite anchor (the golden start for [0, 2] is ≈ 0.764, so flip the bad
  // region to the upper half instead).
  const auto upper_bad = [](double x) {
    if (x > 0.6) return std::numeric_limits<double>::quiet_NaN();
    return (x - 0.2) * (x - 0.2);
  };
  const auto anchored = brent_minimize(upper_bad, 0.0, 2.0, 1e-8);
  EXPECT_TRUE(std::isfinite(anchored.value));
  EXPECT_NEAR(anchored.x, 0.2, 1e-4);

  // Non-finite everywhere is a caller error and must be loud, not a quiet
  // NaN result.
  EXPECT_THROW(
      brent_minimize([](double) { return std::numeric_limits<double>::quiet_NaN(); }, 0.0, 1.0),
      miniphi::Error);
}

TEST(Brent, EvaluationCountIsBounded) {
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return std::cos(x);
  };
  (void)brent_minimize(f, 0, 6, 1e-6);
  EXPECT_LT(calls, 60);
}

class SearchFixture : public ::testing::Test {
 protected:
  /// Simulated data on a known tree: the search should recover (or beat)
  /// the true tree's likelihood.
  void make_instance(int ntaxa, std::int64_t sites, std::uint64_t seed) {
    Rng rng(seed);
    model::GtrParams params;
    params.exchangeabilities = {1.0, 3.0, 1.0, 1.0, 3.0, 1.0};
    params.frequencies = {0.3, 0.2, 0.2, 0.3};
    params.alpha = 0.7;
    true_model_ = std::make_unique<model::GtrModel>(params);
    true_tree_ = std::make_unique<tree::Tree>(simulate::yule_tree(ntaxa, rng, 0.7));
    simulate::SimulationOptions options;
    options.sites = sites;
    alignment_ = std::make_unique<bio::Alignment>(
        simulate::simulate_alignment(*true_tree_, *true_model_, options, rng).alignment);
    patterns_ = std::make_unique<bio::PatternSet>(bio::compress_patterns(*alignment_));
  }

  std::unique_ptr<model::GtrModel> true_model_;
  std::unique_ptr<tree::Tree> true_tree_;
  std::unique_ptr<bio::Alignment> alignment_;
  std::unique_ptr<bio::PatternSet> patterns_;
};

TEST_F(SearchFixture, ModelOptimizationRecoversAlpha) {
  make_instance(12, 5000, 91);
  // Start from a deliberately wrong alpha; tree fixed to the truth.
  model::GtrParams start = true_model_->params();
  start.alpha = 5.0;
  tree::Tree tree(*true_tree_);
  core::LikelihoodEngine engine(*patterns_, model::GtrModel(start), tree);
  (void)engine.optimize_all_branches(tree.tip(0), 4);

  ModelOptimizerOptions options;
  options.optimize_rates = false;
  const auto result = optimize_model(engine, tree.tip(0), options);
  EXPECT_GT(result.evaluations, 3);
  // α̂ should move toward the truth (0.7); generous bracket for 5 K sites.
  EXPECT_GT(engine.model().params().alpha, 0.4);
  EXPECT_LT(engine.model().params().alpha, 1.2);
}

TEST_F(SearchFixture, ModelOptimizationImprovesLikelihood) {
  make_instance(10, 1200, 17);
  tree::Tree tree(*true_tree_);
  core::LikelihoodEngine engine(*patterns_, model::GtrModel(model::GtrParams::jc69()), tree);
  const double before = engine.optimize_all_branches(tree.tip(0), 3);
  const auto result = optimize_model(engine, tree.tip(0));
  EXPECT_GT(result.log_likelihood, before);
}

TEST_F(SearchFixture, SprRoundNeverDecreasesLikelihood) {
  make_instance(10, 800, 5);
  Rng rng(123);
  tree::Tree tree = tree::Tree::random(10, rng);  // bad random start
  core::LikelihoodEngine engine(*patterns_, *true_model_, tree);
  double current = engine.optimize_all_branches(tree.tip(0), 3);
  SearchResult stats;
  const double after = spr_round(engine, tree, 3, current, stats);
  EXPECT_GE(after, current - 1e-6);
  EXPECT_GT(stats.evaluated_insertions, 0);
  tree.validate();
}

TEST_F(SearchFixture, FullSearchRecoversTrueTopology) {
  // With plenty of signal (4 kb, 8 taxa) the ML tree should match the
  // generating topology.
  make_instance(8, 4000, 7);
  Rng rng(55);
  tree::Tree tree = tree::Tree::random(8, rng);
  core::LikelihoodEngine engine(*patterns_, *true_model_, tree);

  SearchOptions options;
  options.optimize_model = false;  // model fixed to the truth
  const auto result = run_tree_search(engine, tree, options);

  EXPECT_EQ(tree::robinson_foulds(tree, *true_tree_), 0)
      << "searched tree differs from the generating topology";

  // And its likelihood must beat / match the true tree with optimized
  // branch lengths.
  tree::Tree reference(*true_tree_);
  core::LikelihoodEngine reference_engine(*patterns_, *true_model_, reference);
  const double reference_lnl = reference_engine.optimize_all_branches(reference.tip(0), 8);
  EXPECT_GE(result.log_likelihood, reference_lnl - 0.05);
}

TEST_F(SearchFixture, SiteRepeatsDefaultSearchMatchesDenseSearch) {
  // The default engine (site repeats on) and an explicitly dense one must
  // walk the same search: repeat classes change which blocks are computed,
  // never a value, so every accept/reject decision agrees.
  make_instance(12, 1500, 29);
  Rng rng(31);
  const tree::Tree start = tree::Tree::random(12, rng);
  const model::GtrModel model(model::GtrParams::jc69());
  tree::Tree repeat_tree(start);
  tree::Tree dense_tree(start);
  core::LikelihoodEngine repeats(*patterns_, model, repeat_tree);
  ASSERT_TRUE(repeats.site_repeats());
  core::LikelihoodEngine::Config dense_config;
  dense_config.site_repeats = false;
  core::LikelihoodEngine dense(*patterns_, model, dense_tree, dense_config);

  SearchOptions options;
  options.max_rounds = 2;
  const SearchResult a = run_tree_search(repeats, repeat_tree, options);
  const SearchResult b = run_tree_search(dense, dense_tree, options);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  EXPECT_EQ(a.evaluated_insertions, b.evaluated_insertions);
  EXPECT_EQ(a.trajectory.size(), b.trajectory.size());
  EXPECT_GT(a.evaluated_insertions, 0);

  // Each final tree against a scalar dense re-evaluation.
  const auto scalar_lnl = [&](const tree::Tree& tree, const core::LikelihoodEngine& engine) {
    tree::Tree copy(tree);
    core::LikelihoodEngine::Config config;
    config.isa = simd::Isa::kScalar;
    config.site_repeats = false;
    core::LikelihoodEngine reference(*patterns_, engine.model(), copy, config);
    return reference.log_likelihood(copy.tip(0));
  };
  const double want_a = scalar_lnl(repeat_tree, repeats);
  const double want_b = scalar_lnl(dense_tree, dense);
  EXPECT_NEAR(a.log_likelihood, want_a, std::abs(want_a) * 1e-10);
  EXPECT_NEAR(b.log_likelihood, want_b, std::abs(want_b) * 1e-10);
}

TEST_F(SearchFixture, SearchTrajectoryIsMonotone) {
  make_instance(12, 600, 3);
  Rng rng(9);
  tree::Tree tree = tree::Tree::random(12, rng);
  core::LikelihoodEngine engine(*patterns_, *true_model_, tree);
  SearchOptions options;
  options.optimize_model = false;
  const auto result = run_tree_search(engine, tree, options);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1] - 1e-6);
  }
  EXPECT_GE(result.rounds, 1);
}

TEST_F(SearchFixture, ParsimonyStartBeatsRandomStartInitially) {
  make_instance(14, 1000, 21);
  Rng rng_a(2), rng_b(2);
  tree::Tree parsimony_tree = tree::parsimony_starting_tree(*patterns_, rng_a);
  tree::Tree random_tree = tree::Tree::random(14, rng_b);

  core::LikelihoodEngine engine_p(*patterns_, *true_model_, parsimony_tree);
  core::LikelihoodEngine engine_r(*patterns_, *true_model_, random_tree);
  const double lnl_p = engine_p.optimize_all_branches(parsimony_tree.tip(0), 4);
  const double lnl_r = engine_r.optimize_all_branches(random_tree.tip(0), 4);
  EXPECT_GT(lnl_p, lnl_r);
}

}  // namespace
}  // namespace miniphi::search
