// Tests for the CAT rate-heterogeneity engine (per-site rates), including
// the two-sites-per-512-bit-vector alignment path of paper Section V-B2.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/cat/cat_engine.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

/// Independent reference: Felsenstein pruning with an explicit per-site rate
/// multiplier, in probability space.
double cat_brute_force(const tree::Tree& tree, const bio::PatternSet& patterns,
                       const model::GtrModel& model, const std::vector<double>& rates,
                       const std::vector<std::uint8_t>& assignment) {
  const std::size_t npat = patterns.pattern_count();
  using Cond = std::vector<std::array<double, 4>>;

  const std::function<Cond(const tree::Slot*)> down = [&](const tree::Slot* slot) -> Cond {
    Cond out(npat);
    if (slot->is_tip()) {
      const auto& codes = patterns.tip_rows[static_cast<std::size_t>(slot->node_id)];
      for (std::size_t s = 0; s < npat; ++s) {
        for (int i = 0; i < 4; ++i) {
          out[s][static_cast<std::size_t>(i)] = (codes[s] & (1 << i)) ? 1.0 : 0.0;
        }
      }
      return out;
    }
    const Cond left = down(slot->child1());
    const Cond right = down(slot->child2());
    for (std::size_t s = 0; s < npat; ++s) {
      const double rate = rates[assignment[s]];
      const auto p1 = model.transition_matrix(slot->next->length, rate);
      const auto p2 = model.transition_matrix(slot->next->next->length, rate);
      for (int i = 0; i < 4; ++i) {
        double a = 0.0;
        double b = 0.0;
        for (int j = 0; j < 4; ++j) {
          a += p1[static_cast<std::size_t>(i * 4 + j)] * left[s][static_cast<std::size_t>(j)];
          b += p2[static_cast<std::size_t>(i * 4 + j)] * right[s][static_cast<std::size_t>(j)];
        }
        out[s][static_cast<std::size_t>(i)] = a * b;
      }
    }
    return out;
  };

  const tree::Slot* root = tree.tip(0);
  const Cond below = down(root->back);
  const auto& codes = patterns.tip_rows[0];
  const auto& pi = model.frequencies();
  double total = 0.0;
  for (std::size_t s = 0; s < npat; ++s) {
    const double rate = rates[assignment[s]];
    const auto p = model.transition_matrix(root->length, rate);
    double site = 0.0;
    for (int i = 0; i < 4; ++i) {
      if (!(codes[s] & (1 << i))) continue;
      double inner = 0.0;
      for (int j = 0; j < 4; ++j) {
        inner += p[static_cast<std::size_t>(i * 4 + j)] * below[s][static_cast<std::size_t>(j)];
      }
      site += pi[static_cast<std::size_t>(i)] * inner;
    }
    total += patterns.weights[s] * std::log(site);
  }
  return total;
}

struct CatInstance {
  bio::PatternSet patterns;
  model::GtrModel model = model::GtrModel(model::GtrParams::jc69());
  std::unique_ptr<tree::Tree> tree;
  std::vector<double> rates;
  std::vector<std::uint8_t> assignment;
};

CatInstance make_instance(int ntaxa, int nsites, int categories, std::uint64_t seed) {
  Rng rng(seed);
  CatInstance instance;
  const auto alignment = testutil::random_alignment(ntaxa, nsites, rng, 0.05);
  instance.patterns = bio::compress_patterns(alignment);
  instance.model = model::GtrModel(testutil::random_gtr_params(rng));
  instance.tree = std::make_unique<tree::Tree>(tree::Tree::random(ntaxa, rng));
  for (int c = 0; c < categories; ++c) {
    instance.rates.push_back(rng.uniform(0.05, 4.0));
  }
  instance.assignment.resize(instance.patterns.pattern_count());
  for (auto& a : instance.assignment) {
    a = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(categories)));
  }
  return instance;
}

class CatEngineTest : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam())) GTEST_SKIP() << "ISA unsupported";
  }
};

TEST_P(CatEngineTest, MatchesBruteForceWithRandomCategories) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto instance = make_instance(9, 151, 7, seed);  // odd pattern count: pair-path tails
    CatEngine::Config config;
    config.isa = GetParam();
    CatEngine engine(instance.patterns, instance.model, *instance.tree, 7, config);
    engine.set_categories(instance.rates, instance.assignment);
    const double expected = cat_brute_force(*instance.tree, instance.patterns, instance.model,
                                            instance.rates, instance.assignment);
    const double actual = engine.log_likelihood(instance.tree->tip(0));
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-10 + 1e-8) << "seed " << seed;
  }
}

TEST_P(CatEngineTest, VirtualRootInvariance) {
  auto instance = make_instance(10, 120, 5, 11);
  CatEngine::Config config;
  config.isa = GetParam();
  CatEngine engine(instance.patterns, instance.model, *instance.tree, 5, config);
  engine.set_categories(instance.rates, instance.assignment);
  const double reference = engine.log_likelihood(instance.tree->tip(0));
  for (tree::Slot* edge : instance.tree->edges()) {
    EXPECT_NEAR(engine.log_likelihood(edge), reference, std::abs(reference) * 1e-11 + 1e-9);
  }
}

TEST_P(CatEngineTest, DerivativesMatchFiniteDifferences) {
  auto instance = make_instance(8, 90, 4, 13);
  CatEngine::Config config;
  config.isa = GetParam();
  CatEngine engine(instance.patterns, instance.model, *instance.tree, 4, config);
  engine.set_categories(instance.rates, instance.assignment);

  tree::Slot* edge = instance.tree->tip(3);
  engine.prepare_derivatives(edge);
  const double z = edge->length;
  const auto [first, second] = engine.derivatives(z);
  const auto eval_at = [&](double value) {
    tree::Tree::set_length(edge, value);
    const double result = engine.log_likelihood(edge);
    tree::Tree::set_length(edge, z);
    return result;
  };
  const double h = 1e-6;
  EXPECT_NEAR(first, (eval_at(z + h) - eval_at(z - h)) / (2 * h),
              1e-3 * (1.0 + std::abs(first)));
  const double h2 = 1e-4;
  EXPECT_NEAR(second, (eval_at(z + h2) - 2 * eval_at(z) + eval_at(z - h2)) / (h2 * h2),
              2e-2 * (1.0 + std::abs(second)));
}

TEST_P(CatEngineTest, AgreesAcrossBackEnds) {
  // Direct cross-ISA agreement incl. the odd-start/odd-end pair handling.
  auto instance = make_instance(12, 257, 9, 17);
  CatEngine::Config scalar_config;
  scalar_config.isa = simd::Isa::kScalar;
  CatEngine scalar_engine(instance.patterns, instance.model, *instance.tree, 9, scalar_config);
  scalar_engine.set_categories(instance.rates, instance.assignment);
  const double expected = scalar_engine.log_likelihood(instance.tree->tip(0));

  CatEngine::Config config;
  config.isa = GetParam();
  CatEngine engine(instance.patterns, instance.model, *instance.tree, 9, config);
  engine.set_categories(instance.rates, instance.assignment);
  EXPECT_NEAR(engine.log_likelihood(instance.tree->tip(0)), expected,
              std::abs(expected) * 1e-11 + 1e-9);

  // Branch optimization should follow the same trajectory.
  tree::Tree tree_a(*instance.tree);
  tree::Tree tree_b(*instance.tree);
  CatEngine engine_a(instance.patterns, instance.model, tree_a, 9, scalar_config);
  engine_a.set_categories(instance.rates, instance.assignment);
  CatEngine engine_b(instance.patterns, instance.model, tree_b, 9, config);
  engine_b.set_categories(instance.rates, instance.assignment);
  const double lnl_a = engine_a.optimize_all_branches(tree_a.tip(0), 2);
  const double lnl_b = engine_b.optimize_all_branches(tree_b.tip(0), 2);
  EXPECT_NEAR(lnl_a, lnl_b, std::abs(lnl_a) * 1e-9 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Isas, CatEngineTest,
                         ::testing::Values(simd::Isa::kScalar, simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const auto& param_info) { return simd::to_string(param_info.param); });

TEST(CatEngine, SetAlphaThrows) {
  auto instance = make_instance(5, 30, 4, 23);
  CatEngine engine(instance.patterns, instance.model, *instance.tree, 4);
  EXPECT_THROW(engine.set_alpha(1.0), Error);
  EXPECT_THROW((void)engine.alpha(), Error);
}

TEST(CatEngine, RejectsBadCategories) {
  auto instance = make_instance(5, 30, 4, 29);
  CatEngine engine(instance.patterns, instance.model, *instance.tree, 4);
  EXPECT_THROW(engine.set_categories({}, {}), Error);
  EXPECT_THROW(engine.set_categories({1.0, -0.5},
                                     std::vector<std::uint8_t>(
                                         instance.patterns.pattern_count(), 0)),
               Error);
  EXPECT_THROW(engine.set_categories({1.0},
                                     std::vector<std::uint8_t>(
                                         instance.patterns.pattern_count(), 3)),
               Error);
}

TEST(CatEngine, CancellationReleasesPinsAndLeavesTheEngineReusable) {
  // EngineConfig::cancel holds for every family and every budget: at the
  // minimum working set and at the full budget, a token
  // tripped mid-traversal unwinds log_likelihood with CancelledError, every
  // pin the plan executor took is dropped on the way out, and the engine's
  // next (uncancelled) call matches a fresh engine bit for bit.
  auto instance = make_instance(12, 140, 4, 43);
  const int inner = instance.tree->inner_count();
  CatEngine fresh(instance.patterns, instance.model, *instance.tree, 4);
  tree::Slot* edge = instance.tree->tip(0);
  for (const bool floor : {true, false}) {
    SCOPED_TRACE(floor ? "floor budget" : "full budget");
    CancelToken token;
    token.arm_trip_after(3);
    CatEngine::Config config;
    if (floor) {
      config.cla_budget_bytes = min_cla_buffers(inner) * (fresh.cla_bytes_granted() / inner);
    }
    config.cancel = &token;
    CatEngine engine(instance.patterns, instance.model, *instance.tree, 4, config);
    EXPECT_THROW((void)engine.log_likelihood(edge), CancelledError);
    const memory::ClaStore& store = engine.cla_store();
    for (int slot = 0; slot < store.slot_count(); ++slot) {
      EXPECT_EQ(store.pin_count(slot), 0) << "slot " << slot;
    }

    token.reset();
    EXPECT_EQ(engine.log_likelihood(edge), fresh.log_likelihood(edge));
  }
}

TEST(CatEngine, SiteRateOptimizationFitsHeterogeneousData) {
  // Simulate strongly rate-heterogeneous data (Γ, α = 0.3) and check that
  // CAT per-site rate optimization (a) improves the likelihood markedly
  // over the rate-homogeneous start and (b) spreads the category rates.
  Rng rng(31);
  tree::Tree truth = simulate::yule_tree(10, rng, 0.8);
  model::GtrParams params;
  params.alpha = 0.3;
  const model::GtrModel gen_model(params);
  simulate::SimulationOptions sim;
  sim.sites = 3000;
  const auto alignment = simulate::simulate_alignment(truth, gen_model, sim, rng).alignment;
  const auto patterns = bio::compress_patterns(alignment);

  tree::Tree tree(truth);
  CatEngine engine(patterns, model::GtrModel(model::GtrParams::jc69()), tree, 8);
  // Homogeneous start: one effective rate.
  engine.set_categories({1.0}, std::vector<std::uint8_t>(patterns.pattern_count(), 0));
  double homogeneous = engine.optimize_all_branches(tree.tip(0), 4);

  // Re-arm with 8 categories and optimize per-site rates.
  CatEngine cat(patterns, model::GtrModel(model::GtrParams::jc69()), tree, 8);
  (void)cat.optimize_all_branches(tree.tip(0), 4);
  (void)cat.optimize_site_rates(tree.tip(0), 3);
  const double optimized = cat.optimize_all_branches(tree.tip(0), 4);
  EXPECT_GT(optimized, homogeneous + 50.0)
      << "per-site rates must fit alpha=0.3 data far better than a single rate";

  const auto& rates = cat.category_rates();
  const auto [min_it, max_it] = std::minmax_element(rates.begin(), rates.end());
  EXPECT_LT(*min_it, 0.5);
  EXPECT_GT(*max_it, 1.5);

  // Unit weighted mean rate after renormalization.
  double mean = 0.0;
  double total_weight = 0.0;
  for (std::size_t s = 0; s < patterns.pattern_count(); ++s) {
    mean += patterns.weights[s] * rates[cat.site_categories()[s]];
    total_weight += patterns.weights[s];
  }
  EXPECT_NEAR(mean / total_weight, 1.0, 1e-9);
}

TEST(CatEngine, SearchRunsUnderCat) {
  Rng rng(37);
  tree::Tree truth = simulate::yule_tree(8, rng, 0.7);
  model::GtrParams params;  // moderate heterogeneity (alpha = 1)
  const auto alignment =
      simulate::simulate_alignment(truth, model::GtrModel(params), {3000, false}, rng).alignment;
  const auto patterns = bio::compress_patterns(alignment);

  // Start from a parsimony tree, as the real RAxML-CAT pipeline does.
  tree::Tree tree = tree::parsimony_starting_tree(patterns, rng);
  CatEngine engine(patterns, model::GtrModel(model::GtrParams::jc69()), tree, 6);
  (void)engine.optimize_site_rates(tree.tip(0), 2);

  search::SearchOptions options;
  options.optimize_model = false;  // CAT: no alpha to optimize
  // Standard CAT practice (as in RAxML): alternate topology search with
  // per-site rate re-estimation, since rates fitted on a poor starting
  // topology cap the achievable likelihood.
  search::SearchResult result;
  for (int round = 0; round < 3; ++round) {
    result = search::run_tree_search(engine, tree, options);
    (void)engine.optimize_site_rates(tree.tip(0), 2);
  }
  result.log_likelihood = engine.optimize_all_branches(tree.tip(0), 4);
  EXPECT_LT(result.log_likelihood, 0.0);

  // The searched topology must at least match the likelihood of the truth
  // under the same CAT pipeline (and usually equals the truth).
  tree::Tree reference(truth);
  CatEngine reference_engine(patterns, model::GtrModel(model::GtrParams::jc69()), reference, 6);
  (void)reference_engine.optimize_site_rates(reference.tip(0), 2);
  const double reference_lnl = reference_engine.optimize_all_branches(reference.tip(0), 6);
  // Tolerance covers CAT rate-discretization differences between the two
  // independently fitted category sets.
  EXPECT_GE(result.log_likelihood, reference_lnl - 5.0);
  EXPECT_LE(tree::robinson_foulds(tree, truth), 4);
}

}  // namespace
}  // namespace miniphi::core
