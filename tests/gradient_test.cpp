// Correctness of the O(N) all-branch gradient (postorder + preorder two-pass
// sweep) and of the branch-optimizer safeguards that ride on it:
//
//  * every gradient entry matches the classic per-branch derivative protocol
//    (prepare_derivatives + derivatives) analytically, per ISA, with the
//    site-repeats path on and off;
//  * first derivatives match central finite differences of log_likelihood;
//  * pattern counts around the descent's slab width agree on every family,
//    budget and SDC setting;
//  * deep trees exercise the scaling path of the preorder partials;
//  * optimize_all_branches returns the log-likelihood of the tree it leaves
//    behind, and optimize_branch never commits an uphill-in-z,
//    downhill-in-lnL Newton iterate.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/core/partitioned.hpp"
#include "src/parallel/pool_parallel_for.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/search/spr_search.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

using testutil::random_alignment;
using testutil::random_gtr_params;

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::isa_supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::isa_supported(simd::Isa::kAvx512)) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

struct GradientCase {
  simd::Isa isa = simd::Isa::kScalar;
  bool site_repeats = false;
};

std::vector<GradientCase> gradient_cases() {
  std::vector<GradientCase> cases;
  for (const auto isa : supported_isas()) {
    cases.push_back({isa, false});
    cases.push_back({isa, true});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<GradientCase>& info) {
  return simd::to_string(info.param.isa) +
         std::string(info.param.site_repeats ? "_repeats" : "_dense");
}

// gtest's byte dump of the case, padding zeroed, so listed names are stable.
void PrintTo(const GradientCase& c, std::ostream* os) {
  testutil::print_zero_padded_bytes<GradientCase>(
      [&](GradientCase& out) {
        out.isa = c.isa;
        out.site_repeats = c.site_repeats;
      },
      os);
}

class AllBranchGradient : public ::testing::TestWithParam<GradientCase> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam().isa)) GTEST_SKIP() << "ISA unsupported";
  }
};

// The strongest check: the sweep's per-edge (ℓ', ℓ'') must agree with the
// classic two-endpoint derivative protocol on the *same* edge.  Both sides
// are analytic, so the tolerance is pure round-off.
TEST_P(AllBranchGradient, MatchesPerBranchDerivativeProtocol) {
  Rng rng(4101);
  const int ntaxa = 12;
  const auto alignment = random_alignment(ntaxa, 300, rng, /*ambiguity=*/0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam().isa;
  config.site_repeats = GetParam().site_repeats;
  LikelihoodEngine engine(patterns, model, tree, config);

  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(tree.tip(0), gradient));
  ASSERT_EQ(gradient.size(), static_cast<std::size_t>(tree.edge_count()));

  for (const BranchGradient& g : gradient) {
    engine.prepare_derivatives(g.edge);
    const auto [first, second] = engine.derivatives(g.edge->length);
    const double ftol = std::abs(first) * 1e-8 + 1e-7;
    const double stol = std::abs(second) * 1e-8 + 1e-7;
    EXPECT_NEAR(g.first, first, ftol) << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, stol) << "edge node " << g.edge->node_id;
  }
}

// First derivatives against central differences of the actual log-likelihood.
// h = 1e-4 keeps the FD truncation+cancellation noise near 1e-8 in absolute
// terms; branches are reset into [0.05, 1.0] so ℓ' stays O(1)-ish and the
// 1e-6 relative bound is meaningful.
TEST_P(AllBranchGradient, FirstDerivativeMatchesCentralDifferences) {
  Rng rng(977);
  const int ntaxa = 10;
  const auto alignment = random_alignment(ntaxa, 240, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  for (tree::Slot* edge : tree.edges()) {
    tree::Tree::set_length(edge, rng.uniform(0.05, 1.0));
  }

  LikelihoodEngine::Config config;
  config.isa = GetParam().isa;
  config.site_repeats = GetParam().site_repeats;
  LikelihoodEngine engine(patterns, model, tree, config);
  tree::Slot* root = tree.tip(0);

  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(root, gradient));

  const double h = 1e-4;
  for (const BranchGradient& g : gradient) {
    const double z = g.length;
    tree::Tree::set_length(g.edge, z + h);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);
    const double up = engine.log_likelihood(root);
    tree::Tree::set_length(g.edge, z - h);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);
    const double down = engine.log_likelihood(root);
    tree::Tree::set_length(g.edge, z);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);

    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(g.first, fd, std::abs(fd) * 1e-6 + 1e-6)
        << "edge node " << g.edge->node_id << " z=" << z;
  }
}

// Tiny branches (Newton's domain boundary) and a deep tree whose preorder
// partials must go through the 2^256 rescaling path.  FD is useless at both
// extremes, so compare against the per-branch analytic protocol.
TEST_P(AllBranchGradient, TinyBranchesAndDeepScaling) {
  Rng rng(5511);
  const int ntaxa = 300;  // deep enough that scaling fires in both passes
  const auto alignment = random_alignment(ntaxa, 40, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  // A few branches pinned to the domain floor.
  int pinned = 0;
  for (tree::Slot* edge : tree.edges()) {
    if (pinned < 8) {
      tree::Tree::set_length(edge, 1e-7);
      ++pinned;
    }
  }

  LikelihoodEngine::Config config;
  config.isa = GetParam().isa;
  config.site_repeats = GetParam().site_repeats;
  LikelihoodEngine engine(patterns, model, tree, config);

  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(tree.tip(0), gradient));
  ASSERT_EQ(gradient.size(), static_cast<std::size_t>(tree.edge_count()));

  for (const BranchGradient& g : gradient) {
    ASSERT_TRUE(std::isfinite(g.first) && std::isfinite(g.second))
        << "edge node " << g.edge->node_id;
    engine.prepare_derivatives(g.edge);
    const auto [first, second] = engine.derivatives(g.edge->length);
    EXPECT_NEAR(g.first, first, std::abs(first) * 1e-7 + 1e-5)
        << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, std::abs(second) * 1e-7 + 1e-5)
        << "edge node " << g.edge->node_id;
  }
}

// A tight CLA budget used to decline the descent (every postorder CLA is
// consumed after one up-front validation).  The preorder partials live on
// the descent's own stack and evicted postorder inputs are rebuilt in
// place, so the sweep *succeeds* on a tight budget and matches the
// full-budget gradient exactly (a recompute reruns identical kernels).
TEST(AllBranchGradientBudget, TightBudgetMatchesFullBudget) {
  Rng rng(31);
  const auto alignment = random_alignment(16, 100, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(16, rng);

  LikelihoodEngine::Config full_config;
  full_config.isa = simd::Isa::kScalar;
  LikelihoodEngine full(patterns, model, tree, full_config);
  std::vector<BranchGradient> reference;
  ASSERT_TRUE(full.gradient_all_branches(tree.tip(0), reference));

  // Six full-width buffers of per-site CLAs: a third of the inner nodes.
  LikelihoodEngine::Config config;
  config.isa = simd::Isa::kScalar;
  config.site_repeats = false;
  config.cla_budget_bytes =
      6 * full_width_cla_bytes(static_cast<std::int64_t>(patterns.pattern_count()), kSiteBlock);
  LikelihoodEngine engine(patterns, model, tree, config);
  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(tree.tip(0), gradient));
  ASSERT_EQ(gradient.size(), reference.size());
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    EXPECT_EQ(gradient[i].edge, reference[i].edge);
    EXPECT_EQ(gradient[i].first, reference[i].first)  // bitwise
        << "edge node " << gradient[i].edge->node_id;
    EXPECT_EQ(gradient[i].second, reference[i].second)
        << "edge node " << gradient[i].edge->node_id;
  }
  // The tight path really ran: the descent's postorder inputs were evicted
  // and rebuilt.
  EXPECT_GT(engine.cla_store().counters().evictions, 0);
}

// FD validation at the *minimum* postorder budget, where every eviction
// drops a CLA and its rebuild reruns the kernels: the strongest end of the satellite — gradients no longer decline, and they
// are still first derivatives of the actual log-likelihood.
TEST(AllBranchGradientBudget, MinimumBudgetFirstDerivativeMatchesFD) {
  Rng rng(977);
  const int ntaxa = 10;
  const auto alignment = random_alignment(ntaxa, 120, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  for (tree::Slot* edge : tree.edges()) {
    tree::Tree::set_length(edge, rng.uniform(0.05, 1.0));
  }

  LikelihoodEngine::Config config;
  config.isa = simd::Isa::kScalar;
  config.cla_budget_bytes =  // the floor
      min_cla_buffers(tree.inner_count()) *
      full_width_cla_bytes(static_cast<std::int64_t>(patterns.pattern_count()), kSiteBlock);
  LikelihoodEngine engine(patterns, model, tree, config);
  tree::Slot* root = tree.tip(0);

  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(root, gradient));
  ASSERT_EQ(gradient.size(), static_cast<std::size_t>(tree.edge_count()));

  const double h = 1e-4;
  for (const BranchGradient& g : gradient) {
    const double z = g.length;
    tree::Tree::set_length(g.edge, z + h);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);
    const double up = engine.log_likelihood(root);
    tree::Tree::set_length(g.edge, z - h);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);
    const double down = engine.log_likelihood(root);
    tree::Tree::set_length(g.edge, z);
    engine.invalidate_branch(g.edge->node_id);
    engine.invalidate_branch(g.edge->back->node_id);

    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(g.first, fd, std::abs(fd) * 1e-6 + 1e-6)
        << "edge node " << g.edge->node_id << " z=" << z;
  }
  EXPECT_GT(engine.cla_store().counters().evictions, 0);
}

// Satellite regression: the lnL returned by optimize_all_branches must be
// the likelihood of the tree it actually leaves behind — not a stale value
// from before the last in-place update.
TEST(BranchOptimizerRegression, OptimizeAllBranchesReturnsFreshLikelihood) {
  Rng rng(8088);
  const auto alignment = random_alignment(14, 200, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(14, rng);

  LikelihoodEngine engine(patterns, model, tree);
  tree::Slot* root = tree.tip(0);
  const double returned = engine.optimize_all_branches(root, 3);
  const double fresh = engine.log_likelihood(root);
  EXPECT_NEAR(returned, fresh, std::abs(fresh) * 1e-12 + 1e-9);
}

// Satellite regression: optimize_branch must never *lower* the likelihood,
// on any engine family.  The geometric uphill fallback (second ≥ 0) used to
// be committed unguarded; extreme starting lengths push Newton through
// exactly that path.  Seed 4533 is a case where the 4-category CAT engine
// lowered lnL before the one Newton optimizer gave every family the guard.
enum class EngineKind { kDense, kCat, kGeneral };

struct MonotoneCase {
  EngineKind family = EngineKind::kDense;
  int seed = 0;
};

void PrintTo(const MonotoneCase& c, std::ostream* os) {
  constexpr const char* kNames[] = {"dense", "cat", "general"};
  *os << kNames[static_cast<int>(c.family)] << "_" << c.seed;
}

std::string monotone_name(const ::testing::TestParamInfo<MonotoneCase>& info) {
  std::ostringstream name;
  PrintTo(info.param, &name);
  return name.str();
}

class BranchOptimizerMonotone : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(BranchOptimizerMonotone, OptimizeBranchIsMonotone) {
  Rng rng(static_cast<std::uint64_t>(GetParam().seed));
  const auto alignment = random_alignment(12, 150, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = random_gtr_params(rng);
  tree::Tree tree = tree::Tree::random(12, rng);

  std::unique_ptr<Evaluator> engine;
  switch (GetParam().family) {
    case EngineKind::kDense:
      engine = std::make_unique<LikelihoodEngine>(patterns, model::GtrModel(params), tree);
      break;
    case EngineKind::kCat:
      engine = std::make_unique<CatEngine>(patterns, model::GtrModel(params), tree,
                                           /*categories=*/4);
      break;
    case EngineKind::kGeneral:
      engine = std::make_unique<GeneralEngine>(
          patterns,
          model::GeneralModel(
              4,
              std::vector<double>(params.exchangeabilities.begin(),
                                  params.exchangeabilities.end()),
              std::vector<double>(params.frequencies.begin(), params.frequencies.end()),
              params.alpha),
          tree, bio::dna_code_masks());
      break;
  }
  tree::Slot* root = tree.tip(0);
  const double starts[] = {1e-8, 1e-5, 0.3, 5.0, 49.0};
  int which = 0;
  for (tree::Slot* edge : tree.edges()) {
    tree::Tree::set_length(edge, starts[which++ % 5]);
    engine->invalidate_branch(edge->node_id);
    engine->invalidate_branch(edge->back->node_id);
    const double before = engine->log_likelihood(root);
    engine->optimize_branch(edge);
    const double after = engine->log_likelihood(root);
    EXPECT_GE(after, before - std::abs(before) * 1e-10 - 1e-8)
        << "edge node " << edge->node_id << " start " << starts[(which - 1) % 5];
  }
}

INSTANTIATE_TEST_SUITE_P(Families, BranchOptimizerMonotone,
                         ::testing::Values(MonotoneCase{EngineKind::kDense, 4242},
                                           MonotoneCase{EngineKind::kDense, 4533},
                                           MonotoneCase{EngineKind::kCat, 4242},
                                           MonotoneCase{EngineKind::kCat, 4533},
                                           MonotoneCase{EngineKind::kGeneral, 4242},
                                           MonotoneCase{EngineKind::kGeneral, 4533}),
                         monotone_name);

INSTANTIATE_TEST_SUITE_P(Cases, AllBranchGradient, ::testing::ValuesIn(gradient_cases()),
                         case_name);

// Slab boundaries: the descent runs each op over kSdcChunkSites-site slabs
// with derivativeCore's sums carried across them, so pattern counts one
// below, at, one above and two slabs past the slab width must still give
// the per-branch protocol's derivatives and central differences, on every
// family, on the full budget and on the floor one (cases named
// "_minspill", from when the spill tier ran there; every eviction now
// drops and recomputes), with and without SDC checks (which fold the partials slab by slab).
enum class SlabFamily { kDense, kRepeats, kCat, kGeneral };

struct SlabCase {
  SlabFamily family = SlabFamily::kDense;
  int patterns = 0;
  bool minimum_budget = false;  ///< the floor budget
  bool sdc = false;
};

void PrintTo(const SlabCase& c, std::ostream* os) {
  constexpr const char* kNames[] = {"dense", "repeats", "cat", "general"};
  *os << kNames[static_cast<int>(c.family)] << "_" << c.patterns
      << (c.minimum_budget ? "_minspill" : "_full") << (c.sdc ? "_sdc" : "");
}

std::string slab_name(const ::testing::TestParamInfo<SlabCase>& info) {
  std::ostringstream name;
  PrintTo(info.param, &name);
  return name.str();
}

std::vector<SlabCase> slab_cases() {
  std::vector<SlabCase> cases;
  for (const SlabFamily family :
       {SlabFamily::kDense, SlabFamily::kRepeats, SlabFamily::kCat, SlabFamily::kGeneral}) {
    for (const int patterns : {511, 512, 513, 1031}) {
      for (const bool minimum_budget : {false, true}) {
        for (const bool sdc : {false, true}) cases.push_back({family, patterns, minimum_budget, sdc});
      }
    }
  }
  return cases;
}

class SlabBoundaryGradient : public ::testing::TestWithParam<SlabCase> {
 protected:
  static constexpr int kTaxa = 10;

  // Exactly GetParam().patterns patterns: the first ones of a compressed
  // random alignment, with their multiplicities.
  void SetUp() override {
    const SlabCase& c = GetParam();
    Rng rng(static_cast<std::uint64_t>(9100 + c.patterns));
    patterns_ = bio::compress_patterns(random_alignment(kTaxa, c.patterns + 64, rng, 0.05));
    ASSERT_GE(patterns_.pattern_count(), static_cast<std::size_t>(c.patterns));
    for (auto& row : patterns_.tip_rows) row.resize(static_cast<std::size_t>(c.patterns));
    patterns_.weights.resize(static_cast<std::size_t>(c.patterns));
    patterns_.site_to_pattern.clear();
    params_ = random_gtr_params(rng);
    tree_ = std::make_unique<tree::Tree>(tree::Tree::random(kTaxa, rng));
    for (tree::Slot* edge : tree_->edges()) {
      tree::Tree::set_length(edge, rng.uniform(0.05, 1.0));
    }

    std::int64_t budget_bytes = 0;
    if (c.minimum_budget) {
      // The floor in this family's full-width buffers (a full-budget
      // engine's grant is one per inner node).
      const int inner = tree_->inner_count();
      budget_bytes = min_cla_buffers(inner) * (make_engine(0)->cla_bytes_granted() / inner);
    }
    engine_ = make_engine(budget_bytes);
    ASSERT_TRUE(engine_->gradient_all_branches(tree_->tip(0), gradient_));
    ASSERT_EQ(gradient_.size(), static_cast<std::size_t>(tree_->edge_count()));
  }

  std::unique_ptr<Evaluator> make_engine(std::int64_t budget_bytes) {
    const SlabCase& c = GetParam();
    EngineConfig config;
    config.site_repeats = c.family == SlabFamily::kRepeats;
    config.sdc_checks = c.sdc;
    config.cla_budget_bytes = budget_bytes;
    switch (c.family) {
      case SlabFamily::kDense:
      case SlabFamily::kRepeats:
        return std::make_unique<LikelihoodEngine>(patterns_, model::GtrModel(params_), *tree_,
                                                  config);
      case SlabFamily::kCat:
        return std::make_unique<CatEngine>(patterns_, model::GtrModel(params_), *tree_,
                                           /*categories=*/4, config);
      case SlabFamily::kGeneral:
        break;
    }
    return std::make_unique<GeneralEngine>(
        patterns_,
        model::GeneralModel(4,
                            std::vector<double>(params_.exchangeabilities.begin(),
                                                params_.exchangeabilities.end()),
                            std::vector<double>(params_.frequencies.begin(),
                                                params_.frequencies.end()),
                            params_.alpha),
        *tree_, bio::dna_code_masks(), config);
  }

  bio::PatternSet patterns_;
  model::GtrParams params_;
  std::unique_ptr<tree::Tree> tree_;
  std::unique_ptr<Evaluator> engine_;
  std::vector<BranchGradient> gradient_;
};

TEST_P(SlabBoundaryGradient, MatchesPerBranchDerivativeProtocol) {
  for (const BranchGradient& g : gradient_) {
    engine_->prepare_derivatives(g.edge);
    const auto [first, second] = engine_->derivatives(g.edge->length);
    const double ftol = std::abs(first) * 1e-8 + 1e-7;
    const double stol = std::abs(second) * 1e-8 + 1e-7;
    EXPECT_NEAR(g.first, first, ftol) << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, stol) << "edge node " << g.edge->node_id;
  }
}

TEST_P(SlabBoundaryGradient, FirstDerivativeMatchesCentralDifferences) {
  tree::Slot* root = tree_->tip(0);
  const double h = 1e-4;
  const auto lnl_at = [&](tree::Slot* edge, double z) {
    tree::Tree::set_length(edge, z);
    engine_->invalidate_branch(edge->node_id);
    engine_->invalidate_branch(edge->back->node_id);
    return engine_->log_likelihood(root);
  };
  for (const BranchGradient& g : gradient_) {
    const double z = g.length;
    const double up = lnl_at(g.edge, z + h);
    const double down = lnl_at(g.edge, z - h);
    lnl_at(g.edge, z);
    const double fd = (up - down) / (2.0 * h);
    EXPECT_NEAR(g.first, fd, std::abs(fd) * 1e-6 + 1e-6)
        << "edge node " << g.edge->node_id << " z=" << z;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SlabBoundaryGradient, ::testing::ValuesIn(slab_cases()),
                         slab_name);

// The CAT engine keeps one CLA per inner node, so its sweep never declines;
// its gradient must match the per-branch protocol like the dense engine's.
TEST(AllBranchGradientEngines, CatMatchesPerBranchProtocol) {
  Rng rng(6201);
  const int ntaxa = 10;
  const auto alignment = random_alignment(ntaxa, 200, rng, /*ambiguity=*/0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  CatEngine engine(patterns, model, tree, /*categories=*/4);
  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(tree.tip(0), gradient));
  ASSERT_EQ(gradient.size(), static_cast<std::size_t>(tree.edge_count()));
  for (const BranchGradient& g : gradient) {
    engine.prepare_derivatives(g.edge);
    const auto [first, second] = engine.derivatives(g.edge->length);
    EXPECT_NEAR(g.first, first, std::abs(first) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, std::abs(second) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
  }
}

// DNA data through the general (arbitrary state count) engine: same
// contract, runtime geometry instead of the 4-state fast path.
TEST(AllBranchGradientEngines, GeneralMatchesPerBranchProtocol) {
  Rng rng(6301);
  const int ntaxa = 10;
  const auto alignment = random_alignment(ntaxa, 160, rng, /*ambiguity=*/0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = random_gtr_params(rng);
  const model::GeneralModel model(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  GeneralEngine engine(patterns, model, tree, bio::dna_code_masks());
  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(tree.tip(0), gradient));
  ASSERT_EQ(gradient.size(), static_cast<std::size_t>(tree.edge_count()));
  for (const BranchGradient& g : gradient) {
    engine.prepare_derivatives(g.edge);
    const auto [first, second] = engine.derivatives(g.edge->length);
    EXPECT_NEAR(g.first, first, std::abs(first) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, std::abs(second) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
  }
}

// Partitioned: the summed gradient must equal the evaluator's own derivative
// protocol, and must be bit-identical between the serial path and pooled
// 3-stream dispatch (each partition's sweep runs whole inside one stream
// task, and the per-edge sums fold in fixed partition order).
TEST(AllBranchGradientEngines, PartitionedSumsAndSchedulesBitIdentical) {
  Rng rng(6401);
  const int ntaxa = 12;
  const auto alignment = random_alignment(ntaxa, 300, rng);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  const auto specs = even_partitions(static_cast<std::int64_t>(alignment.site_count()), 3);

  PartitionedEvaluator serial(alignment, specs, model, tree);
  StreamPlan plan;
  plan.stream_count = 3;
  plan.partition_stream = {0, 1, 2};
  parallel::WorkerPool pool(3);
  parallel::PoolParallelFor parallel_for(pool);
  PartitionedEvaluator pooled(alignment, specs, model, tree, {}, plan);
  pooled.set_parallel_for(&parallel_for);

  std::vector<BranchGradient> a;
  std::vector<BranchGradient> b;
  ASSERT_TRUE(serial.gradient_all_branches(tree.tip(0), a));
  ASSERT_TRUE(pooled.gradient_all_branches(tree.tip(0), b));
  EXPECT_EQ(pooled.stream_counters().regions, 1);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(tree.edge_count()));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edge, b[i].edge);
    EXPECT_EQ(a[i].first, b[i].first) << "edge node " << a[i].edge->node_id;  // bitwise
    EXPECT_EQ(a[i].second, b[i].second) << "edge node " << a[i].edge->node_id;
  }
  for (const BranchGradient& g : a) {
    serial.prepare_derivatives(g.edge);
    const auto [first, second] = serial.derivatives(g.edge->length);
    EXPECT_NEAR(g.first, first, std::abs(first) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
    EXPECT_NEAR(g.second, second, std::abs(second) * 1e-8 + 1e-7)
        << "edge node " << g.edge->node_id;
  }
}

// The gradient smoother must land on (at least) the same final likelihood as
// the classic per-branch Newton sweep from the same starting point.
TEST(GradientSmoother, MatchesNewtonOnlySmoothing) {
  const auto make_tree = [](Rng& rng, int ntaxa) {
    tree::Tree tree = tree::Tree::random(ntaxa, rng);
    return tree;
  };
  Rng data_rng(7707);
  const int ntaxa = 12;
  const auto alignment = random_alignment(ntaxa, 250, data_rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(data_rng));

  // Same tree twice (same seed), one engine per path.
  Rng tree_rng_a(991);
  tree::Tree tree_a = make_tree(tree_rng_a, ntaxa);
  Rng tree_rng_b(991);
  tree::Tree tree_b = make_tree(tree_rng_b, ntaxa);

  LikelihoodEngine newton_engine(patterns, model, tree_a);
  const double newton_lnl = newton_engine.optimize_all_branches(tree_a.tip(0), 3);

  LikelihoodEngine gradient_engine(patterns, model, tree_b);
  const double smooth_lnl =
      search::smooth_branches(gradient_engine, tree_b, tree_b.tip(0), 3);

  EXPECT_TRUE(std::isfinite(smooth_lnl));
  // The smoother self-reports honestly: its return must be the fresh lnL of
  // the tree it leaves behind.
  EXPECT_NEAR(smooth_lnl, gradient_engine.log_likelihood(tree_b.tip(0)),
              std::abs(smooth_lnl) * 1e-12 + 1e-9);
  // And it must not lose meaningful likelihood against Newton-only.
  EXPECT_GE(smooth_lnl, newton_lnl - 0.05);
}

}  // namespace
}  // namespace miniphi::core
