// End-to-end correctness of the likelihood engine against an independent
// brute-force Felsenstein implementation, plus the likelihood invariants the
// paper's computation relies on (virtual-root invariance, scaling,
// compression, slicing, derivative consistency).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/core/engine.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/model/general.hpp"
#include "src/tree/moves.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

using testutil::brute_force_log_likelihood;
using testutil::random_alignment;
using testutil::random_gtr_params;

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::isa_supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::isa_supported(simd::Isa::kAvx512)) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

class EngineVsBruteForce : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineVsBruteForce, MatchesReferenceOnRandomInstances) {
  const auto [ntaxa, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const auto alignment = random_alignment(ntaxa, 120, rng, /*ambiguity=*/0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  const double reference = brute_force_log_likelihood(tree, patterns, model);
  for (const auto isa : supported_isas()) {
    LikelihoodEngine::Config config;
    config.isa = isa;
    LikelihoodEngine engine(patterns, model, tree, config);
    const double value = engine.log_likelihood(tree.tip(0));
    EXPECT_NEAR(value, reference, std::abs(reference) * 1e-10 + 1e-8)
        << "isa=" << simd::to_string(isa);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, EngineVsBruteForce,
    ::testing::Combine(::testing::Values(3, 4, 5, 8, 15, 24), ::testing::Range(0, 3)));

class EngineInvariants : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam())) GTEST_SKIP() << "ISA not supported on this host";
  }
};

TEST_P(EngineInvariants, VirtualRootPlacementInvariance) {
  // The pulley principle: under a reversible model the likelihood does not
  // depend on which branch carries the virtual root (paper Section IV).
  Rng rng(2024);
  const auto alignment = random_alignment(10, 200, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);
  const double reference = engine.log_likelihood(tree.tip(0));
  for (tree::Slot* edge : tree.edges()) {
    const double value = engine.log_likelihood(edge);
    EXPECT_NEAR(value, reference, std::abs(reference) * 1e-11 + 1e-9);
  }
}

TEST_P(EngineInvariants, PatternCompressionPreservesLikelihood) {
  Rng rng(7);
  const auto alignment = random_alignment(4, 300, rng, 0.1);
  const auto compressed = bio::compress_patterns(alignment);
  const auto uncompressed = bio::uncompressed_patterns(alignment);
  ASSERT_LT(compressed.pattern_count(), uncompressed.pattern_count());

  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(4, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine_c(compressed, model, tree, config);
  LikelihoodEngine engine_u(uncompressed, model, tree, config);
  const double a = engine_c.log_likelihood(tree.tip(0));
  const double b = engine_u.log_likelihood(tree.tip(0));
  EXPECT_NEAR(a, b, std::abs(a) * 1e-11 + 1e-9);
}

TEST_P(EngineInvariants, ScalingTriggersOnDeepTreesAndStaysFinite) {
  // A long caterpillar drives CLA magnitudes below 2^-256; without scaling
  // the likelihood would underflow to -inf.
  Rng rng(31337);
  const int ntaxa = 600;
  const auto alignment = random_alignment(ntaxa, 8, rng);
  const auto patterns = bio::uncompressed_patterns(alignment);
  const model::GtrModel model(model::GtrParams::jc69(0.8));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);
  const double value = engine.log_likelihood(tree.tip(0));
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_LT(value, 0.0);

  // Cross-check against the scalar back-end (also scaled, independently run).
  LikelihoodEngine::Config scalar_config;
  scalar_config.isa = simd::Isa::kScalar;
  LikelihoodEngine scalar_engine(patterns, model, tree, scalar_config);
  const double reference = scalar_engine.log_likelihood(tree.tip(0));
  EXPECT_NEAR(value, reference, std::abs(reference) * 1e-10);
}

TEST_P(EngineInvariants, SliceDecompositionSumsToWhole) {
  // Two engines over complementary pattern slices reproduce the full
  // likelihood — the exact contract of the fork-join and MPI partitions.
  Rng rng(55);
  const auto alignment = random_alignment(12, 257, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(12, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine whole(patterns, model, tree, config);
  const double full = whole.log_likelihood(tree.tip(0));

  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  for (const std::int64_t cut : {std::int64_t{1}, npat / 3, npat / 2, npat - 1}) {
    LikelihoodEngine::Config low = config;
    low.begin = 0;
    low.end = cut;
    LikelihoodEngine::Config high = config;
    high.begin = cut;
    high.end = npat;
    LikelihoodEngine engine_low(patterns, model, tree, low);
    LikelihoodEngine engine_high(patterns, model, tree, high);
    const double sum =
        engine_low.log_likelihood(tree.tip(0)) + engine_high.log_likelihood(tree.tip(0));
    EXPECT_NEAR(sum, full, std::abs(full) * 1e-11 + 1e-9) << "cut=" << cut;
  }
}

TEST_P(EngineInvariants, DerivativesMatchFiniteDifferences) {
  Rng rng(404);
  const auto alignment = random_alignment(9, 150, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(9, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);

  for (tree::Slot* edge : tree.edges()) {
    engine.prepare_derivatives(edge);
    const double z = edge->length;
    const auto [first, second] = engine.derivatives(z);

    const double h = 1e-6;
    const auto eval_at = [&](double value) {
      tree::Tree::set_length(edge, value);
      // The branch between the two endpoint CLAs does not enter either CLA,
      // so no invalidation is needed — evaluate() sees the new length.
      const double result = engine.log_likelihood(edge);
      tree::Tree::set_length(edge, z);
      return result;
    };
    const double plus = eval_at(z + h);
    const double minus = eval_at(z - h);
    EXPECT_NEAR(first, (plus - minus) / (2 * h), 1e-3 * (1.0 + std::abs(first)));

    // Second derivative needs a wider stencil: with h = 1e-6 the O(ε/h²)
    // cancellation noise would dominate.
    const double h2 = 1e-4;
    const double plus2 = eval_at(z + h2);
    const double minus2 = eval_at(z - h2);
    const double base = eval_at(z);
    EXPECT_NEAR(second, (plus2 - 2 * base + minus2) / (h2 * h2),
                2e-2 * (1.0 + std::abs(second)));
  }
}

TEST_P(EngineInvariants, BranchOptimizationImprovesLikelihood) {
  Rng rng(777);
  const auto alignment = random_alignment(10, 250, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);
  const double before = engine.log_likelihood(tree.tip(0));
  double previous = before;
  // Coordinate ascent: every smoothing pass must be monotone non-decreasing.
  for (int pass = 0; pass < 16; ++pass) {
    const double current = engine.optimize_all_branches(tree.tip(0), 1);
    EXPECT_GE(current, previous - 1e-7) << "pass " << pass;
    previous = current;
  }
  EXPECT_GE(previous, before - 1e-9);

  // Near the joint optimum every branch derivative must be ~0 (or pinned).
  for (tree::Slot* edge : tree.edges()) {
    engine.prepare_derivatives(edge);
    const auto [first, _] = engine.derivatives(edge->length);
    if (edge->length > kMinBranchLength * 2 && edge->length < kMaxBranchLength / 2) {
      EXPECT_NEAR(first, 0.0, 0.05) << "branch " << edge->slot_index;
    }
  }
}

TEST_P(EngineInvariants, OpenMpModeMatchesSerial) {
  Rng rng(606);
  const auto alignment = random_alignment(11, 400, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(11, rng);

  LikelihoodEngine::Config serial;
  serial.isa = GetParam();
  LikelihoodEngine engine_serial(patterns, model, tree, serial);

  LikelihoodEngine::Config parallel = serial;
  parallel.use_openmp = true;
  LikelihoodEngine engine_parallel(patterns, model, tree, parallel);

  const double a = engine_serial.log_likelihood(tree.tip(0));
  const double b = engine_parallel.log_likelihood(tree.tip(0));
  EXPECT_NEAR(a, b, std::abs(a) * 1e-11 + 1e-9);
}

TEST_P(EngineInvariants, TopologyChangeInvalidationIsRespected) {
  // NNI deep inside the tree, with explicit invalidation of the touched
  // nodes: likelihood must equal a freshly built engine on the same topology.
  Rng rng(8888);
  const auto alignment = random_alignment(12, 180, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(12, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));  // populate all CLAs

  // Find an internal edge and apply an NNI.
  tree::Slot* internal = nullptr;
  for (tree::Slot* edge : tree.edges()) {
    if (!edge->is_tip() && !edge->back->is_tip()) {
      internal = edge;
      break;
    }
  }
  ASSERT_NE(internal, nullptr);
  ASSERT_TRUE(tree::nni(tree, internal, 0));
  engine.invalidate_node(internal->node_id);
  engine.invalidate_node(internal->back->node_id);

  const double incremental = engine.log_likelihood(tree.tip(0));
  LikelihoodEngine fresh(patterns, model, tree, config);
  const double scratch = fresh.log_likelihood(tree.tip(0));
  EXPECT_NEAR(incremental, scratch, std::abs(scratch) * 1e-11 + 1e-9);
}

TEST_P(EngineInvariants, StatsCountKernelInvocations) {
  Rng rng(12);
  const auto alignment = random_alignment(6, 64, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(6, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  config.site_repeats = false;
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  // Full traversal: all inner CLAs (n-2 = 4) computed once, one evaluate.
  EXPECT_EQ(engine.stats(Kernel::kNewview).calls, 4);
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 1);
  EXPECT_EQ(engine.stats(Kernel::kNewview).sites,
            4 * static_cast<std::int64_t>(patterns.pattern_count()));

  // Second call with no changes: everything cached except evaluate.
  (void)engine.log_likelihood(tree.tip(0));
  EXPECT_EQ(engine.stats(Kernel::kNewview).calls, 4);
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 2);

  engine.reset_stats();
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 0);
}

TEST_P(EngineInvariants, RepeatsStatsCountKernelInvocations) {
  // The site-repeats twin: same invocation counts, but newview computes at
  // most the sites it represents (one block per unique class).
  Rng rng(12);
  const auto alignment = random_alignment(6, 64, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(6, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  config.site_repeats = true;
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  EXPECT_EQ(engine.stats(Kernel::kNewview).calls, 4);
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 1);
  EXPECT_EQ(engine.stats(Kernel::kNewview).sites_represented, 4 * npat);
  EXPECT_GT(engine.stats(Kernel::kNewview).sites, 0);
  EXPECT_LE(engine.stats(Kernel::kNewview).sites, engine.stats(Kernel::kNewview).sites_represented);
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).sites, npat);

  (void)engine.log_likelihood(tree.tip(0));
  EXPECT_EQ(engine.stats(Kernel::kNewview).calls, 4);
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 2);

  engine.reset_stats();
  EXPECT_EQ(engine.stats(Kernel::kEvaluate).calls, 0);
}

TEST_P(EngineInvariants, RandomMoveStressAgainstFreshEngine) {
  // Long random sequence of SPR and NNI moves with incremental invalidation;
  // after every move the incrementally maintained likelihood must equal a
  // freshly built engine's.  This is the strongest test of the orientation /
  // invalidation machinery the search relies on.
  Rng rng(13579);
  const auto alignment = random_alignment(14, 120, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(14, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  for (int step = 0; step < 60; ++step) {
    const bool do_nni = rng.below(2) == 0;
    if (do_nni) {
      // Random internal edge.
      std::vector<tree::Slot*> internal;
      for (tree::Slot* e : tree.edges()) {
        if (!e->is_tip() && !e->back->is_tip()) internal.push_back(e);
      }
      tree::Slot* edge = internal[rng.below(internal.size())];
      ASSERT_TRUE(tree::nni(tree, edge, static_cast<int>(rng.below(2))));
      engine.invalidate_node(edge->node_id);
      engine.invalidate_node(edge->back->node_id);
    } else {
      // Random SPR: prune a random inner slot's subtree, regraft somewhere.
      const int inner = static_cast<int>(rng.below(static_cast<std::uint64_t>(tree.inner_count())));
      tree::Slot* p = tree.inner_slot(inner, static_cast<int>(rng.below(3)));
      const auto record = tree::prune(tree, p);
      engine.invalidate_node(record.left->node_id);
      engine.invalidate_node(record.right->node_id);
      engine.invalidate_node(p->node_id);
      const auto candidates = tree::insertion_candidates(record, 4);
      if (candidates.empty()) {
        tree::undo_prune(tree, record);
        engine.invalidate_node(record.left->node_id);
        engine.invalidate_node(record.right->node_id);
        continue;
      }
      tree::Slot* e = candidates[rng.below(candidates.size())];
      tree::Slot* other = e->back;
      tree::regraft(tree, record, e, rng.uniform(0.2, 0.8));
      engine.invalidate_node(e->node_id);
      engine.invalidate_node(other->node_id);
      engine.invalidate_node(p->node_id);
    }
    // Also perturb a random branch length.
    if (step % 3 == 0) {
      tree::Slot* edge = tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
      tree::Tree::set_length(edge, rng.uniform(0.01, 1.0));
      engine.invalidate_node(edge->node_id);
      engine.invalidate_node(edge->back->node_id);
    }
    tree.validate();

    // Evaluate at a random edge; compare with a from-scratch engine.
    tree::Slot* root = tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
    const double incremental = engine.log_likelihood(root);
    LikelihoodEngine fresh(patterns, model, tree, config);
    const double scratch = fresh.log_likelihood(root);
    ASSERT_NEAR(incremental, scratch, std::abs(scratch) * 1e-10 + 1e-8) << "step " << step;
  }
}

TEST_P(EngineInvariants, RecomputationModeMatchesFullBudget) {
  // The memory-saving mode (Section V-A's unsupported technique, citing
  // Izquierdo-Carrasco et al.): with a small CLA buffer budget the engine
  // evicts and recomputes CLAs; results must be identical, only slower.
  Rng rng(24680);
  const auto alignment = random_alignment(32, 150, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(32, rng);

  LikelihoodEngine::Config full_config;
  full_config.isa = GetParam();
  // Per-site buffers, so a byte budget of k full-width buffers holds k CLAs.
  full_config.site_repeats = false;
  const std::int64_t buffer_bytes = full_width_cla_bytes(
      static_cast<std::int64_t>(patterns.pattern_count()), kSiteBlock);

  for (const int budget : {6, 10, 15}) {
    // Fresh engines so kernel-call counters compare identical workloads.
    LikelihoodEngine full(patterns, model, tree, full_config);
    LikelihoodEngine::Config tight_config = full_config;
    tight_config.cla_budget_bytes = budget * buffer_bytes;
    LikelihoodEngine tight(patterns, model, tree, tight_config);
    EXPECT_EQ(tight.cla_bytes_granted(), budget * buffer_bytes);
    EXPECT_EQ(full.cla_bytes_granted(), tree.inner_count() * buffer_bytes);

    // Evaluate at several scattered edges: identical likelihoods...
    const auto edges = tree.edges();
    for (const std::size_t index : {std::size_t{0}, edges.size() / 2, edges.size() - 1}) {
      const double expected = full.log_likelihood(edges[index]);
      const double actual = tight.log_likelihood(edges[index]);
      ASSERT_NEAR(actual, expected, std::abs(expected) * 1e-12 + 1e-10)
          << "budget " << budget << " edge " << index;
    }
    // ...with eviction visible as extra (recomputation) newview work —
    // guaranteed under the tightest budget, never *less* work otherwise.
    EXPECT_GE(tight.stats(Kernel::kNewview).calls, full.stats(Kernel::kNewview).calls)
        << "budget " << budget;
    if (budget == 6) {
      EXPECT_GT(tight.stats(Kernel::kNewview).calls, full.stats(Kernel::kNewview).calls);
    }
  }
}

TEST_P(EngineInvariants, RecomputationSurvivesBranchOptimization) {
  Rng rng(11111);
  const auto alignment = random_alignment(20, 120, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree_full = tree::Tree::random(20, rng);
  tree::Tree tree_tight(tree_full);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  config.site_repeats = false;
  LikelihoodEngine full(patterns, model, tree_full, config);
  LikelihoodEngine::Config tight_config = config;
  tight_config.cla_budget_bytes =
      6 * full_width_cla_bytes(static_cast<std::int64_t>(patterns.pattern_count()), kSiteBlock);
  LikelihoodEngine tight(patterns, model, tree_tight, tight_config);

  const double lnl_full = full.optimize_all_branches(tree_full.tip(0), 2);
  const double lnl_tight = tight.optimize_all_branches(tree_tight.tip(0), 2);
  EXPECT_NEAR(lnl_full, lnl_tight, std::abs(lnl_full) * 1e-10 + 1e-8);
  for (int i = 0; i < tree_full.slot_count(); ++i) {
    EXPECT_NEAR(tree_full.slot(i)->length, tree_tight.slot(i)->length, 1e-9);
  }
}

TEST(EngineBudget, RejectsBudgetBelowMinimum) {
  Rng rng(9);
  const auto alignment = random_alignment(10, 50, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);
  LikelihoodEngine::Config config;
  const std::int64_t buffer_bytes =
      full_width_cla_bytes(static_cast<std::int64_t>(patterns.pattern_count()), kSiteBlock);
  config.cla_budget_bytes = (min_cla_buffers(tree.inner_count()) - 1) * buffer_bytes;
  EXPECT_THROW(LikelihoodEngine(patterns, model, tree, config), Error);
  config.cla_budget_bytes += buffer_bytes;
  EXPECT_NO_THROW(LikelihoodEngine(patterns, model, tree, config));
}

TEST(LikelihoodEngine, CancellationReleasesPinsAndLeavesTheEngineReusable) {
  // The dense family's twin of the CAT and general cancellation tests: at
  // the minimum working set and at the full budget, a token
  // tripped mid-traversal unwinds log_likelihood with CancelledError, every
  // pin the plan executor took is dropped on the way out, and the engine's
  // next (uncancelled) call matches a fresh engine bit for bit.
  Rng rng(45);
  const auto alignment = random_alignment(12, 140, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(12, rng);
  const int inner = tree.inner_count();
  LikelihoodEngine fresh(patterns, model, tree);
  for (const bool floor : {true, false}) {
    SCOPED_TRACE(floor ? "floor budget" : "full budget");
    CancelToken token;
    token.arm_trip_after(3);
    LikelihoodEngine::Config config;
    if (floor) {
      config.cla_budget_bytes = min_cla_buffers(inner) * (fresh.cla_bytes_granted() / inner);
    }
    config.cancel = &token;
    LikelihoodEngine engine(patterns, model, tree, config);
    EXPECT_THROW((void)engine.log_likelihood(tree.tip(0)), CancelledError);
    const memory::ClaStore& store = engine.cla_store();
    for (int slot = 0; slot < store.slot_count(); ++slot) {
      EXPECT_EQ(store.pin_count(slot), 0) << "slot " << slot;
    }

    token.reset();
    EXPECT_EQ(engine.log_likelihood(tree.tip(0)), fresh.log_likelihood(tree.tip(0)));
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, EngineInvariants,
                         ::testing::Values(simd::Isa::kScalar, simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const auto& param_info) { return simd::to_string(param_info.param); });

// --- Store mode is invisible end to end ------------------------------------
//
// KernelTuning::streaming_stores only changes where the kernels' stores
// land, and the serial newview/derivativeSum paths run in fixed chunks
// whatever the configuration.  Every engine family and configuration must
// therefore give EXPECT_EQ-identical likelihoods, all-branch gradients and
// optimized likelihoods with streaming on and off.

struct StoreModeRun {
  double lnl = 0.0;
  std::vector<BranchGradient> gradient;
  double optimized = 0.0;
};

template <typename MakeEvaluator>
StoreModeRun run_store_mode(const tree::Tree& base_tree, const MakeEvaluator& make, bool stream) {
  tree::Tree tree(base_tree);
  EngineConfig config;
  config.tuning.streaming_stores = stream;
  auto evaluator = make(tree, config);
  StoreModeRun run;
  run.lnl = evaluator->log_likelihood(tree.tip(0));
  EXPECT_TRUE(evaluator->gradient_all_branches(tree.tip(0), run.gradient));
  run.optimized = evaluator->optimize_all_branches(tree.tip(0), 1);
  return run;
}

template <typename MakeEvaluator>
void expect_store_modes_identical(const tree::Tree& base_tree, const MakeEvaluator& make,
                                  const std::string& context) {
  const StoreModeRun plain = run_store_mode(base_tree, make, /*stream=*/false);
  const StoreModeRun streamed = run_store_mode(base_tree, make, /*stream=*/true);
  EXPECT_EQ(plain.lnl, streamed.lnl) << context;
  EXPECT_EQ(plain.optimized, streamed.optimized) << context;
  ASSERT_EQ(plain.gradient.size(), streamed.gradient.size()) << context;
  for (std::size_t i = 0; i < plain.gradient.size(); ++i) {
    EXPECT_EQ(plain.gradient[i].length, streamed.gradient[i].length) << context << " edge " << i;
    EXPECT_EQ(plain.gradient[i].first, streamed.gradient[i].first) << context << " edge " << i;
    EXPECT_EQ(plain.gradient[i].second, streamed.gradient[i].second) << context << " edge " << i;
  }
}

struct StoreModeData {
  bio::PatternSet patterns;
  model::GtrModel model;
  tree::Tree tree;
};

StoreModeData store_mode_data(std::uint64_t seed) {
  Rng rng(seed);
  // ~1,100 patterns: two full 512-site chunks plus an odd-width tail.
  const auto alignment = random_alignment(16, 1100, rng, /*ambiguity=*/0.05);
  model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(16, rng);
  return {bio::compress_patterns(alignment), std::move(model), std::move(tree)};
}

TEST(StoreModes, DenseEngineIsBitIdentical) {
  const StoreModeData data = store_mode_data(1201);
  struct Variant {
    const char* name;
    bool repeats;
    bool sdc;
    int budget;  ///< full-width CLA buffers; 0 = the full budget
  };
  const std::int64_t buffer_bytes =
      full_width_cla_bytes(static_cast<std::int64_t>(data.patterns.pattern_count()), kSiteBlock);
  for (const Variant variant : {Variant{"plain", false, false, 0},
                                Variant{"site_repeats", true, false, 0},
                                Variant{"sdc_checks", false, true, 0},
                                Variant{"tight_budget", false, false, 6}}) {
    const auto make = [&](tree::Tree& tree, EngineConfig config) {
      config.site_repeats = variant.repeats;
      config.sdc_checks = variant.sdc;
      config.cla_budget_bytes = variant.budget * buffer_bytes;
      return std::make_unique<LikelihoodEngine>(data.patterns, data.model, tree, config);
    };
    expect_store_modes_identical(data.tree, make, std::string("dense ") + variant.name);
  }
}

TEST(StoreModes, CatEngineIsBitIdentical) {
  const StoreModeData data = store_mode_data(1202);
  const auto make = [&](tree::Tree& tree, const EngineConfig& config) {
    return make_evaluator(data.patterns, data.model, tree, /*categories=*/4, config);
  };
  expect_store_modes_identical(data.tree, make, "cat");
}

TEST(StoreModes, GeneralEngineIsBitIdentical) {
  const StoreModeData data = store_mode_data(1203);
  const model::GeneralModel model(4, {1.0, 2.5, 0.7, 1.1, 3.0, 1.0}, {0.3, 0.2, 0.25, 0.25},
                                  0.8);
  const auto make = [&](tree::Tree& tree, const EngineConfig& config) {
    return make_evaluator(data.patterns, model, tree, bio::dna_code_masks(), config);
  };
  expect_store_modes_identical(data.tree, make, "general");
}

}  // namespace
}  // namespace miniphi::core
