// Tests for the silent-data-corruption defense (DESIGN.md §10): CLA
// checksums with plan-driven self-healing recompute in every engine, the
// non-finite-output sentinels with bounded retry and escalation, partition-
// level healing, the cross-rank agreement vote in the distributed
// evaluator, and the deterministic kFlipClaBits / kCorruptReduction fault
// injections end-to-end through the ExaML driver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/core/partitioned.hpp"
#include "src/core/sdc.hpp"
#include "src/examl/driver.hpp"
#include "src/minimpi/faults.hpp"
#include "src/obs/report.hpp"
#include "src/simulate/simulate.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::isa_supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::isa_supported(simd::Isa::kAvx512)) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

// The fused verify path (DESIGN.md §10) relies on two properties of the
// lane-structured checksum: every back-end folds the same value, and
// split-range accumulation matches one whole-range sweep (the engine
// checksums in kSdcChunkSites chunks interleaved with kernel execution).
TEST(ClaChecksum, BackendsAndChunkingAgreeWithScalarReference) {
  constexpr std::int64_t kSites = 1237;  // deliberately not a multiple of 8
  std::vector<double> cla(static_cast<std::size_t>(kSites) * kSiteBlock);
  std::vector<std::int32_t> scales(static_cast<std::size_t>(kSites));
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  };
  for (auto& v : cla) v = static_cast<double>(next() >> 11) * 0x1.0p-53;
  for (auto& sc : scales) sc = static_cast<std::int32_t>(next() & 7);

  sdc::ClaChecksum reference;
  reference.update(cla.data(), scales.data(), 0, kSites);
  const std::uint64_t expected = reference.finish();

  for (const auto isa : supported_isas()) {
    const KernelOps ops = get_kernel_ops(isa);
    ASSERT_NE(ops.cla_checksum, nullptr);

    sdc::ClaChecksum whole;
    ops.cla_checksum(whole, cla.data(), scales.data(), 0, kSites);
    EXPECT_EQ(whole.finish(), expected) << "whole-range, isa " << static_cast<int>(isa);

    // Chunked accumulation at both the engine's chunk size and an awkward
    // odd width that exercises the vector back-ends' head/tail handling.
    for (const std::int64_t chunk : {std::int64_t{512}, std::int64_t{53}}) {
      sdc::ClaChecksum split;
      for (std::int64_t b = 0; b < kSites; b += chunk) {
        ops.cla_checksum(split, cla.data(), scales.data(), b, std::min(kSites, b + chunk));
      }
      EXPECT_EQ(split.finish(), expected)
          << "chunk " << chunk << ", isa " << static_cast<int>(isa);
    }
  }

  // Single-bit sensitivity: flipping any one bit changes exactly one term of
  // one lane's fold chain, which the distinct-rotation finish cannot cancel.
  std::uint64_t bits;
  std::memcpy(&bits, &cla[12345], sizeof(bits));
  bits ^= 1ULL << 17;
  std::memcpy(&cla[12345], &bits, sizeof(bits));
  sdc::ClaChecksum flipped;
  flipped.update(cla.data(), scales.data(), 0, kSites);
  EXPECT_NE(flipped.finish(), expected);

  scales[7] ^= 1;
  sdc::ClaChecksum flipped_scale;
  flipped_scale.update(cla.data(), scales.data(), 0, kSites);
  EXPECT_NE(flipped_scale.finish(), flipped.finish());
}

/// Corrupts `node` on `engine` after committing CLAs at `edge`, re-evaluates
/// at the same edge, and asserts the full heal contract: exactly one
/// detection, exactly one heal, no escalation, a recompute localized to the
/// corrupted node (not a full traversal), and a final value bit-identical
/// to `expected` from a clean engine.
template <typename Engine>
void expect_detect_and_heal(Engine& engine, tree::Slot* edge, int node, double expected,
                            const std::string& context) {
  (void)engine.log_likelihood(edge);  // commit + checksum CLAs at this root edge
  ASSERT_TRUE(engine.corrupt_cla_for_testing(node, /*word=*/37 + node, /*bit=*/node))
      << context << ": node " << node << " has no resident CLA";

  const sdc::Counters before = engine.sdc_counters();
  const std::int64_t newviews_before = engine.stats().kernel(Kernel::kNewview).calls;
  const double healed = engine.log_likelihood(edge);
  const sdc::Counters after = engine.sdc_counters();

  EXPECT_EQ(after.hits, before.hits + 1) << context;
  EXPECT_EQ(after.heals, before.heals + 1) << context;
  EXPECT_EQ(after.escalations, before.escalations) << context;
  // Localized recompute: healing one corrupted CLA re-runs newview for that
  // node alone, not the whole subtree below the root edge.
  EXPECT_EQ(engine.stats().kernel(Kernel::kNewview).calls - newviews_before, 1) << context;
  // The recompute replays the identical kernels on identical inputs, so the
  // healed value is bit-identical to the never-corrupted one.
  EXPECT_EQ(healed, expected) << context;
}

class DenseSdcTest : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam())) GTEST_SKIP() << "ISA unsupported";
  }
};

TEST_P(DenseSdcTest, HealsCorruptionAtEveryPlanLevel) {
  Rng rng(5);
  const auto alignment = testutil::random_alignment(10, 160, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  config.sdc_checks = true;
  LikelihoodEngine engine(patterns, model, tree, config);
  LikelihoodEngine::Config clean_config;
  clean_config.isa = GetParam();
  LikelihoodEngine clean(patterns, model, tree, clean_config);  // no checks: the reference

  // Rooting at each edge in turn and corrupting both inner endpoints places
  // every inner node at every depth of the traversal plan across the sweep.
  std::set<int> corrupted;
  for (tree::Slot* edge : tree.edges()) {
    for (tree::Slot* end : {edge, edge->back}) {
      if (end->is_tip()) continue;
      const double expected = clean.log_likelihood(edge);
      expect_detect_and_heal(engine, edge, end->node_id, expected,
                             "dense node " + std::to_string(end->node_id));
      corrupted.insert(end->node_id);
    }
  }
  EXPECT_EQ(static_cast<int>(corrupted.size()), tree.node_count() - tree.taxon_count());
  EXPECT_GT(engine.sdc_counters().checks, engine.sdc_counters().hits);
}

// prepare_derivatives on an already-satisfied edge runs no newview, so its
// endpoints are verified only by derivativeSum's chunk-loop prologue: that
// verification must compare, detect and heal before the sum buffer is used.
TEST_P(DenseSdcTest, HealsCorruptedEndpointBeforeDerivatives) {
  Rng rng(8);
  const auto alignment = testutil::random_alignment(10, 700, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  LikelihoodEngine::Config config;
  config.isa = GetParam();
  config.sdc_checks = true;
  LikelihoodEngine engine(patterns, model, tree, config);
  LikelihoodEngine::Config clean_config;
  clean_config.isa = GetParam();
  LikelihoodEngine clean(patterns, model, tree, clean_config);

  for (tree::Slot* edge : tree.edges()) {
    for (tree::Slot* end : {edge, edge->back}) {
      if (end->is_tip()) continue;
      const std::string context = "edge endpoint node " + std::to_string(end->node_id);
      clean.prepare_derivatives(edge);
      const auto expected = clean.derivatives(edge->length);

      (void)engine.log_likelihood(edge);  // satisfies the edge's plan
      ASSERT_TRUE(engine.corrupt_cla_for_testing(end->node_id, 11 * end->node_id, 5)) << context;
      const sdc::Counters before = engine.sdc_counters();
      engine.prepare_derivatives(edge);
      const auto actual = engine.derivatives(edge->length);
      const sdc::Counters after = engine.sdc_counters();

      EXPECT_EQ(after.hits, before.hits + 1) << context;
      EXPECT_EQ(after.heals, before.heals + 1) << context;
      EXPECT_EQ(actual, expected) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, DenseSdcTest,
                         ::testing::Values(simd::Isa::kScalar, simd::Isa::kAvx2,
                                           simd::Isa::kAvx512));

TEST(CatSdc, HealsCorruptionAtEveryNode) {
  Rng rng(6);
  const auto alignment = testutil::random_alignment(9, 140, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(9, rng);
  const int categories = 5;
  std::vector<double> rates;
  for (int c = 0; c < categories; ++c) rates.push_back(rng.uniform(0.05, 4.0));
  std::vector<std::uint8_t> assignment(patterns.pattern_count());
  for (auto& a : assignment) {
    a = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(categories)));
  }

  for (const auto isa : supported_isas()) {
    CatEngine::Config config;
    config.isa = isa;
    config.sdc_checks = true;
    CatEngine engine(patterns, model, tree, categories, config);
    engine.set_categories(rates, assignment);
    CatEngine::Config clean_config;
    clean_config.isa = isa;
    CatEngine clean(patterns, model, tree, categories, clean_config);
    clean.set_categories(rates, assignment);

    for (tree::Slot* edge : tree.edges()) {
      if (edge->is_tip()) continue;
      const double expected = clean.log_likelihood(edge);
      expect_detect_and_heal(engine, edge, edge->node_id, expected,
                             "cat " + simd::to_string(isa) + " node " +
                                 std::to_string(edge->node_id));
    }
  }
}

TEST(GeneralSdc, HealsCorruptionAtEveryNode) {
  Rng rng(7);
  const auto alignment = testutil::random_alignment(8, 120, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = testutil::random_gtr_params(rng);
  const model::GeneralModel model(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  tree::Tree tree = tree::Tree::random(8, rng);

  for (const auto isa : supported_isas()) {
    GeneralEngine::Config config;
    config.isa = isa;
    config.sdc_checks = true;
    GeneralEngine engine(patterns, model, tree, bio::dna_code_masks(), config);
    GeneralEngine::Config clean_config;
    clean_config.isa = isa;
    GeneralEngine clean(patterns, model, tree, bio::dna_code_masks(), clean_config);

    for (tree::Slot* edge : tree.edges()) {
      if (edge->is_tip()) continue;
      const double expected = clean.log_likelihood(edge);
      expect_detect_and_heal(engine, edge, edge->node_id, expected,
                             "general " + simd::to_string(isa) + " node " +
                                 std::to_string(edge->node_id));
    }
  }
}

// The gradient descent reads every inner node's postorder CLA as some op's
// sibling input.  Corrupting one after a log_likelihood must be caught when
// the descent readies it, healed by a retry of the whole gradient, and give
// gradients bitwise equal to a clean engine's.  700 patterns span two of
// the descent's slabs.
template <typename MakeEngine>
void expect_gradient_heals_sibling(const MakeEngine& make_engine, const std::string& family) {
  Rng rng(9);
  const auto alignment = testutil::random_alignment(10, 760, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = testutil::random_gtr_params(rng);
  tree::Tree tree = tree::Tree::random(10, rng);
  tree::Slot* root = tree.tip(0);

  const auto clean = make_engine(patterns, params, tree, /*sdc=*/false);
  std::vector<BranchGradient> expected;
  ASSERT_TRUE(clean->gradient_all_branches(root, expected));

  const auto engine = make_engine(patterns, params, tree, /*sdc=*/true);
  for (int node = tree.taxon_count(); node < tree.node_count(); ++node) {
    if (node == root->back->node_id) continue;  // the root edge's endpoint is no sibling
    const std::string context = family + " node " + std::to_string(node);
    (void)engine->log_likelihood(root);
    ASSERT_TRUE(engine->corrupt_cla_for_testing(node, 13 * node, 7)) << context;
    const sdc::Counters before = engine->sdc_counters();
    std::vector<BranchGradient> actual;
    ASSERT_TRUE(engine->gradient_all_branches(root, actual)) << context;
    const sdc::Counters after = engine->sdc_counters();
    EXPECT_EQ(after.hits, before.hits + 1) << context;
    EXPECT_EQ(after.heals, before.heals + 1) << context;
    EXPECT_EQ(after.escalations, before.escalations) << context;
    ASSERT_EQ(actual.size(), expected.size()) << context;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].edge, expected[i].edge) << context;
      EXPECT_EQ(actual[i].first, expected[i].first) << context << " edge " << i;
      EXPECT_EQ(actual[i].second, expected[i].second) << context << " edge " << i;
    }
  }
}

TEST(GradientSdc, HealsCorruptedSiblingInputOnEveryFamily) {
  for (const auto isa : supported_isas()) {
    for (const bool repeats : {false, true}) {
      expect_gradient_heals_sibling(
          [&](const bio::PatternSet& patterns, const model::GtrParams& params, tree::Tree& tree,
              bool sdc) {
            LikelihoodEngine::Config config;
            config.isa = isa;
            config.site_repeats = repeats;
            config.sdc_checks = sdc;
            return std::make_unique<LikelihoodEngine>(patterns, model::GtrModel(params), tree,
                                                      config);
          },
          (repeats ? "repeats " : "dense ") + simd::to_string(isa));
    }
    expect_gradient_heals_sibling(
        [&](const bio::PatternSet& patterns, const model::GtrParams& params, tree::Tree& tree,
            bool sdc) {
          CatEngine::Config config;
          config.isa = isa;
          config.sdc_checks = sdc;
          return std::make_unique<CatEngine>(patterns, model::GtrModel(params), tree,
                                             /*categories=*/4, config);
        },
        "cat " + simd::to_string(isa));
    expect_gradient_heals_sibling(
        [&](const bio::PatternSet& patterns, const model::GtrParams& params, tree::Tree& tree,
            bool sdc) {
          GeneralEngine::Config config;
          config.isa = isa;
          config.sdc_checks = sdc;
          return std::make_unique<GeneralEngine>(
              patterns,
              model::GeneralModel(4,
                                  std::vector<double>(params.exchangeabilities.begin(),
                                                      params.exchangeabilities.end()),
                                  std::vector<double>(params.frequencies.begin(),
                                                      params.frequencies.end()),
                                  params.alpha),
              tree, bio::dna_code_masks(), config);
        },
        "general " + simd::to_string(isa));
  }
}

// Without sdc_checks there is no committed block count, so the test hook
// bounds its word index by the blocks the store holds.  A compressed slot
// holds only its class count of blocks: the flip must land inside them
// (under ASan a write past the class-sized buffer is a hard failure).
TEST(SdcTestHook, CorruptsCompressedSlotWithinItsClassBlocks) {
  Rng rng(3131);
  const auto patterns = bio::compress_patterns(simulate::paper_dataset(600, 17, 24));
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(24, rng);
  LikelihoodEngine::Config config;
  config.sdc_checks = false;
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  auto& store = engine.cla_store_for_testing();
  const std::int64_t width = engine.slice_size();
  int slot = -1;
  for (int s = 0; s < store.slot_count(); ++s) {
    if (store.resident(s) && store.blocks(s) < width) {
      slot = s;
      break;
    }
  }
  ASSERT_GE(slot, 0) << "no compressed slot to corrupt";
  const std::int64_t words = store.blocks(slot) * kSiteBlock;
  const std::vector<double> before(store.values(slot), store.values(slot) + words);

  // The last word of a full-width buffer: far past the class blocks.
  const std::int64_t word = width * kSiteBlock - 1;
  ASSERT_TRUE(engine.corrupt_cla_for_testing(tree.taxon_count() + slot, word, 5));
  const double* after = store.values(slot);
  int changed = 0;
  for (std::int64_t i = 0; i < words; ++i) {
    if (std::memcmp(&before[static_cast<std::size_t>(i)], after + i, sizeof(double)) != 0) {
      ++changed;
      EXPECT_EQ(i, word % words);
    }
  }
  EXPECT_EQ(changed, 1);
}

TEST(Escalation, NonFiniteOutputExhaustsRetryBudgetThenThrows) {
  // A NaN branch length makes evaluate return NaN deterministically: every
  // heal attempt (invalidate-all + recompute) reproduces the same NaN, so
  // the sentinel must burn its retry budget and escalate instead of looping.
  Rng rng(8);
  const auto alignment = testutil::random_alignment(6, 80, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(6, rng);
  tree::Slot* edge = tree.tip(0);
  edge->length = std::numeric_limits<double>::quiet_NaN();
  edge->back->length = edge->length;

  {
    // Control: without checks the NaN propagates silently — the exact
    // failure mode the sentinel exists to catch.
    LikelihoodEngine unguarded(patterns, model, tree);
    EXPECT_TRUE(std::isnan(unguarded.log_likelihood(edge)));
  }

  LikelihoodEngine::Config config;
  config.sdc_checks = true;
  LikelihoodEngine engine(patterns, model, tree, config);
  EXPECT_THROW((void)engine.log_likelihood(edge), sdc::CorruptionDetected);
  EXPECT_EQ(engine.sdc_counters().escalations, 1);
  EXPECT_EQ(engine.sdc_counters().heals, sdc::kHealRetryBudget - 1);
}

TEST(PartitionedSdc, HealsAcrossAllPartitionEngines) {
  Rng rng(9);
  const auto alignment = testutil::random_alignment(10, 600, rng);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);
  const auto specs = even_partitions(static_cast<std::int64_t>(alignment.site_count()), 3);

  LikelihoodEngine::Config config;
  config.sdc_checks = true;
  PartitionedEvaluator evaluator(alignment, specs, model, tree, config);
  PartitionedEvaluator clean(alignment, specs, model, tree);

  tree::Slot* edge = tree.tip(0);
  const double expected = clean.log_likelihood(edge);
  (void)evaluator.log_likelihood(edge);

  // Corrupt the root-edge CLA in ONE partition: the merged executor has no
  // engine-internal heal loop, so the partition-level loop must catch the
  // detection and invalidate the named node on every engine before retrying.
  const int node = edge->back->node_id;
  ASSERT_TRUE(evaluator.partition_engine(0).corrupt_cla_for_testing(node, 11, 3));
  const double healed = evaluator.log_likelihood(edge);
  EXPECT_EQ(healed, expected);
  EXPECT_EQ(evaluator.partition_engine(0).sdc_counters().hits, 1);
  EXPECT_EQ(evaluator.partition_engine(1).sdc_counters().hits, 0);
}

TEST(ObsReport, HasSdcDefenseSection) {
  auto& registry = obs::Registry::instance();
  registry.reset();

  Rng rng(10);
  const auto alignment = testutil::random_alignment(8, 100, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(8, rng);

  LikelihoodEngine::Config config;
  config.sdc_checks = true;
  config.metrics = obs::MetricsMode::kOn;
  LikelihoodEngine engine(patterns, model, tree, config);
  tree::Slot* edge = tree.tip(0);
  (void)engine.log_likelihood(edge);
  ASSERT_TRUE(engine.corrupt_cla_for_testing(edge->back->node_id, 5, 9));
  (void)engine.log_likelihood(edge);

  const std::string report = obs::render_kernel_report();
  EXPECT_NE(report.find("--- sdc defense ---"), std::string::npos) << report;
  EXPECT_NE(report.find("sdc.checks"), std::string::npos) << report;
  EXPECT_NE(report.find("sdc.heals"), std::string::npos) << report;
  EXPECT_NE(report.find("sdc.verify_ns"), std::string::npos) << report;
  registry.reset();
}

// --- End-to-end through the ExaML driver -----------------------------------

examl::ExperimentOptions distributed_options() {
  examl::ExperimentOptions options;
  options.search.max_rounds = 1;
  options.search.model_options.max_passes = 1;
  options.sdc_checks = true;
  return options;
}

TEST(DistributedSdc, CleanAgreementPathIsBitIdenticalToScalarReduction) {
  // The TMR agreement allreduce replaces the scalar lnL allreduce; its
  // rank-ordered fold must reproduce the scalar path bit for bit, or
  // enabling the defense would change search trajectories.
  const auto alignment = simulate::paper_dataset(400, 17, 10);
  const auto guarded = run_distributed_search(alignment, 3, distributed_options());
  ASSERT_EQ(guarded.recoveries, 0);
  EXPECT_GT(guarded.sdc.checks, 0);
  EXPECT_EQ(guarded.sdc.hits, 0);

  auto unguarded_options = distributed_options();
  unguarded_options.sdc_checks = false;
  const auto unguarded = run_distributed_search(alignment, 3, unguarded_options);
  EXPECT_EQ(guarded.log_likelihood, unguarded.log_likelihood);
  EXPECT_EQ(guarded.final_tree_newick, unguarded.final_tree_newick);
}

TEST(DistributedSdc, InjectedFaultsHealWithoutRestart) {
  // Both injected corruption kinds in one run: a CLA bit flip on rank 1
  // (caught by the checksum verify, healed by targeted recompute) and a
  // corrupted agreement slot delivered to rank 2 (caught by the TMR vote,
  // healed by majority).  The run must converge bit-identically to the
  // clean run with zero checkpoint restarts — healing, not restarting.
  const auto alignment = simulate::paper_dataset(400, 17, 10);
  const auto clean = run_distributed_search(alignment, 3, distributed_options());
  ASSERT_EQ(clean.recoveries, 0);

  auto faulty_options = distributed_options();
  faulty_options.fault_tolerance.faults.flip_cla_bits(/*rank=*/1, /*call_index=*/4)
      .corrupt_reduction(/*rank=*/2, /*call_index=*/3, /*element=*/1);
  const auto healed = run_distributed_search(alignment, 3, faulty_options);

  EXPECT_EQ(healed.recoveries, 0);
  EXPECT_EQ(healed.sdc_escalation_recoveries, 0);
  EXPECT_GT(healed.sdc.hits, 0);
  EXPECT_GT(healed.sdc.heals, 0);
  EXPECT_TRUE(healed.replicas_consistent);
  EXPECT_EQ(healed.log_likelihood, clean.log_likelihood);
  EXPECT_EQ(healed.final_tree_newick, clean.final_tree_newick);
}

}  // namespace
}  // namespace miniphi::core
