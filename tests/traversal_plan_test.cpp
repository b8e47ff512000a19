// Tests for the flat traversal-plan layer (src/core/traversal_plan): planner
// invariants, iterative planning on pathologically deep trees, the dense
// engine's external plan protocol, epoch-based plan caching under
// randomized topology and branch-length changes, and plan/store-count
// parity across the engine families that share one orchestration core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/tree/moves.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

using testutil::random_alignment;
using testutil::random_gtr_params;

/// Structural invariants every plan must satisfy: ops are in post-order
/// (children before parents), an op's level is 1 + the deepest child level,
/// and the by-level index is a permutation of the ops grouped by level.
void check_plan_invariants(const TraversalPlan& plan) {
  const auto ops = plan.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlfOp& op = ops[i];
    ASSERT_NE(op.slot, nullptr);
    EXPECT_FALSE(op.slot->is_tip());
    EXPECT_EQ(op.node_id, op.slot->node_id);
    std::int32_t child_level = 0;
    for (const std::int32_t child : {op.left_op, op.right_op}) {
      if (child < 0) continue;
      ASSERT_LT(child, static_cast<std::int32_t>(i));
      child_level = std::max(child_level, ops[static_cast<std::size_t>(child)].level);
    }
    EXPECT_EQ(op.level, child_level + 1);
  }

  std::vector<int> seen(ops.size(), 0);
  std::int64_t listed = 0;
  std::int64_t widest = 0;
  for (int level = 1; level <= plan.levels(); ++level) {
    const auto level_ops = plan.level_ops(level);
    widest = std::max(widest, static_cast<std::int64_t>(level_ops.size()));
    for (const std::int32_t op : level_ops) {
      EXPECT_EQ(ops[static_cast<std::size_t>(op)].level, level);
      EXPECT_EQ(seen[static_cast<std::size_t>(op)]++, 0);
      ++listed;
    }
  }
  EXPECT_EQ(listed, plan.op_count());
  EXPECT_EQ(widest, plan.max_level_width());
}

/// Full-traversal plan toward (tip0, tip0->back) with nothing cached.
TraversalPlan full_plan(tree::Tree& tree) {
  TraversalPlanner planner;
  TraversalPlan plan;
  tree::Slot* const goals[2] = {tree.tip(0), tree.tip(0)->back};
  planner.build(std::span<tree::Slot* const>(goals),
                [](const tree::Slot*) { return false; }, plan);
  return plan;
}

TEST(TraversalPlanner, FullTraversalCoversEveryInnerSlotOnce) {
  Rng rng(11);
  tree::Tree tree = tree::Tree::random(24, rng);
  const TraversalPlan plan = full_plan(tree);

  EXPECT_EQ(plan.op_count(), tree.inner_count());
  ASSERT_EQ(plan.roots().size(), 2u);
  EXPECT_EQ(plan.roots()[0].slot, tree.tip(0));
  EXPECT_EQ(plan.roots()[0].op, -1);  // tip goal: nothing to compute
  EXPECT_EQ(plan.roots()[1].slot, tree.tip(0)->back);
  EXPECT_EQ(plan.roots()[1].op, plan.op_count() - 1);  // the goal runs last
  check_plan_invariants(plan);

  // Same slot set as the engine-independent reference traversal (the tip
  // itself carries no CLA, so the reference starts at the inner end).
  const auto reference = tree.full_traversal(tree.tip(0)->back);
  std::vector<int> want;
  for (const tree::Slot* slot : reference) want.push_back(slot->slot_index);
  std::vector<int> got;
  for (const PlfOp& op : plan.ops()) got.push_back(op.slot->slot_index);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(TraversalPlanner, AllValidSubtreesYieldEmptyPlanWithRoots) {
  Rng rng(12);
  tree::Tree tree = tree::Tree::random(12, rng);
  TraversalPlanner planner;
  TraversalPlan plan;
  tree::Slot* const goals[2] = {tree.tip(0), tree.tip(0)->back};
  planner.build(std::span<tree::Slot* const>(goals),
                [](const tree::Slot*) { return true; }, plan);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.levels(), 0);
  EXPECT_EQ(plan.max_level_width(), 0);
  ASSERT_EQ(plan.roots().size(), 2u);
  EXPECT_EQ(plan.roots()[0].op, -1);
  EXPECT_EQ(plan.roots()[1].op, -1);
}

TEST(TraversalPlanner, SingleInvalidSlotPlansTheAncestorChain) {
  // One stale CLA deep in an otherwise-valid tree must replan exactly the
  // path from that slot up to the goal (the RAxML partial-traversal rule).
  Rng rng(13);
  tree::Tree tree = tree::Tree::random(20, rng);
  tree::Slot* goal = tree.tip(0)->back;
  tree::Slot* stale = goal;
  for (int depth = 0; depth < 3 && !stale->child1()->is_tip(); ++depth) {
    stale = stale->child1();
  }
  ASSERT_NE(stale, goal);

  TraversalPlanner planner;
  TraversalPlan plan;
  tree::Slot* const goals[1] = {goal};
  planner.build(std::span<tree::Slot* const>(goals),
                [stale](const tree::Slot* slot) { return slot != stale; }, plan);
  check_plan_invariants(plan);

  // A pure chain: the stale slot first, then each ancestor referencing the
  // previous op as its only in-plan child.
  ASSERT_GT(plan.op_count(), 1);
  EXPECT_EQ(plan.ops()[0].slot, stale);
  EXPECT_EQ(plan.roots()[0].op, plan.op_count() - 1);
  EXPECT_EQ(plan.levels(), static_cast<int>(plan.op_count()));
  EXPECT_EQ(plan.max_level_width(), 1);
  for (std::size_t i = 1; i < plan.ops().size(); ++i) {
    const PlfOp& op = plan.ops()[i];
    const std::int32_t prev = static_cast<std::int32_t>(i) - 1;
    EXPECT_TRUE((op.left_op == prev && op.right_op == -1) ||
                (op.left_op == -1 && op.right_op == prev));
  }
}

/// Maximally unbalanced tree: tips 0 and 1 on the first inner node, then a
/// chain of inner nodes each carrying one more tip.  Depth grows linearly
/// with the taxon count — the worst case for any recursive traversal.
tree::Tree caterpillar(int ntaxa) {
  tree::Tree tree(ntaxa);
  tree.connect(tree.tip(0), tree.inner_slot(0, 0), 0.1);
  tree.connect(tree.tip(1), tree.inner_slot(0, 1), 0.1);
  for (int i = 1; i <= ntaxa - 3; ++i) {
    tree.connect(tree.inner_slot(i - 1, 2), tree.inner_slot(i, 0), 0.1);
    tree.connect(tree.tip(i + 1), tree.inner_slot(i, 1), 0.1);
  }
  tree.connect(tree.inner_slot(ntaxa - 3, 2), tree.tip(ntaxa - 1), 0.1);
  tree.validate();
  return tree;
}

TEST(TraversalPlanner, TenThousandTaxonCaterpillarPlansWithoutRecursion) {
  // Regression for the explicit-stack planner: a 10k-taxon caterpillar is
  // ~10k dependency levels deep, far past what per-node recursion survives.
  const int ntaxa = 10000;
  tree::Tree tree = caterpillar(ntaxa);
  const TraversalPlan plan = full_plan(tree);
  EXPECT_EQ(plan.op_count(), ntaxa - 2);
  EXPECT_EQ(plan.levels(), ntaxa - 2);  // a pure dependency chain
  EXPECT_EQ(plan.max_level_width(), 1);
  check_plan_invariants(plan);
}

TEST(TraversalPlanner, CaterpillarLikelihoodRunsEndToEnd) {
  // The same depth through the whole engine stack: plan, execute, evaluate.
  Rng rng(17);
  const int ntaxa = 10000;
  const auto alignment = random_alignment(ntaxa, 6, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(model::GtrParams::jc69(0.8));
  tree::Tree tree = caterpillar(ntaxa);

  LikelihoodEngine engine(patterns, model, tree);
  const double value = engine.log_likelihood(tree.tip(0));
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_LT(value, 0.0);
  EXPECT_EQ(engine.plan_counters().executed_ops, ntaxa - 2);
}

TEST(DensePlanProtocol, ExternalExecutionMatchesInternalTraversal) {
  Rng rng(21);
  const auto alignment = random_alignment(10, 200, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  LikelihoodEngine external(patterns, model, tree);
  tree::Slot* edge = tree.tip(0);

  // The plan_traversal contract DistributedEvaluator derives its CommPlan
  // from: build once, fetch again before executing — the second fetch
  // reuses the cached plan object without a rebuild.
  const TraversalPlan* plan = external.plan_traversal(edge);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->op_count(), tree.inner_count());
  check_plan_invariants(*plan);
  EXPECT_EQ(external.plan_traversal(edge), plan);
  EXPECT_EQ(external.plan_counters().builds, 1);
  EXPECT_EQ(external.plan_counters().reuses, 1);

  // The engine executes that same prepared plan (no rebuild), bit-identical
  // to an engine that planned internally; afterwards the plan is satisfied.
  const double got = external.log_likelihood(edge);
  EXPECT_EQ(external.plan_counters().builds, 1);
  EXPECT_EQ(external.plan_traversal(edge), nullptr);
  LikelihoodEngine internal(patterns, model, tree);
  EXPECT_EQ(got, internal.log_likelihood(edge));
  EXPECT_EQ(external.stats(Kernel::kNewview).calls, internal.stats(Kernel::kNewview).calls);
  // Evaluating the same edge again is a satisfied-plan cache hit.
  EXPECT_EQ(external.log_likelihood(edge), got);
  EXPECT_GE(external.plan_counters().cache_hits, 1);
}

TEST(PlanCache, RandomMovesReusePlansAndStayBitIdentical) {
  // Randomized NNI/SPR moves plus branch-length-only invalidate_branch
  // changes: re-evaluating an unchanged edge must hit the satisfied-plan
  // fast path (no newview runs), every likelihood must be bit-identical to
  // a fresh engine over the same tree, and the plan cache must absorb a
  // substantial share of the traversals.
  Rng rng(4242);
  const auto alignment = random_alignment(14, 120, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(14, rng);

  LikelihoodEngine::Config config;
  config.metrics = obs::MetricsMode::kOn;
  LikelihoodEngine engine(patterns, model, tree, config);

  // The registry is process-global, so metric assertions work on deltas.
  std::int64_t builds_before = 0;
  std::int64_t hits_before = 0;
  if (obs::kMetricsCompiled) {
    obs::Registry& registry = obs::Registry::instance();
    builds_before = registry.value(registry.counter("plan.builds"));
    hits_before = registry.value(registry.counter("plan.cache_hits"));
  }

  const int steps = 40;
  for (int step = 0; step < steps; ++step) {
    switch (rng.below(3)) {
      case 0: {  // NNI across a random internal edge
        std::vector<tree::Slot*> internal;
        for (tree::Slot* e : tree.edges()) {
          if (!e->is_tip() && !e->back->is_tip()) internal.push_back(e);
        }
        tree::Slot* edge = internal[rng.below(internal.size())];
        ASSERT_TRUE(tree::nni(tree, edge, static_cast<int>(rng.below(2))));
        engine.invalidate_node(edge->node_id);
        engine.invalidate_node(edge->back->node_id);
        break;
      }
      case 1: {  // SPR within radius 4
        const int inner =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(tree.inner_count())));
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
          break;
        }
        tree::Slot* e = candidates[rng.below(candidates.size())];
        tree::Slot* other = e->back;
        tree::regraft(tree, record, e, rng.uniform(0.2, 0.8));
        engine.invalidate_node(e->node_id);
        engine.invalidate_node(other->node_id);
        engine.invalidate_node(p->node_id);
        break;
      }
      default: {  // branch-length-only change
        tree::Slot* edge =
            tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
        tree::Tree::set_length(edge, rng.uniform(0.01, 1.0));
        engine.invalidate_branch(edge->node_id);
        engine.invalidate_branch(edge->back->node_id);
        break;
      }
    }
    tree.validate();

    tree::Slot* root = tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
    const double first = engine.log_likelihood(root);
    const auto newviews = engine.stats(Kernel::kNewview).calls;
    const double second = engine.log_likelihood(root);
    EXPECT_EQ(first, second) << "step " << step;
    EXPECT_EQ(engine.stats(Kernel::kNewview).calls, newviews)
        << "satisfied plan must not re-run newview, step " << step;

    LikelihoodEngine fresh(patterns, model, tree);
    EXPECT_EQ(first, fresh.log_likelihood(root)) << "step " << step;
  }

  const PlanCounters& counters = engine.plan_counters();
  EXPECT_GE(counters.cache_hits, steps);  // every repeat evaluation hit
  EXPECT_GT(counters.builds, 0);
  EXPECT_LT(counters.builds, 2 * steps);  // caching absorbed the repeats
  if (obs::kMetricsCompiled) {
    obs::Registry& registry = obs::Registry::instance();
    EXPECT_EQ(registry.value(registry.counter("plan.builds")) - builds_before,
              counters.builds);
    EXPECT_EQ(registry.value(registry.counter("plan.cache_hits")) - hits_before,
              counters.cache_hits);
  }
}

TEST(PlanCache, CatEngineSharesTheCachingProtocol) {
  // The CAT and general engines run traversals through the shared PlanCache;
  // the same satisfied/rebuild epoch protocol must hold there.
  Rng rng(31);
  const auto alignment = random_alignment(10, 150, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);

  CatEngine engine(patterns, model, tree, 4);
  const double first = engine.log_likelihood(tree.tip(0));
  EXPECT_EQ(engine.plan_counters().builds, 1);
  EXPECT_EQ(first, engine.log_likelihood(tree.tip(0)));
  EXPECT_EQ(engine.plan_counters().cache_hits, 1);

  // Any CLA state change retires the satisfied plan.
  engine.invalidate_node(tree.tip(0)->back->node_id);
  const double third = engine.log_likelihood(tree.tip(0));
  EXPECT_EQ(first, third);
  EXPECT_EQ(engine.plan_counters().builds, 2);
}

/// Plan-cache and CLA-store counters after one fixed call sequence.
struct FamilyCounts {
  PlanCounters plan;
  memory::ClaStoreCounters store;
};

template <typename Engine>
FamilyCounts run_family_sequence(Engine& engine, tree::Tree& tree) {
  for (const int edge : {0, 4, 4, 9, 4, 2}) {
    (void)engine.log_likelihood(tree.edges()[static_cast<std::size_t>(edge)]);
  }
  engine.prepare_derivatives(tree.edges()[6]);
  std::vector<BranchGradient> gradients;
  EXPECT_TRUE(engine.gradient_all_branches(tree.tip(0), gradients));
  (void)engine.log_likelihood(tree.tip(3));
  return {engine.plan_counters(), engine.cla_store().counters()};
}

void expect_same_counts(const FamilyCounts& expected, const FamilyCounts& actual,
                        const char* family, int budget) {
  SCOPED_TRACE(::testing::Message() << family << " at cla_buffers " << budget);
  EXPECT_EQ(actual.plan.builds, expected.plan.builds);
  EXPECT_EQ(actual.plan.cache_hits, expected.plan.cache_hits);
  EXPECT_EQ(actual.plan.reuses, expected.plan.reuses);
  EXPECT_EQ(actual.plan.executed_ops, expected.plan.executed_ops);
  EXPECT_EQ(actual.plan.executed_plans, expected.plan.executed_plans);
  EXPECT_EQ(actual.store.evictions, expected.store.evictions);
  EXPECT_EQ(actual.store.recomputes, expected.store.recomputes);
}

TEST(PlanCache, PlanAndStoreCountsMatchAcrossEngineFamilies) {
  // Planning, execution order and eviction do not depend on the engine
  // family — only the kernels do.  The same DNA tree and call sequence must
  // therefore produce identical plan counters and CLA-store traffic on the
  // dense, CAT and general engines, at the full budget and at the minimum
  // working set (spill off, so every eviction drops and nested subplans
  // recompute).
  Rng rng(57);
  const auto alignment = random_alignment(12, 90, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = random_gtr_params(rng);
  const model::GtrModel dna_model(params);
  const model::GeneralModel general_model(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  const tree::Tree base = tree::Tree::random(12, rng);

  for (const int budget : {-1, 3}) {
    EngineConfig config;
    config.cla_buffers = budget;
    tree::Tree dense_tree(base);
    tree::Tree cat_tree(base);
    tree::Tree general_tree(base);
    LikelihoodEngine dense(patterns, dna_model, dense_tree, config);
    CatEngine cat(patterns, dna_model, cat_tree, 4, config);
    GeneralEngine general(patterns, general_model, general_tree, bio::dna_code_masks(), config);

    const FamilyCounts expected = run_family_sequence(dense, dense_tree);
    EXPECT_GT(expected.plan.builds, 0);
    EXPECT_GT(expected.plan.cache_hits, 0);
    if (budget > 0) {
      EXPECT_GT(expected.store.evictions, 0);
      EXPECT_GT(expected.store.recomputes, 0);
    }
    expect_same_counts(expected, run_family_sequence(cat, cat_tree), "cat", budget);
    expect_same_counts(expected, run_family_sequence(general, general_tree), "general", budget);
  }
}

}  // namespace
}  // namespace miniphi::core
