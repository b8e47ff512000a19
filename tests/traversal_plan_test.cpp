// Tests for the flat traversal-plan layer (src/core/traversal_plan): planner
// invariants, iterative planning on pathologically deep trees, the
// depth-first preorder plan and its partial-buffer stack, the dense
// engine's external plan protocol, epoch-based plan caching under
// randomized topology and branch-length changes, and plan/store-count
// parity across the engine families that share one orchestration core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/io/newick.hpp"
#include "src/obs/metrics.hpp"
#include "src/tree/moves.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

using testutil::random_alignment;
using testutil::random_gtr_params;

/// Structural invariants every plan must satisfy, as properties of a
/// depth-first post-order: every op appears once, each op's in-plan child
/// links point at a smaller index (children before parents) and at the op
/// for that child's slot, and each op is the last of its subtree's ops,
/// which sit contiguously just before it — so each root's op finishes its
/// whole subtree.
void check_plan_invariants(const TraversalPlan& plan) {
  const auto ops = plan.ops();
  std::set<int> slots;
  std::vector<std::int64_t> size(ops.size());   // ops in the subtree rooted at op i
  std::vector<std::int64_t> first(ops.size());  // smallest op index in that subtree
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlfOp& op = ops[i];
    ASSERT_NE(op.slot, nullptr);
    EXPECT_FALSE(op.slot->is_tip());
    EXPECT_EQ(op.node_id, op.slot->node_id);
    EXPECT_TRUE(slots.insert(op.slot->slot_index).second) << "slot planned twice, op " << i;
    size[i] = 1;
    first[i] = static_cast<std::int64_t>(i);
    const std::pair<std::int32_t, const tree::Slot*> children[2] = {
        {op.left_op, op.slot->child1()}, {op.right_op, op.slot->child2()}};
    for (const auto& [child, child_slot] : children) {
      if (child < 0) continue;
      ASSERT_LT(child, static_cast<std::int32_t>(i)) << "children before parents";
      const auto c = static_cast<std::size_t>(child);
      EXPECT_EQ(ops[c].slot, child_slot) << "op " << i;
      size[i] += size[c];
      first[i] = std::min(first[i], first[c]);
    }
    EXPECT_EQ(first[i], static_cast<std::int64_t>(i) - size[i] + 1)
        << "op " << i << " is not the last op of a contiguous subtree";
  }
  for (const PlanRoot& root : plan.roots()) {
    if (root.op < 0) continue;
    ASSERT_LT(root.op, plan.op_count());
    EXPECT_EQ(ops[static_cast<std::size_t>(root.op)].slot, root.slot);
  }
}

/// A pure dependency chain: each op after the first has exactly one
/// in-plan child, the op just before it.
void expect_chain(const TraversalPlan& plan) {
  const auto ops = plan.ops();
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops[0].left_op, -1);
  EXPECT_EQ(ops[0].right_op, -1);
  for (std::size_t i = 1; i < ops.size(); ++i) {
    const std::int32_t prev = static_cast<std::int32_t>(i) - 1;
    EXPECT_TRUE((ops[i].left_op == prev && ops[i].right_op == -1) ||
                (ops[i].left_op == -1 && ops[i].right_op == prev))
        << "op " << i;
  }
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
  expect_chain(plan);
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
  // a ~10k-op dependency chain, far deeper than per-node recursion survives.
  const int ntaxa = 10000;
  tree::Tree tree = caterpillar(ntaxa);
  const TraversalPlan plan = full_plan(tree);
  EXPECT_EQ(plan.op_count(), ntaxa - 2);
  expect_chain(plan);
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

/// Perfectly split tree: each subtree's tips halved, as Newick.
std::string balanced_newick(int begin, int end) {
  if (end - begin == 1) return "t" + std::to_string(begin);
  const int mid = begin + (end - begin) / 2;
  return "(" + balanced_newick(begin, mid) + "," + balanced_newick(mid, end) + ")";
}

tree::Tree balanced(int ntaxa) {
  return tree::Tree::from_newick(*io::parse_newick(balanced_newick(0, ntaxa) + ";"),
                                 testutil::taxon_names(ntaxa));
}

/// The depth-first preorder plan's contract: parents first, every non-root
/// edge exactly once, no buffer handed out while another live partial holds
/// it, and at most ⌈log2 n⌉ + 2 buffers.  A partial is live from its op
/// until its last reader — its children's ops, or its own op for a tip.
void check_preorder_plan(tree::Tree& tree, tree::Slot* root_edge) {
  const int ntaxa = tree.taxon_count();
  SCOPED_TRACE(::testing::Message() << ntaxa << " taxa, root edge at slot "
                                    << root_edge->slot_index);
  TraversalPlan plan;
  TraversalPlanner::build_preorder(root_edge, plan);
  const auto ops = plan.ops();
  ASSERT_EQ(plan.op_count(), 2 * ntaxa - 4);

  std::vector<std::int64_t> last_reader(ops.size());
  std::set<const tree::Slot*> edges;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PlfOp& op = ops[i];
    EXPECT_EQ(op.kind, PlfOpKind::kPreorder);
    EXPECT_EQ(op.node_id, op.slot->back->node_id);
    last_reader[i] = static_cast<std::int64_t>(i);
    if (op.left_op >= 0) {
      ASSERT_LT(op.left_op, static_cast<std::int32_t>(i)) << "parents first";
      const PlfOp& parent = ops[static_cast<std::size_t>(op.left_op)];
      EXPECT_EQ(op.slot->node_id, parent.node_id) << "op " << i;
      auto& reader = last_reader[static_cast<std::size_t>(op.left_op)];
      reader = std::max(reader, static_cast<std::int64_t>(i));
    } else {
      // A seed op hangs off a root-edge endpoint.
      EXPECT_TRUE(op.slot->node_id == root_edge->node_id ||
                  op.slot->node_id == root_edge->back->node_id);
    }
    EXPECT_TRUE(edges.insert(std::min(op.slot, op.slot->back)).second) << "edge twice, op " << i;
    ASSERT_GE(op.buffer, 0);
    ASSERT_LT(op.buffer, plan.buffers());
  }
  EXPECT_EQ(edges.count(std::min(root_edge, root_edge->back)), 0u) << "root edge has no op";
  EXPECT_EQ(static_cast<int>(edges.size()), tree.edge_count() - 1);

  // Replay the schedule: an op's buffer must be free when it runs.
  std::vector<std::int64_t> held_until(static_cast<std::size_t>(plan.buffers()), -1);
  int peak = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    auto& until = held_until[static_cast<std::size_t>(ops[i].buffer)];
    EXPECT_LT(until, static_cast<std::int64_t>(i)) << "op " << i << " buffer " << ops[i].buffer;
    until = last_reader[i];
    int live = 0;
    for (const std::int64_t end : held_until) live += end >= static_cast<std::int64_t>(i) ? 1 : 0;
    peak = std::max(peak, live);
  }
  EXPECT_EQ(peak, plan.buffers());
  const int bound = static_cast<int>(std::ceil(std::log2(static_cast<double>(ntaxa)))) + 2;
  EXPECT_LE(plan.buffers(), bound);
}

TEST(PreorderPlan, DepthFirstStackStaysUnderLogBound) {
  Rng rng(2025);
  for (const int ntaxa : {4, 15, 48, 128, 256}) {
    for (int trial = 0; trial < 5; ++trial) {
      tree::Tree tree = tree::Tree::random(ntaxa, rng);
      // Root at a tip's edge and at a random (often inner) edge.
      check_preorder_plan(tree, tree.tip(0));
      const auto edges = tree.edges();
      check_preorder_plan(tree, edges[rng.below(edges.size())]);
    }
    tree::Tree chain = caterpillar(ntaxa);
    check_preorder_plan(chain, chain.tip(0));
    check_preorder_plan(chain, chain.edges()[chain.edges().size() / 2]);
    tree::Tree even = balanced(ntaxa);
    check_preorder_plan(even, even.tip(0));
    for (tree::Slot* edge : even.edges()) {
      if (!edge->is_tip() && !edge->back->is_tip()) {
        check_preorder_plan(even, edge);  // an inner root edge
        break;
      }
    }
  }
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
  SCOPED_TRACE(::testing::Message() << family << " at " << budget << " full-width CLA buffers");
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
  // working set (every eviction drops and nested subplans recompute).
  Rng rng(57);
  const auto alignment = random_alignment(12, 90, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = random_gtr_params(rng);
  const model::GtrModel dna_model(params);
  const model::GeneralModel general_model(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  const tree::Tree base = tree::Tree::random(12, rng);

  // A budget of k full-width buffers in each family's own buffer bytes
  // (per-site buffers, so it holds exactly k CLAs): 0 = the full budget.
  const auto budget_config = [&](int buffers, const Evaluator& full_engine) {
    EngineConfig config;
    config.site_repeats = false;
    config.cla_budget_bytes = buffers * full_engine.cla_bytes_granted() / base.inner_count();
    return config;
  };
  for (const int budget : {0, min_cla_buffers(base.inner_count())}) {
    tree::Tree dense_tree(base);
    tree::Tree cat_tree(base);
    tree::Tree general_tree(base);
    EngineConfig full_config;
    full_config.site_repeats = false;
    LikelihoodEngine dense_full(patterns, dna_model, dense_tree, full_config);
    CatEngine cat_full(patterns, dna_model, cat_tree, 4, full_config);
    GeneralEngine general_full(patterns, general_model, general_tree, bio::dna_code_masks(),
                               full_config);
    LikelihoodEngine dense(patterns, dna_model, dense_tree, budget_config(budget, dense_full));
    CatEngine cat(patterns, dna_model, cat_tree, 4, budget_config(budget, cat_full));
    GeneralEngine general(patterns, general_model, general_tree, bio::dna_code_masks(),
                          budget_config(budget, general_full));

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
