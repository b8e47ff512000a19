// Cross-backend equivalence of the site-repeats likelihood path.
//
// The repeat-aware kernels must be numerically indistinguishable (≤1e-10
// relative) from the dense path on every compiled ISA, across random
// topologies, duplicated-column alignments, scaling-heavy long-branch
// instances, and long incremental topology-move sequences.  The per-slot
// class maps are a memo re-checked against the children on every use, so
// the stress tests double as memo-correctness tests, and the map-reuse
// tests pin down that nothing but a changed subtree rebuilds a map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/io/newick.hpp"
#include "src/tree/moves.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

using testutil::random_alignment;
using testutil::random_gtr_params;

/// Duplicates every column of `base` `copies` times (column-level repeats the
/// compressed pattern set would fold away, but subtree-level repeats remain
/// under uncompressed_patterns — the bench scenario).
bio::Alignment duplicate_columns(const bio::Alignment& base, int copies) {
  std::vector<std::string> names;
  std::vector<std::vector<bio::DnaCode>> rows;
  for (std::size_t t = 0; t < base.taxon_count(); ++t) {
    names.push_back(base.taxon_name(t));
    const auto row = base.row(t);
    std::vector<bio::DnaCode> out;
    out.reserve(row.size() * static_cast<std::size_t>(copies));
    for (int c = 0; c < copies; ++c) out.insert(out.end(), row.begin(), row.end());
    rows.push_back(std::move(out));
  }
  return bio::Alignment(std::move(names), std::move(rows));
}

class SiteRepeats : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam())) GTEST_SKIP() << "ISA not supported on this host";
  }

  static LikelihoodEngine::Config config_for(simd::Isa isa, bool repeats) {
    LikelihoodEngine::Config config;
    config.isa = isa;
    config.site_repeats = repeats;
    return config;
  }
};

TEST_P(SiteRepeats, MatchesDenseOnRandomInstances) {
  for (int instance = 0; instance < 4; ++instance) {
    Rng rng(static_cast<std::uint64_t>(instance) * 7901 + 3);
    const int ntaxa = 5 + instance * 6;
    const auto alignment = random_alignment(ntaxa, 150, rng, /*ambiguity=*/0.05);
    const auto patterns = bio::compress_patterns(alignment);
    const model::GtrModel model(random_gtr_params(rng));
    tree::Tree tree = tree::Tree::random(ntaxa, rng);

    LikelihoodEngine dense(patterns, model, tree, config_for(GetParam(), false));
    LikelihoodEngine repeats(patterns, model, tree, config_for(GetParam(), true));
    ASSERT_TRUE(repeats.site_repeats());
    for (tree::Slot* edge : tree.edges()) {
      const double want = dense.log_likelihood(edge);
      const double got = repeats.log_likelihood(edge);
      EXPECT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-10)
          << "instance=" << instance << " isa=" << simd::to_string(GetParam());
    }
    // Compressed random alignments still expose subtree-level repeats.
    EXPECT_LE(repeats.unique_site_ratio(), 1.0);
  }
}

TEST_P(SiteRepeats, DuplicatedColumnsShrinkUniqueClasses) {
  Rng rng(99);
  const int ntaxa = 12;
  const auto base = random_alignment(ntaxa, 80, rng);
  const auto wide = duplicate_columns(base, 4);
  // Uncompressed: column duplicates survive, so every inner node sees at
  // most 1/4 of its sites as unique classes.
  const auto patterns = bio::uncompressed_patterns(wide);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  LikelihoodEngine dense(patterns, model, tree, config_for(GetParam(), false));
  LikelihoodEngine repeats(patterns, model, tree, config_for(GetParam(), true));
  const double want = dense.log_likelihood(tree.tip(0));
  const double got = repeats.log_likelihood(tree.tip(0));
  EXPECT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-10);

  EXPECT_LE(repeats.unique_site_ratio(), 0.25 + 1e-12);
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    const int node_id = tree.taxon_count() + inner;
    const std::int64_t unique = repeats.node_unique_classes(node_id);
    if (unique == 0) continue;  // node not on the evaluated traversal
    EXPECT_LE(unique, repeats.slice_size() / 4);
  }

  // The dense engine reports the full width for every node.
  EXPECT_DOUBLE_EQ(dense.unique_site_ratio(), 1.0);
  EXPECT_EQ(dense.node_unique_classes(tree.taxon_count()), dense.slice_size());
}

TEST_P(SiteRepeats, NewviewStatsAndTraceCountOnlyUniqueClasses) {
  Rng rng(17);
  const int ntaxa = 10;
  const auto wide = duplicate_columns(random_alignment(ntaxa, 60, rng), 4);
  const auto patterns = bio::uncompressed_patterns(wide);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  KernelTrace trace;
  auto config = config_for(GetParam(), true);
  config.trace = &trace;
  LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  // Computed sites must undercut represented sites by at least the 4×
  // duplication factor; stats and trace must agree on the computed total.
  const std::int64_t computed = trace.total_sites(TraceKernel::kNewview);
  const std::int64_t represented = trace.total_sites_represented(TraceKernel::kNewview);
  ASSERT_GT(computed, 0);
  EXPECT_LE(computed * 4, represented);
  EXPECT_EQ(computed, engine.stats(Kernel::kNewview).sites);
  EXPECT_EQ(represented,
            trace.call_count(TraceKernel::kNewview) * engine.slice_size());
}

TEST_P(SiteRepeats, ScalingHeavyLongBranchesMatchDense) {
  // Long branches on a deep tree force scale-counter increments; on the
  // repeat path a class's scale count must be shared by all its sites.
  Rng rng(4242);
  const int ntaxa = 28;
  const auto alignment = random_alignment(ntaxa, 90, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  for (tree::Slot* edge : tree.edges()) tree::Tree::set_length(edge, 4.0);

  LikelihoodEngine dense(patterns, model, tree, config_for(GetParam(), false));
  LikelihoodEngine repeats(patterns, model, tree, config_for(GetParam(), true));
  const double want = dense.log_likelihood(tree.tip(0));
  const double got = repeats.log_likelihood(tree.tip(0));
  ASSERT_TRUE(std::isfinite(want));
  EXPECT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-10);
}

TEST_P(SiteRepeats, DerivativesMatchDense) {
  Rng rng(31);
  const int ntaxa = 9;
  const auto alignment = random_alignment(ntaxa, 100, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  LikelihoodEngine dense(patterns, model, tree, config_for(GetParam(), false));
  LikelihoodEngine repeats(patterns, model, tree, config_for(GetParam(), true));
  for (tree::Slot* edge : tree.edges()) {
    dense.prepare_derivatives(edge);
    repeats.prepare_derivatives(edge);
    for (const double z : {0.05, 0.3, 1.5}) {
      const auto [df, ds] = dense.derivatives(z);
      const auto [rf, rs] = repeats.derivatives(z);
      EXPECT_NEAR(rf, df, std::abs(df) * 1e-10 + 1e-8);
      EXPECT_NEAR(rs, ds, std::abs(ds) * 1e-10 + 1e-8);
    }
  }
}

TEST_P(SiteRepeats, BranchOptimizationReusesClassMapsAndMatchesDense) {
  Rng rng(55);
  const int ntaxa = 11;
  const auto alignment = random_alignment(ntaxa, 120, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree dense_tree = tree::Tree::random(ntaxa, rng);
  tree::Tree repeat_tree(dense_tree);

  LikelihoodEngine dense(patterns, model, dense_tree, config_for(GetParam(), false));
  LikelihoodEngine repeats(patterns, model, repeat_tree, config_for(GetParam(), true));
  const double dense_lnl = dense.optimize_all_branches(dense_tree.tip(0), 2);
  const double repeat_lnl = repeats.optimize_all_branches(repeat_tree.tip(0), 2);
  EXPECT_NEAR(repeat_lnl, dense_lnl, std::abs(dense_lnl) * 1e-9 + 1e-7);

  // Branch-length optimization only calls invalidate_branch, so the class
  // maps built by the first traversal must have been reused verbatim: the
  // second smoothing pass may not have bumped any build version.  Probe via
  // a model change (values-only too) followed by one more evaluation.
  repeats.set_alpha(repeats.alpha() * 1.1);
  dense.set_alpha(dense.alpha() * 1.1);
  const double want = dense.log_likelihood(dense_tree.tip(0));
  const double got = repeats.log_likelihood(repeat_tree.tip(0));
  EXPECT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-8);
}

TEST_P(SiteRepeats, TopologyMoveStressAgainstDenseEngine) {
  // The repeats analogue of the engine's RandomMoveStressAgainstFreshEngine:
  // incremental NNI/SPR moves with invalidate_node, branch perturbations
  // with invalidate_branch, always comparing against a dense engine driven
  // through the same sequence.
  Rng rng(86420);
  const int ntaxa = 13;
  const auto alignment = random_alignment(ntaxa, 110, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);

  LikelihoodEngine dense(patterns, model, tree, config_for(GetParam(), false));
  LikelihoodEngine repeats(patterns, model, tree, config_for(GetParam(), true));
  (void)dense.log_likelihood(tree.tip(0));
  (void)repeats.log_likelihood(tree.tip(0));

  const auto invalidate_both = [&](int node_id) {
    dense.invalidate_node(node_id);
    repeats.invalidate_node(node_id);
  };

  for (int step = 0; step < 50; ++step) {
    if (rng.below(2) == 0) {
      std::vector<tree::Slot*> internal;
      for (tree::Slot* e : tree.edges()) {
        if (!e->is_tip() && !e->back->is_tip()) internal.push_back(e);
      }
      tree::Slot* edge = internal[rng.below(internal.size())];
      ASSERT_TRUE(tree::nni(tree, edge, static_cast<int>(rng.below(2))));
      invalidate_both(edge->node_id);
      invalidate_both(edge->back->node_id);
    } else {
      const int inner =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(tree.inner_count())));
      tree::Slot* p = tree.inner_slot(inner, static_cast<int>(rng.below(3)));
      const auto record = tree::prune(tree, p);
      invalidate_both(record.left->node_id);
      invalidate_both(record.right->node_id);
      invalidate_both(p->node_id);
      const auto candidates = tree::insertion_candidates(record, 4);
      if (candidates.empty()) {
        tree::undo_prune(tree, record);
        invalidate_both(record.left->node_id);
        invalidate_both(record.right->node_id);
        continue;
      }
      tree::Slot* e = candidates[rng.below(candidates.size())];
      tree::Slot* other = e->back;
      tree::regraft(tree, record, e, rng.uniform(0.2, 0.8));
      invalidate_both(e->node_id);
      invalidate_both(other->node_id);
      invalidate_both(p->node_id);
    }
    if (step % 3 == 0) {
      // Pure branch-length change: the weaker invalidation must suffice.
      tree::Slot* edge = tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
      tree::Tree::set_length(edge, rng.uniform(0.01, 1.0));
      dense.invalidate_branch(edge->node_id);
      dense.invalidate_branch(edge->back->node_id);
      repeats.invalidate_branch(edge->node_id);
      repeats.invalidate_branch(edge->back->node_id);
    }
    tree.validate();

    tree::Slot* root = tree.edges()[rng.below(static_cast<std::uint64_t>(tree.edge_count()))];
    const double want = dense.log_likelihood(root);
    const double got = repeats.log_likelihood(root);
    ASSERT_NEAR(got, want, std::abs(want) * 1e-10 + 1e-10) << "step=" << step;
  }
}

// --- Map reuse and the identity cutoff ----------------------------------

/// Ordered topology of the subtree behind every inner slot (tip ids only):
/// what a slot's class map is a function of.
std::map<int, std::string> subtree_keys(tree::Tree& tree) {
  std::map<int, std::string> keys;
  const auto key = [&](const auto& self, const tree::Slot* slot) -> std::string {
    if (slot->is_tip()) return std::to_string(slot->node_id);
    return "(" + self(self, slot->child1()) + "," + self(self, slot->child2()) + ")";
  };
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    for (int k = 0; k < 3; ++k) {
      const tree::Slot* slot = tree.inner_slot(inner, k);
      keys[slot->slot_index] = key(key, slot);
    }
  }
  return keys;
}

int changed_slots(const std::map<int, std::string>& before,
                  const std::map<int, std::string>& after) {
  int changed = 0;
  for (const auto& [slot, key] : after) changed += before.at(slot) != key ? 1 : 0;
  return changed;
}

/// Evaluates at every edge: each directed inner slot is an endpoint of
/// exactly one edge, so this computes the CLA toward every slot and brings
/// every class map up to date.
void evaluate_every_orientation(LikelihoodEngine& engine, tree::Tree& tree) {
  for (tree::Slot* edge : tree.edges()) (void)engine.log_likelihood(edge);
}

double dense_reference(const bio::PatternSet& patterns, const model::GtrModel& model,
                       const tree::Tree& tree, tree::Slot* edge) {
  tree::Tree copy(tree);
  LikelihoodEngine::Config config;
  config.site_repeats = false;
  LikelihoodEngine fresh(patterns, model, copy, config);
  return fresh.log_likelihood(copy.slot(edge->slot_index));
}

struct ReuseCase {
  const char* name;
  /// The minimum feasible budget (case "min_budget_spill", named when the
  /// spill tier ran there; every eviction now drops and recomputes).
  bool tight_budget;
  bool sdc_checks;
};

// gtest would otherwise dump the raw bytes (a string address and padding)
// into the listed test name, which then differs on every listing.
void PrintTo(const ReuseCase& c, std::ostream* os) { *os << c.name; }

class RepeatMapReuse : public ::testing::TestWithParam<ReuseCase> {
 protected:
  LikelihoodEngine::Config config_for(const bio::PatternSet& patterns,
                                      const model::GtrModel& model,
                                      const tree::Tree& base_tree) const {
    LikelihoodEngine::Config config;
    EXPECT_TRUE(config.site_repeats);  // the default under test
    config.sdc_checks = GetParam().sdc_checks;
    if (GetParam().tight_budget) {
      // The smallest budget, in full-width buffers, that still runs a
      // smoothing pass.
      const std::int64_t buffer_bytes = core::full_width_cla_bytes(
          static_cast<std::int64_t>(patterns.pattern_count()), core::kSiteBlock);
      for (int budget = core::min_cla_buffers(base_tree.inner_count());
           budget < base_tree.inner_count(); ++budget) {
        try {
          tree::Tree tree(base_tree);
          LikelihoodEngine::Config probe = config;
          probe.cla_budget_bytes = budget * buffer_bytes;
          LikelihoodEngine engine(patterns, model, tree, probe);
          (void)engine.optimize_all_branches(tree.tip(0), 1);
          config.cla_budget_bytes = probe.cla_budget_bytes;
          break;
        } catch (const Error&) {
          // working set does not fit; try one more buffer
        }
      }
      EXPECT_GT(config.cla_budget_bytes, 0);
      EXPECT_LT(config.cla_budget_bytes, base_tree.inner_count() * buffer_bytes);
    }
    return config;
  }
};

TEST_P(RepeatMapReuse, FixedTopologyNeverRebuilds) {
  Rng rng(2024);
  const int ntaxa = 12;
  const auto patterns =
      bio::uncompressed_patterns(duplicate_columns(random_alignment(ntaxa, 40, rng), 5));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  LikelihoodEngine engine(patterns, model, tree, config_for(patterns, model, tree));
  tree::Slot* root = tree.tip(0);

  evaluate_every_orientation(engine, tree);
  const std::int64_t built = engine.repeat_map_builds();
  EXPECT_GT(built, 0);
  EXPECT_LE(built, 3 * tree.inner_count());  // each directed slot at most once

  (void)engine.optimize_all_branches(root, 2);
  EXPECT_EQ(engine.repeat_map_builds(), built) << "per-branch Newton re-rooting";

  std::vector<BranchGradient> gradient;
  ASSERT_TRUE(engine.gradient_all_branches(root, gradient));
  EXPECT_EQ(engine.repeat_map_builds(), built) << "preorder gradient descent";

  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    engine.invalidate_node(tree.taxon_count() + inner);
  }
  const double lnl = engine.log_likelihood(root);
  EXPECT_EQ(engine.repeat_map_builds(), built) << "invalidate_node on every inner node";

  const double want = dense_reference(patterns, model, tree, root);
  EXPECT_NEAR(lnl, want, std::abs(want) * 1e-10);
}

TEST_P(RepeatMapReuse, SprCycleRebuildsOnlyChangedSubtrees) {
  // spr_round's call pattern: prune, then regraft / evaluate / ungraft per
  // candidate, then undo, each followed by invalidate_node on the incident
  // nodes.  After each step a sweep over every orientation brings every
  // map up to date, so the step's builds must equal the number of slots
  // whose subtree changed since their last build: on this low-diversity
  // alignment no slot is identity, so every changed slot must rebuild and
  // an equal count means no unchanged slot did.
  Rng rng(77);
  const int ntaxa = 11;
  const auto patterns =
      bio::uncompressed_patterns(duplicate_columns(random_alignment(ntaxa, 40, rng), 5));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  LikelihoodEngine engine(patterns, model, tree, config_for(patterns, model, tree));

  evaluate_every_orientation(engine, tree);
  std::map<int, std::string> built_keys = subtree_keys(tree);
  const auto invalidate = [&](std::initializer_list<int> nodes) {
    for (const int node : nodes) engine.invalidate_node(node);
  };
  const auto expect_step = [&](const char* step, std::int64_t before) {
    evaluate_every_orientation(engine, tree);
    const std::map<int, std::string> keys = subtree_keys(tree);
    EXPECT_EQ(engine.repeat_map_builds() - before, changed_slots(built_keys, keys)) << step;
    built_keys = keys;
  };

  int cycles = 0;
  for (int inner = 0; inner < tree.inner_count() && cycles < 4; ++inner) {
    tree::Slot* p = tree.inner_slot(inner, 0);
    const auto record = tree::prune(tree, p);
    const auto candidates = tree::insertion_candidates(record, 2);
    if (candidates.empty()) {
      tree::undo_prune(tree, record);
      continue;
    }
    ++cycles;
    std::int64_t before = engine.repeat_map_builds();
    invalidate({record.left->node_id, record.right->node_id, p->node_id});
    for (tree::Slot* e : candidates) {
      tree::Slot* other = e->back;
      tree::regraft(tree, record, e);
      invalidate({e->node_id, other->node_id, p->node_id});
      const double lnl = engine.log_likelihood(p->next);
      const double want = dense_reference(patterns, model, tree, p->next);
      EXPECT_NEAR(lnl, want, std::abs(want) * 1e-10);
      expect_step("regraft", before);

      before = engine.repeat_map_builds();
      tree::ungraft(tree, record);
      invalidate({e->node_id, other->node_id, p->node_id});
    }
    tree::undo_prune(tree, record);
    invalidate({record.left->node_id, record.right->node_id, p->node_id});
    const double lnl = engine.log_likelihood(p->next);
    EXPECT_NEAR(lnl, dense_reference(patterns, model, tree, p->next), std::abs(lnl) * 1e-10);
    expect_step("undo", before);
  }
  EXPECT_EQ(cycles, 4);
}

INSTANTIATE_TEST_SUITE_P(Configs, RepeatMapReuse,
                         ::testing::Values(ReuseCase{"plain", false, false},
                                           ReuseCase{"min_budget_spill", true, false},
                                           ReuseCase{"sdc_checks", false, true}),
                         [](const auto& param_info) { return std::string(param_info.param.name); });

// --- Dedup paths and identity by leaf-set subset ---------------------------

/// Whether two engines hold the same class record for every slot of `a`'s
/// tree (the trees are copies, so slot indices match).
void expect_same_records(const LikelihoodEngine& a, tree::Tree& tree_a,
                         const LikelihoodEngine& b, tree::Tree& tree_b,
                         const std::string& what) {
  for (int inner = 0; inner < tree_a.inner_count(); ++inner) {
    for (int k = 0; k < 3; ++k) {
      const auto ra = a.class_record(tree_a.inner_slot(inner, k));
      const auto rb = b.class_record(tree_b.inner_slot(inner, k));
      EXPECT_TRUE(std::ranges::equal(ra.class_of_site, rb.class_of_site) &&
                  std::ranges::equal(ra.left, rb.left) && std::ranges::equal(ra.right, rb.right))
          << what << ": slot " << tree_a.inner_slot(inner, k)->slot_index;
    }
  }
}

/// Unrooted tree over taxon0..taxon11 with two 5-taxon clades and a cherry:
/// the slot toward the cherry has the two 5-taxon clades as children.
tree::Tree two_wide_clades(const std::vector<std::string>& names) {
  const auto clade = [&](int first) {
    const auto leaf = [&](int t) { return names[static_cast<std::size_t>(t)] + ":0.1"; };
    return "(((" + leaf(first) + "," + leaf(first + 1) + "):0.1," + leaf(first + 2) + "):0.1,(" +
           leaf(first + 3) + "," + leaf(first + 4) + "):0.1):0.1";
  };
  const std::string text =
      "(" + clade(0) + "," + clade(5) + ",(" + names[10] + ":0.1," + names[11] + ":0.1):0.1);";
  return tree::Tree::from_newick(*io::parse_newick(text), names);
}

TEST(RepeatDedupPaths, DirectAndHashedBuildIdenticalRecords) {
  // Narrow: duplicated low-diversity columns, every span far below 2^18.
  // Wide: 1,000 random columns × 4 on two 5-taxon clades, ~640 classes
  // each, so the slot over both spans ~4·10^5 pairs yet stays compressed.
  struct Case {
    const char* name;
    bool wide;
  };
  for (const Case c : {Case{"narrow", false}, Case{"wide", true}}) {
    Rng rng(c.wide ? 3301 : 3302);
    const int ntaxa = 12;
    const auto base = random_alignment(ntaxa, c.wide ? 1000 : 40, rng);
    const auto patterns = bio::uncompressed_patterns(duplicate_columns(base, c.wide ? 4 : 5));
    const model::GtrModel model(random_gtr_params(rng));
    const tree::Tree base_tree =
        c.wide ? two_wide_clades(base.taxon_names()) : tree::Tree::random(ntaxa, rng);

    // Default split, every build hashed, every build direct.
    const std::uint64_t spans[] = {LikelihoodEngine::kDirectSpan, 0,
                                   std::uint64_t{1} << 22};
    std::vector<tree::Tree> trees(3, base_tree);
    std::vector<std::unique_ptr<LikelihoodEngine>> engines;
    for (int e = 0; e < 3; ++e) {
      engines.push_back(std::make_unique<LikelihoodEngine>(
          patterns, model, trees[static_cast<std::size_t>(e)], LikelihoodEngine::Config{}));
      engines.back()->set_repeat_direct_span(spans[e]);
    }
    std::vector<double> lnl(3);
    for (int edge = 0; edge < base_tree.edge_count(); ++edge) {
      for (std::size_t e = 0; e < 3; ++e) {
        lnl[e] = engines[e]->log_likelihood(trees[e].edges()[static_cast<std::size_t>(edge)]);
      }
      EXPECT_EQ(lnl[1], lnl[0]) << c.name << " edge " << edge;
      EXPECT_EQ(lnl[2], lnl[0]) << c.name << " edge " << edge;
    }
    const auto& automatic = engines[0]->repeat_map_stats();
    const auto& hashed = engines[1]->repeat_map_stats();
    const auto& direct = engines[2]->repeat_map_stats();
    EXPECT_EQ(hashed.builds, automatic.builds) << c.name;
    EXPECT_EQ(direct.builds, automatic.builds) << c.name;
    EXPECT_EQ(hashed.direct, 0) << c.name;
    EXPECT_EQ(direct.hashed, 0) << c.name;
    EXPECT_GT(automatic.direct, 0) << c.name;
    // Only the wide case has a span above 2^18, so only it hashes by default.
    EXPECT_EQ(automatic.hashed > 0, c.wide) << c.name;
    for (std::size_t e = 0; e < 3; ++e) {
      EXPECT_EQ(engines[e]->repeat_map_stats().identity_by_subset, 0) << c.name;
      EXPECT_LT(engines[e]->unique_site_ratio(), 1.0) << c.name;  // nothing went identity
    }
    expect_same_records(*engines[0], trees[0], *engines[1], trees[1], c.name);
    expect_same_records(*engines[0], trees[0], *engines[2], trees[2], c.name);
  }
}

/// Bit-compares the CLA of every inner node of two engines over copies of
/// one tree, and the records of the slots the CLAs point through (both
/// engines last evaluated at the same edge, so every node points at it).
void expect_same_traversal(LikelihoodEngine& a, tree::Tree& tree_a, LikelihoodEngine& b,
                           tree::Tree& tree_b, tree::Slot* root_a, const std::string& what) {
  for (int inner = 0; inner < tree_a.inner_count(); ++inner) {
    const std::int64_t blocks = a.cla_store().blocks(inner);
    ASSERT_EQ(b.cla_store().blocks(inner), blocks) << what << ": node " << inner;
    auto& sa = a.cla_store_for_testing();
    auto& sb = b.cla_store_for_testing();
    EXPECT_TRUE(std::equal(sa.values(inner), sa.values(inner) + blocks * kSiteBlock,
                           sb.values(inner)))
        << what << ": node " << inner;
    EXPECT_TRUE(std::equal(sa.scales(inner), sa.scales(inner) + blocks, sb.scales(inner)))
        << what << ": node " << inner;
  }
  const auto visit = [&](const auto& self, const tree::Slot* slot) -> void {
    if (slot->is_tip()) return;
    const auto ra = a.class_record(slot);
    const auto rb = b.class_record(tree_b.slot(slot->slot_index));
    EXPECT_TRUE(std::ranges::equal(ra.class_of_site, rb.class_of_site) &&
                std::ranges::equal(ra.left, rb.left) && std::ranges::equal(ra.right, rb.right))
        << what << ": slot " << slot->slot_index;
    self(self, slot->child1());
    self(self, slot->child2());
  };
  visit(visit, root_a);
  visit(visit, root_a->back);
}

TEST(RepeatIdentityBySubset, SupersetSlotsSkipHashingWithIdenticalClas) {
  // 300 random columns: a subtree of 5 or more taxa is above the identity
  // cutoff, smaller ones compress.  SPR cycles regroup taxa under slots
  // whose children are both small (compressed) while their union holds a
  // leaf set hashing already found identity; those decide by subset.  A
  // fresh engine on a copy of the tree decides every slot by hashing (one
  // traversal never meets a superset of a finished slot other than its
  // ancestors, which are identity by the child rule), so it is the
  // reference for the CLAs, records and lnL.
  Rng rng(4411);
  const int ntaxa = 16;
  const auto patterns = bio::compress_patterns(random_alignment(ntaxa, 300, rng));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  LikelihoodEngine::Config config;
  config.metrics = obs::MetricsMode::kOn;
  LikelihoodEngine engine(patterns, model, tree, config);

  obs::Registry& registry = obs::Registry::instance();
  const auto ids = register_repeat_map_metrics();
  const std::int64_t builds0 = registry.value(ids.builds);
  const std::int64_t direct0 = registry.value(ids.direct);
  const std::int64_t hashed0 = registry.value(ids.hashed);
  const std::int64_t subset0 = registry.value(ids.identity_by_subset);
  const std::int64_t observed0 = registry.histogram_snapshot(ids.ns).count;

  int compared = 0;
  const auto compare_with_fresh = [&](tree::Slot* root, const char* step) {
    const std::int64_t before = engine.repeat_map_stats().identity_by_subset;
    const double lnl = engine.log_likelihood(root);
    if (engine.repeat_map_stats().identity_by_subset == before) return;
    tree::Tree copy(tree);
    LikelihoodEngine fresh(patterns, model, copy, LikelihoodEngine::Config{});
    tree::Slot* copy_root = copy.slot(root->slot_index);
    EXPECT_EQ(fresh.log_likelihood(copy_root), lnl) << step;
    EXPECT_EQ(fresh.repeat_map_stats().identity_by_subset, 0) << step;
    expect_same_traversal(engine, tree, fresh, copy, root, step);
    ++compared;
  };

  for (tree::Slot* edge : tree.edges()) compare_with_fresh(edge, "sweep");
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    tree::Slot* p = tree.inner_slot(inner, 0);
    const auto record = tree::prune(tree, p);
    const auto candidates = tree::insertion_candidates(record, 3);
    engine.invalidate_node(record.left->node_id);
    engine.invalidate_node(record.right->node_id);
    engine.invalidate_node(p->node_id);
    for (tree::Slot* e : candidates) {
      tree::Slot* other = e->back;
      tree::regraft(tree, record, e);
      engine.invalidate_node(e->node_id);
      engine.invalidate_node(other->node_id);
      engine.invalidate_node(p->node_id);
      compare_with_fresh(p->next, "regraft");
      compare_with_fresh(p->next->next, "regraft, other side");
      tree::ungraft(tree, record);
      engine.invalidate_node(e->node_id);
      engine.invalidate_node(other->node_id);
      engine.invalidate_node(p->node_id);
    }
    tree::undo_prune(tree, record);
    engine.invalidate_node(record.left->node_id);
    engine.invalidate_node(record.right->node_id);
    engine.invalidate_node(p->node_id);
    compare_with_fresh(p->next, "undo");
  }
  const auto& stats = engine.repeat_map_stats();
  EXPECT_GT(compared, 0);
  EXPECT_GT(stats.identity_by_subset, 0);
  EXPECT_GT(stats.direct, 0);

  // The registry family counts the same builds.
  EXPECT_EQ(registry.value(ids.builds) - builds0, stats.builds);
  EXPECT_EQ(registry.value(ids.direct) - direct0, stats.direct);
  EXPECT_EQ(registry.value(ids.hashed) - hashed0, stats.hashed);
  EXPECT_EQ(registry.value(ids.identity_by_subset) - subset0, stats.identity_by_subset);
  EXPECT_EQ(registry.histogram_snapshot(ids.ns).count - observed0, stats.builds);
}

TEST(RepeatIdentityCutoff, HighDiversityRunsNearRootSlotsAsIdentity) {
  // Random columns on many taxa are distinct in every large subtree.  The
  // last 45 of 300 columns repeat an earlier column everywhere but at tip
  // 0, so the subtree behind the root edge's inner endpoint (all taxa but
  // tip 0) has 255 classes for 300 sites: above the cutoff, so it must run
  // as identity and compute every site it represents.
  Rng rng(5150);
  const int ntaxa = 24;
  const auto base = random_alignment(ntaxa, 255, rng);
  std::vector<std::string> names;
  std::vector<std::vector<bio::DnaCode>> rows;
  for (std::size_t t = 0; t < base.taxon_count(); ++t) {
    names.push_back(base.taxon_name(t));
    const auto row = base.row(t);
    std::vector<bio::DnaCode> out(row.begin(), row.end());
    for (std::size_t j = 0; j < 45; ++j) {
      const bio::DnaCode code = row[j];
      out.push_back(t != 0 ? code : static_cast<bio::DnaCode>(code == 1 ? 2 : 1));
    }
    rows.push_back(std::move(out));
  }
  const auto patterns = bio::compress_patterns(bio::Alignment(std::move(names), std::move(rows)));
  ASSERT_EQ(patterns.pattern_count(), 300u);
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  KernelTrace trace;
  LikelihoodEngine::Config config;
  config.trace = &trace;
  LikelihoodEngine engine(patterns, model, tree, config);
  tree::Slot* root = tree.tip(0);
  const double lnl = engine.log_likelihood(root);
  EXPECT_NEAR(lnl, dense_reference(patterns, model, tree, root), std::abs(lnl) * 1e-10);

  // The root edge's inner endpoint is the last newview of the traversal.
  const tree::Slot* endpoint = root->back;
  ASSERT_FALSE(endpoint->is_tip());
  EXPECT_EQ(engine.node_unique_classes(endpoint->node_id), engine.slice_size());
  int identity_calls = 0;
  int compressed_calls = 0;
  const TraceCall* last = nullptr;
  for (const TraceCall& call : trace.calls) {
    if (call.kernel != TraceKernel::kNewview) continue;
    last = &call;
    (call.sites == call.sites_represented ? identity_calls : compressed_calls) += 1;
    EXPECT_LE(call.sites, call.sites_represented);
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->sites, last->sites_represented);
  EXPECT_GT(identity_calls, 0);
  EXPECT_GT(compressed_calls, 0);  // cherries still compress
}

TEST(RepeatIdentityCutoff, LowDiversityCompressesEverySlot) {
  Rng rng(5151);
  const int ntaxa = 24;
  const auto patterns =
      bio::uncompressed_patterns(duplicate_columns(random_alignment(ntaxa, 50, rng), 6));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  KernelTrace trace;
  LikelihoodEngine::Config config;
  config.trace = &trace;
  LikelihoodEngine engine(patterns, model, tree, config);
  const double lnl = engine.optimize_all_branches(tree.tip(0), 1);
  EXPECT_NEAR(lnl, dense_reference(patterns, model, tree, tree.tip(0)), std::abs(lnl) * 1e-10);
  for (const TraceCall& call : trace.calls) {
    if (call.kernel != TraceKernel::kNewview) continue;
    EXPECT_LE(call.sites * 6, call.sites_represented);
  }
  EXPECT_LE(engine.unique_site_ratio(), 1.0 / 6.0 + 1e-12);
}

// CLA buffers are allocated on write and sized by what newview computes:
// a compressed slot holds its class count of blocks, an identity slot the
// full width.
TEST(ClassSizedBuffers, FreshEngineHoldsNoClaBytes) {
  Rng rng(6161);
  const auto patterns = bio::compress_patterns(random_alignment(12, 120, rng));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(12, rng);
  const LikelihoodEngine engine(patterns, model, tree, LikelihoodEngine::Config{});
  EXPECT_EQ(engine.cla_store().held_bytes(), 0);
  EXPECT_TRUE(engine.cla_store().full_resident());
}

TEST(ClassSizedBuffers, FullTraversalHoldsExactlyTheClassBlocks) {
  Rng rng(6262);
  const int ntaxa = 16;
  const auto patterns =
      bio::uncompressed_patterns(duplicate_columns(random_alignment(ntaxa, 60, rng), 4));
  const model::GtrModel model(random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  LikelihoodEngine engine(patterns, model, tree, LikelihoodEngine::Config{});
  (void)engine.log_likelihood(tree.tip(0));

  // One full traversal computes every inner node once, toward tip 0.
  constexpr std::int64_t kBlockBytes =
      kSiteBlock * static_cast<std::int64_t>(sizeof(double)) +
      static_cast<std::int64_t>(sizeof(std::int32_t));
  std::int64_t class_blocks = 0;
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    const std::int64_t unique = engine.node_unique_classes(tree.taxon_count() + inner);
    ASSERT_GT(unique, 0) << "inner node " << inner << " not computed";
    EXPECT_EQ(engine.cla_store().blocks(inner), unique) << "inner node " << inner;
    class_blocks += unique;
  }
  EXPECT_EQ(engine.cla_store().held_bytes(), class_blocks * kBlockBytes);
  EXPECT_LT(class_blocks, tree.inner_count() * engine.slice_size());
}

INSTANTIATE_TEST_SUITE_P(Isas, SiteRepeats,
                         ::testing::Values(simd::Isa::kScalar, simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const auto& param_info) { return simd::to_string(param_info.param); });

}  // namespace
}  // namespace miniphi::core
