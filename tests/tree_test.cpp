// Tests for src/tree: structure invariants, Newick round trips, traversal,
// SPR/NNI moves with undo, splits/RF, parsimony.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "src/bio/aa.hpp"
#include "src/bio/protein_alignment.hpp"
#include "src/search/bootstrap.hpp"
#include "src/tree/moves.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "src/tree/tree.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::tree {
namespace {

TEST(Tree, CountsAreConsistent) {
  Tree tree(7);
  EXPECT_EQ(tree.taxon_count(), 7);
  EXPECT_EQ(tree.inner_count(), 5);
  EXPECT_EQ(tree.edge_count(), 11);
  EXPECT_EQ(tree.slot_count(), 22);
  EXPECT_THROW(Tree(2), Error);
}

class RandomTree : public ::testing::TestWithParam<int> {};

TEST_P(RandomTree, IsValidBinaryUnrooted) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Tree tree = Tree::random(GetParam() + 3, rng);
  EXPECT_NO_THROW(tree.validate());
  EXPECT_EQ(static_cast<int>(tree.edges().size()), tree.edge_count());
  // Every tip connects to an inner node.
  for (int i = 0; i < tree.taxon_count(); ++i) {
    EXPECT_FALSE(tree.tip(i)->back->is_tip());
  }
}

TEST_P(RandomTree, CopyIsDeepAndEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  Tree tree = Tree::random(GetParam() + 4, rng);
  Tree copy(tree);
  copy.validate();
  EXPECT_EQ(robinson_foulds(tree, copy), 0);
  // Mutating the copy must not affect the original.
  Tree::set_length(copy.tip(0), 9.9);
  EXPECT_NE(tree.tip(0)->length, 9.9);
}

TEST_P(RandomTree, NewickRoundTripPreservesTopology) {
  const int ntaxa = GetParam() + 4;
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7);
  Tree tree = Tree::random(ntaxa, rng);
  const auto names = testutil::taxon_names(ntaxa);
  const std::string newick = tree.to_newick(names);
  const auto ast = io::parse_newick(newick);
  Tree parsed = Tree::from_newick(*ast, names);
  EXPECT_EQ(robinson_foulds(tree, parsed), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTree, ::testing::Values(0, 1, 2, 5, 10, 20, 47));

TEST(Tree, FromNewickTrifurcatingRoot) {
  const auto ast = io::parse_newick("((t0:0.1,t1:0.2):0.3,t2:0.4,t3:0.5);");
  Tree tree = Tree::from_newick(*ast, testutil::taxon_names(4));
  tree.validate();
  EXPECT_EQ(tree.taxon_count(), 4);
}

TEST(Tree, FromNewickCollapsesRootedTrees) {
  // Rooted (binary root) input: root branch lengths are fused.
  const auto ast = io::parse_newick("((t0:0.1,t1:0.2):0.3,t2:0.4);");
  Tree tree = Tree::from_newick(*ast, testutil::taxon_names(3));
  tree.validate();
  // Fused branch t2<->inner should be 0.3 + 0.4.
  EXPECT_NEAR(tree.tip(2)->length, 0.7, 1e-12);
}

TEST(Tree, FromNewickRejectsBadInput) {
  const auto names3 = testutil::taxon_names(3);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("(t0:1,t1:1,zzz:1);"), names3), Error);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("(t0:1,t1:1,t2:1,t3:1);"), names3), Error);
  // Multifurcation below the root.
  const auto names5 = testutil::taxon_names(5);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("((t0,t1,t2),t3,t4);"), names5), Error);
}

TEST(Tree, TraversalIsPostOrderAndComplete) {
  Rng rng(3);
  Tree tree = Tree::random(10, rng);
  const auto order = tree.full_traversal(tree.tip(0)->back);
  // All 8 inner nodes appear exactly once...
  std::set<int> nodes;
  for (const Slot* s : order) nodes.insert(s->node_id);
  EXPECT_EQ(order.size(), 8u);
  EXPECT_EQ(nodes.size(), 8u);
  // ...and children always precede parents.
  std::set<const Slot*> done;
  for (const Slot* s : order) {
    for (const Slot* child : {s->child1(), s->child2()}) {
      if (!child->is_tip()) {
        EXPECT_TRUE(done.count(child)) << "child after parent";
      }
    }
    done.insert(s);
  }
}

TEST(Tree, PartialTraversalRespectsValidity) {
  Rng rng(4);
  Tree tree = Tree::random(8, rng);
  Slot* goal = tree.tip(0)->back;
  // Nothing valid: full list.  Everything valid: empty list.
  EXPECT_EQ(tree.traversal(goal, [](const Slot*) { return true; }).size(), 6u);
  EXPECT_TRUE(tree.traversal(goal, [](const Slot*) { return false; }).empty());
}

TEST(Moves, PruneRegraftChangesTopologyAndUndoRestoresIt) {
  Rng rng(11);
  Tree tree = Tree::random(12, rng);
  const Tree original(tree);

  // Prune some inner node with a tip subtree behind it.
  Slot* p = tree.tip(5)->back;
  ASSERT_FALSE(p->is_tip());
  const auto record = prune(tree, p);

  // Regraft into a distant edge.
  const auto candidates = insertion_candidates(record, 3);
  ASSERT_FALSE(candidates.empty());
  regraft(tree, record, candidates.back());
  tree.validate();
  EXPECT_GT(robinson_foulds(original, tree), 0);

  // Remove the graft and restore the original position.
  ungraft(tree, record);
  undo_prune(tree, record);
  tree.validate();
  EXPECT_EQ(robinson_foulds(original, tree), 0);

  // Branch lengths restored too.
  for (int i = 0; i < tree.slot_count(); ++i) {
    EXPECT_DOUBLE_EQ(tree.slot(i)->length, original.slot(i)->length);
  }
}

TEST(Moves, PrunePreservesTotalPathLength) {
  Rng rng(12);
  Tree tree = Tree::random(9, rng);
  Slot* p = tree.tip(2)->back;
  const double joined = p->next->length + p->next->next->length;
  const auto record = prune(tree, p);
  EXPECT_DOUBLE_EQ(record.left->length, joined);
  undo_prune(tree, record);
  tree.validate();
}

TEST(Moves, NniTwiceIsIdentity) {
  Rng rng(13);
  Tree tree = Tree::random(10, rng);
  const Tree original(tree);
  Slot* internal = nullptr;
  for (Slot* e : tree.edges()) {
    if (!e->is_tip() && !e->back->is_tip()) {
      internal = e;
      break;
    }
  }
  ASSERT_NE(internal, nullptr);
  for (const int variant : {0, 1}) {
    ASSERT_TRUE(nni(tree, internal, variant));
    tree.validate();
    EXPECT_GT(robinson_foulds(original, tree), 0);
    ASSERT_TRUE(nni(tree, internal, variant));
    tree.validate();
    EXPECT_EQ(robinson_foulds(original, tree), 0);
  }
}

TEST(Moves, NniOnTerminalEdgeIsRejected) {
  Rng rng(14);
  Tree tree = Tree::random(6, rng);
  EXPECT_FALSE(nni(tree, tree.tip(0), 0));
}

TEST(Moves, InsertionCandidatesGrowWithRadius) {
  Rng rng(15);
  Tree tree = Tree::random(20, rng);
  Slot* p = tree.tip(7)->back;
  const auto record = prune(tree, p);
  const auto near = insertion_candidates(record, 1);
  const auto far = insertion_candidates(record, 5);
  EXPECT_GT(far.size(), near.size());
  // All candidates are live edges.
  for (const Slot* e : far) EXPECT_NE(e->back, nullptr);
  undo_prune(tree, record);
}

TEST(Splits, IdenticalTreesHaveZeroDistance) {
  Rng rng(21);
  Tree a = Tree::random(15, rng);
  Tree b(a);
  EXPECT_EQ(robinson_foulds(a, b), 0);
  EXPECT_DOUBLE_EQ(robinson_foulds_normalized(a, b), 0.0);
}

TEST(Splits, DifferentRandomTreesAreFar) {
  Rng rng1(31), rng2(32);
  Tree a = Tree::random(30, rng1);
  Tree b = Tree::random(30, rng2);
  const int rf = robinson_foulds(a, b);
  EXPECT_GT(rf, 0);
  EXPECT_LE(rf, 2 * (30 - 3));
  EXPECT_EQ(robinson_foulds(a, b), robinson_foulds(b, a));
}

TEST(Splits, CountsNonTrivialSplits) {
  Rng rng(41);
  Tree tree = Tree::random(10, rng);
  EXPECT_EQ(tree_splits(tree).size(), 7u);  // n - 3 internal edges
}

TEST(Parsimony, PerfectDataScoresMinimal) {
  // One column, all taxa identical: zero mutations.
  io::SequenceSet records = {{"t0", "A"}, {"t1", "A"}, {"t2", "A"}, {"t3", "A"}};
  bio::Alignment alignment(records);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(1);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, patterns), 0u);
}

TEST(Parsimony, SingleVariantColumnCostsOne) {
  io::SequenceSet records = {{"t0", "A"}, {"t1", "A"}, {"t2", "A"}, {"t3", "C"}};
  bio::Alignment alignment(records);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(2);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, patterns), 1u);
}

TEST(Parsimony, WeightsMultiplyCosts) {
  io::SequenceSet records = {{"t0", "AAAC"}, {"t1", "AAAC"}, {"t2", "AAAA"}, {"t3", "CCCA"}};
  bio::Alignment alignment(records);
  const auto compressed = bio::compress_patterns(alignment);
  const auto uncompressed = bio::uncompressed_patterns(alignment);
  Rng rng(3);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, compressed), fitch_score(tree, uncompressed));
}

TEST(Parsimony, StartingTreeBeatsRandomTree) {
  Rng rng(51);
  const auto alignment = testutil::random_alignment(12, 200, rng);
  const auto patterns = bio::compress_patterns(alignment);

  Rng rng_tree(52);
  Tree start = parsimony_starting_tree(patterns, rng_tree);
  start.validate();

  // Compare against the average of a few random topologies.
  std::uint64_t random_total = 0;
  const int trials = 5;
  for (int i = 0; i < trials; ++i) {
    Tree random_tree = Tree::random(12, rng_tree);
    random_total += fitch_score(random_tree, patterns);
  }
  EXPECT_LE(fitch_score(start, patterns), random_total / trials);
}

TEST(Parsimony, StartingTreeIsDeterministicGivenSeed) {
  Rng rng(61);
  const auto alignment = testutil::random_alignment(10, 100, rng);
  const auto patterns = bio::compress_patterns(alignment);
  Rng a(99), b(99);
  Tree ta = parsimony_starting_tree(patterns, a);
  Tree tb = parsimony_starting_tree(patterns, b);
  EXPECT_EQ(robinson_foulds(ta, tb), 0);
}

// The stepwise addition the library used before its bit-sliced scorer, kept
// as an oracle: every candidate edge rescored from scratch by a recursive
// Fitch pass with one vector per node, O(n³·m).  Codes are resolved to state
// sets through the same mask table, which for DNA is the identity.
namespace reference {

using StateSets = std::vector<std::uint32_t>;

struct Data {
  std::vector<StateSets> tips;
  const std::vector<std::uint32_t>& weights;
};

Data resolve(const bio::PatternSet& patterns, const std::vector<std::uint32_t>& masks) {
  Data data{{}, patterns.weights};
  for (const auto& row : patterns.tip_rows) {
    StateSets sets;
    for (const auto code : row) sets.push_back(masks.at(code));
    data.tips.push_back(std::move(sets));
  }
  return data;
}

StateSets fitch_down(const Slot* slot, const Data& data, std::uint64_t& cost) {
  if (slot->is_tip()) return data.tips[static_cast<std::size_t>(slot->node_id)];
  const auto s1 = fitch_down(slot->child1(), data, cost);
  const auto s2 = fitch_down(slot->child2(), data, cost);
  StateSets out(s1.size());
  for (std::size_t p = 0; p < s1.size(); ++p) {
    out[p] = s1[p] & s2[p];
    if (out[p] == 0) {
      out[p] = s1[p] | s2[p];
      cost += data.weights[p];
    }
  }
  return out;
}

std::uint64_t score_component(const Slot* anchor_tip, const Data& data) {
  std::uint64_t cost = 0;
  const auto states = fitch_down(anchor_tip->back, data, cost);
  const auto& anchor = data.tips[static_cast<std::size_t>(anchor_tip->node_id)];
  for (std::size_t p = 0; p < states.size(); ++p) {
    if ((states[p] & anchor[p]) == 0) cost += data.weights[p];
  }
  return cost;
}

void collect_component_edges(Slot* slot, std::vector<Slot*>& out) {
  out.push_back(slot);
  if (slot->back->is_tip()) return;
  collect_component_edges(slot->back->next, out);
  collect_component_edges(slot->back->next->next, out);
}

std::uint64_t fitch_score(const Tree& tree, const bio::PatternSet& patterns,
                          const std::vector<std::uint32_t>& masks = bio::dna_code_masks()) {
  return score_component(tree.tip(0), resolve(patterns, masks));
}

Tree parsimony_starting_tree(const bio::PatternSet& patterns, Rng& rng,
                             const std::vector<std::uint32_t>& masks = bio::dna_code_masks()) {
  const Data data = resolve(patterns, masks);
  const int ntaxa = static_cast<int>(patterns.taxon_count());
  Tree tree(ntaxa);
  std::vector<int> order(static_cast<std::size_t>(ntaxa));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  tree.connect(tree.tip(order[0]), tree.inner_slot(0, 0), kDefaultBranchLength);
  tree.connect(tree.tip(order[1]), tree.inner_slot(0, 1), kDefaultBranchLength);
  tree.connect(tree.tip(order[2]), tree.inner_slot(0, 2), kDefaultBranchLength);

  const auto insert = [&](Slot* edge, Slot* tip, int inner) {
    Slot* other = edge->back;
    const double length = edge->length;
    tree.disconnect(edge);
    tree.connect(edge, tree.inner_slot(inner, 0), length * 0.5);
    tree.connect(other, tree.inner_slot(inner, 1), length * 0.5);
    tree.connect(tip, tree.inner_slot(inner, 2), kDefaultBranchLength);
  };
  for (int i = 3; i < ntaxa; ++i) {
    Slot* tip = tree.tip(order[static_cast<std::size_t>(i)]);
    Slot* anchor = tree.tip(order[0]);
    std::vector<Slot*> edges;
    collect_component_edges(anchor, edges);
    Slot* best_edge = nullptr;
    std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
    for (Slot* edge : edges) {
      Slot* other = edge->back;
      const double length = edge->length;
      insert(edge, tip, i - 2);
      const std::uint64_t score = score_component(anchor, data);
      if (score < best_score) {
        best_score = score;
        best_edge = edge;
      }
      tree.disconnect(edge);
      tree.disconnect(other);
      tree.disconnect(tip);
      tree.connect(edge, other, length);
    }
    insert(best_edge, tip, i - 2);
  }
  return tree;
}

}  // namespace reference

/// Asserts that the library builds the reference's tree for `seed`: the
/// same Newick string (topology and halved branch lengths) and score.
void expect_reference_tree(const bio::PatternSet& patterns, std::uint64_t seed,
                           const std::vector<std::uint32_t>& masks = bio::dna_code_masks()) {
  SCOPED_TRACE("taxa " + std::to_string(patterns.taxon_count()) + ", patterns " +
               std::to_string(patterns.pattern_count()) + ", seed " + std::to_string(seed));
  Rng rng_new(seed), rng_ref(seed);
  const Tree built = parsimony_starting_tree(patterns, rng_new, masks);
  const Tree expected = reference::parsimony_starting_tree(patterns, rng_ref, masks);
  const auto names = testutil::taxon_names(static_cast<int>(patterns.taxon_count()));
  EXPECT_EQ(built.to_newick(names), expected.to_newick(names));
  EXPECT_EQ(fitch_score(built, patterns, masks), reference::fitch_score(expected, patterns, masks));
  EXPECT_EQ(rng_new(), rng_ref());
}

TEST(ParsimonyOracle, SameTreesAcrossTaxonCounts) {
  // Pattern counts near but off multiples of 64, with ambiguity codes and
  // gaps (0xF) in a tenth of the cells.
  for (const int ntaxa : {3, 4, 5, 16, 48}) {
    for (const int sites : {1, 63, 130, 257}) {
      Rng rng(static_cast<std::uint64_t>(1000 * ntaxa + sites));
      const auto patterns =
          bio::compress_patterns(testutil::random_alignment(ntaxa, sites, rng, 0.1));
      for (const std::uint64_t seed : {1u, 2u, 3u}) expect_reference_tree(patterns, seed);
    }
  }
}

TEST(ParsimonyOracle, SameTreesWithManyWeights) {
  // 9 weights interleaved over 1,300 patterns (about 144 per weight, so
  // full words and a tail word per weight), then 60 weights over 450
  // patterns (mostly tail words).
  for (const auto& [sites, distinct] : {std::pair{1300, 9}, std::pair{450, 60}}) {
    Rng rng(static_cast<std::uint64_t>(sites + distinct));
    auto patterns = bio::uncompressed_patterns(testutil::random_alignment(16, sites, rng, 0.05));
    for (std::size_t p = 0; p < patterns.weights.size(); ++p) {
      patterns.weights[p] = 1 + static_cast<std::uint32_t>((p * 7) % static_cast<std::size_t>(distinct));
    }
    for (const std::uint64_t seed : {4u, 5u}) expect_reference_tree(patterns, seed);
  }
}

TEST(ParsimonyOracle, SameTreesOnBootstrapReplicates) {
  Rng rng(71);
  const auto patterns = bio::compress_patterns(testutil::random_alignment(16, 300, rng, 0.05));
  for (const std::uint64_t replicate : {1u, 2u, 3u}) {
    Rng draw(replicate);
    const auto resampled = search::bootstrap_resample(patterns, draw);
    ASSERT_GT(std::count(resampled.weights.begin(), resampled.weights.end(), 0u), 0);
    expect_reference_tree(resampled, replicate);
  }
}

TEST(ParsimonyOracle, AllConstantDataTiesEverywhere) {
  // Every candidate scores 0, so every insertion takes the first edge.
  io::SequenceSet records;
  for (int t = 0; t < 16; ++t) records.push_back({"t" + std::to_string(t), "ACGTTGCA"});
  const auto patterns = bio::compress_patterns(bio::Alignment(records));
  for (const std::uint64_t seed : {6u, 7u}) {
    expect_reference_tree(patterns, seed);
    Rng rng(seed);
    EXPECT_EQ(fitch_score(parsimony_starting_tree(patterns, rng), patterns), 0u);
  }
}

TEST(ParsimonyOracle, FitchScoreMatchesReferenceOnRandomTrees) {
  for (const int ntaxa : {3, 5, 16, 48}) {
    Rng rng(static_cast<std::uint64_t>(ntaxa));
    auto patterns = bio::compress_patterns(testutil::random_alignment(ntaxa, 200, rng, 0.1));
    for (std::size_t p = 0; p < patterns.weights.size(); ++p) {
      patterns.weights[p] = static_cast<std::uint32_t>(p % 4);  // zeros included
    }
    for (int trial = 0; trial < 3; ++trial) {
      const Tree tree = Tree::random(ntaxa, rng);
      EXPECT_EQ(fitch_score(tree, patterns), reference::fitch_score(tree, patterns));
    }
  }
}

TEST(ParsimonyOracle, ProteinTreesMatchReferenceUnderAaMasks) {
  const char* const kResidues = "ARNDCQEGHILKMFPSTWYVBZX";
  for (const int ntaxa : {5, 16}) {
    Rng rng(static_cast<std::uint64_t>(300 + ntaxa));
    io::SequenceSet records;
    for (int t = 0; t < ntaxa; ++t) {
      std::string seq;
      for (int s = 0; s < 150; ++s) seq.push_back(kResidues[rng.below(s % 10 == 0 ? 23 : 4)]);
      records.push_back({"t" + std::to_string(t), seq});
    }
    const auto patterns = bio::compress_protein_patterns(bio::ProteinAlignment(records));
    expect_reference_tree(patterns, 8, bio::aa_code_masks());
    const Tree tree = Tree::random(ntaxa, rng);
    EXPECT_EQ(fitch_score(tree, patterns, bio::aa_code_masks()),
              reference::fitch_score(tree, patterns, bio::aa_code_masks()));
  }
}

TEST(Parsimony, AllAlanineColumnScoresZeroUnderAaMasks) {
  // 'A' is amino-acid code 0: read as a bitmask it would be the empty set.
  io::SequenceSet records = {{"t0", "AA"}, {"t1", "AA"}, {"t2", "AA"}, {"t3", "AA"}, {"t4", "AA"}};
  const auto patterns = bio::compress_protein_patterns(bio::ProteinAlignment(records));
  Rng rng(9);
  const Tree tree = parsimony_starting_tree(patterns, rng, bio::aa_code_masks());
  EXPECT_EQ(fitch_score(tree, patterns, bio::aa_code_masks()), 0u);
}

TEST(Parsimony, DistinctAminoAcidsShareNoState) {
  // R (code 1) & Q (code 5) is nonzero as bitmasks, but the sets are
  // disjoint: a two-state column costs exactly one change on any tree.
  io::SequenceSet records = {{"t0", "R"}, {"t1", "R"}, {"t2", "Q"}, {"t3", "Q"}};
  const auto patterns = bio::compress_protein_patterns(bio::ProteinAlignment(records));
  Rng rng(10);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(fitch_score(Tree::random(4, rng), patterns, bio::aa_code_masks()), 1u);
  }
}

TEST(Parsimony, ExplicitDnaMasksMatchTheDefault) {
  Rng rng(11);
  const auto patterns = bio::compress_patterns(testutil::random_alignment(12, 300, rng, 0.1));
  Rng a(12), b(12);
  const Tree implicit = parsimony_starting_tree(patterns, a);
  const Tree explicit_masks = parsimony_starting_tree(patterns, b, bio::dna_code_masks());
  const auto names = testutil::taxon_names(12);
  EXPECT_EQ(implicit.to_newick(names), explicit_masks.to_newick(names));
  EXPECT_EQ(fitch_score(implicit, patterns), fitch_score(implicit, patterns, bio::dna_code_masks()));
}

TEST(Parsimony, EmptyStateSetIsRejected) {
  io::SequenceSet records = {{"t0", "AC"}, {"t1", "AG"}, {"t2", "CT"}, {"t3", "AA"}};
  const auto patterns = bio::compress_patterns(bio::Alignment(records));
  auto masks = bio::dna_code_masks();
  masks[bio::encode_dna('A')] = 0;
  Rng rng(13);
  EXPECT_THROW(parsimony_starting_tree(patterns, rng, masks), Error);
  EXPECT_THROW(fitch_score(Tree::random(4, rng), patterns, masks), Error);
  // A code past the end of the table has no state set either.
  EXPECT_THROW(fitch_score(Tree::random(4, rng), patterns, std::vector<std::uint32_t>(2, 0xF)),
               Error);
}

}  // namespace
}  // namespace miniphi::tree
