// Fitch parsimony and randomized stepwise-addition starting trees.
//
// RAxML-Light and ExaML start their ML searches from randomized
// stepwise-addition parsimony trees: taxa are added in random order, each at
// the position minimizing the Fitch parsimony score.
//
// Bit-sliced state planes.  Every character code is first resolved to its
// state set through a code→mask table (bio::dna_code_masks() for DNA,
// bio::aa_code_masks() for protein); the number of planes is the number of
// states the table names (4 or 20).  Zero-weight patterns (bootstrap
// replicates make them) are dropped, the rest are sorted by weight and packed
// 64 to a word, one uint64_t plane per state, with words split at weight
// boundaries so each word carries one weight.  A Fitch step on a word is a
// few ANDs/ORs per plane, and its cost is popcount(empty intersections) ×
// the word's weight — an exact integer, so scores are exact.
//
// Incremental stepwise addition.  Before step i each directed edge gets one
// memoized down-pass (state sets and subtree cost of the side it points
// into).  Inserting the new tip on edge e then costs one pass over the words:
// cost(e) + cost(e->back) + the empty intersections at the new inner node +
// the mismatches against the tip.  The build is O(n²·m/64) instead of the
// O(n³·m) of rescoring the whole tree per candidate.
//
// Root invariance.  For nonempty leaf sets the Fitch score does not depend
// on where the tree is rooted, so the score at the new node equals the score
// rooted at the first-added tip exactly; candidates are visited in the same
// order and compared with a strict <, so ties break the same way.  An empty
// state set breaks root invariance, so a code whose mask is empty is
// rejected.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/bio/patterns.hpp"
#include "src/tree/tree.hpp"
#include "src/util/rng.hpp"

namespace miniphi::tree {

/// Weighted Fitch parsimony score of a complete tree.  `code_masks[c]` is
/// the state set of character code c; every code in `patterns` must have a
/// nonempty set.
std::uint64_t fitch_score(const Tree& tree, const bio::PatternSet& patterns,
                          const std::vector<std::uint32_t>& code_masks = bio::dna_code_masks());

/// Builds a starting topology by randomized stepwise addition under
/// parsimony; ties are broken by insertion order (deterministic given seed).
/// `code_masks` as for fitch_score (pass bio::aa_code_masks() for protein).
Tree parsimony_starting_tree(const bio::PatternSet& patterns, Rng& rng,
                             const std::vector<std::uint32_t>& code_masks = bio::dna_code_masks());

}  // namespace miniphi::tree
