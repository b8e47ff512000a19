#include "src/tree/parsimony.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>

#include "src/util/error.hpp"

namespace miniphi::tree {
namespace {

/// Patterns with nonzero weight, bit-sliced: plane s of word w of a taxon
/// holds bit b iff state s is in the taxon's set at the word's b-th pattern.
/// Storage is word-major (`[w * states + s]`).  Bits past the last pattern
/// of a word hold the full set on every tip, so they never cost anything.
class FitchPlanes {
 public:
  FitchPlanes(const bio::PatternSet& patterns, const std::vector<std::uint32_t>& code_masks) {
    std::uint32_t all_states = 0;
    for (const std::uint32_t mask : code_masks) all_states |= mask;
    MINIPHI_CHECK(all_states != 0, "parsimony: the code mask table names no states");
    states_ = static_cast<int>(std::bit_width(all_states));

    const std::size_t npat = patterns.pattern_count();
    for (std::size_t t = 0; t < patterns.taxon_count(); ++t) {
      const auto& row = patterns.tip_rows[t];
      for (std::size_t p = 0; p < npat; ++p) {
        MINIPHI_CHECK(row[p] < code_masks.size() && code_masks[row[p]] != 0,
                      "parsimony: taxon " + std::to_string(t) + ", pattern " +
                          std::to_string(p) + ": code " + std::to_string(row[p]) +
                          " has an empty state set");
      }
    }

    std::vector<std::size_t> kept;
    for (std::size_t p = 0; p < npat; ++p) {
      if (patterns.weights[p] != 0) kept.push_back(p);
    }
    std::stable_sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
      return patterns.weights[a] < patterns.weights[b];
    });
    // Word boundaries: a new word every 64 patterns and at every weight change.
    std::vector<std::size_t> word_begin;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (k == 0 || k - word_begin.back() == 64 ||
          patterns.weights[kept[k]] != patterns.weights[kept[k - 1]]) {
        word_begin.push_back(k);
        word_weight_.push_back(patterns.weights[kept[k]]);
      }
    }
    words_ = word_begin.size();
    word_begin.push_back(kept.size());

    const std::uint32_t full_set = (states_ == 32) ? ~0u : (1u << states_) - 1;
    tips_.assign(patterns.taxon_count() * stride(), 0);
    for (std::size_t t = 0; t < patterns.taxon_count(); ++t) {
      std::uint64_t* planes = tips_.data() + t * stride();
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t* word = planes + w * static_cast<std::size_t>(states_);
        for (std::size_t b = 0; b < 64; ++b) {
          const std::size_t k = word_begin[w] + b;
          const std::uint32_t set =
              k < word_begin[w + 1] ? code_masks[patterns.tip_rows[t][kept[k]]] : full_set;
          for (int s = 0; s < states_; ++s) {
            word[s] |= static_cast<std::uint64_t>((set >> s) & 1u) << b;
          }
        }
      }
    }
  }

  /// uint64_t count of one node's state sets.
  [[nodiscard]] std::size_t stride() const { return words_ * static_cast<std::size_t>(states_); }

  [[nodiscard]] const std::uint64_t* tip(int taxon) const {
    return tips_.data() + static_cast<std::size_t>(taxon) * stride();
  }

  /// Fitch step: writes a∘b to `out` and returns the weighted count of
  /// patterns whose intersection is empty.
  std::uint64_t join(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const {
    std::uint64_t cost = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t any = 0;
      for (int s = 0; s < states_; ++s) any |= a[s] & b[s];
      const std::uint64_t empty = ~any;
      for (int s = 0; s < states_; ++s) out[s] = (a[s] & b[s]) | (empty & (a[s] | b[s]));
      cost += static_cast<std::uint64_t>(std::popcount(empty)) * word_weight_[w];
      a += states_;
      b += states_;
      out += states_;
    }
    return cost;
  }

  /// Cost of joining a and b under a new node and meeting `tip` across the
  /// node's third branch: the Fitch score added by inserting the tip there.
  [[nodiscard]] std::uint64_t insertion_cost(const std::uint64_t* a, const std::uint64_t* b,
                                             const std::uint64_t* tip) const {
    std::uint64_t cost = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t any = 0;
      for (int s = 0; s < states_; ++s) any |= a[s] & b[s];
      const std::uint64_t empty = ~any;
      std::uint64_t meets_tip = 0;
      for (int s = 0; s < states_; ++s) {
        meets_tip |= ((a[s] & b[s]) | (empty & (a[s] | b[s]))) & tip[s];
      }
      cost += static_cast<std::uint64_t>(std::popcount(empty) + std::popcount(~meets_tip)) *
              word_weight_[w];
      a += states_;
      b += states_;
      tip += states_;
    }
    return cost;
  }

 private:
  int states_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint32_t> word_weight_;
  std::vector<std::uint64_t> tips_;
};

/// Memoized down-passes over one tree: for a slot, the state sets and cost
/// of the subtree on its side of its branch (away from slot->back).
class DownPasses {
 public:
  DownPasses(const FitchPlanes& planes, int slot_count)
      : planes_(planes),
        sets_(static_cast<std::size_t>(slot_count) * planes.stride()),
        cost_(static_cast<std::size_t>(slot_count)),
        ready_(static_cast<std::size_t>(slot_count)) {}

  /// Forgets every memoized pass (after the topology changed).
  void invalidate() { std::fill(ready_.begin(), ready_.end(), 0); }

  const std::uint64_t* sets(const Slot* slot) {
    if (slot->is_tip()) return planes_.tip(slot->node_id);
    const auto index = static_cast<std::size_t>(slot->slot_index);
    std::uint64_t* out = sets_.data() + index * planes_.stride();
    if (!ready_[index]) {
      const std::uint64_t* left = sets(slot->child1());
      const std::uint64_t* right = sets(slot->child2());
      cost_[index] = cost(slot->child1()) + cost(slot->child2()) + planes_.join(left, right, out);
      ready_[index] = 1;
    }
    return out;
  }

  /// Cost of the subtree behind `slot`; valid once sets(slot) has run.
  [[nodiscard]] std::uint64_t cost(const Slot* slot) const {
    return slot->is_tip() ? 0 : cost_[static_cast<std::size_t>(slot->slot_index)];
  }

 private:
  const FitchPlanes& planes_;
  std::vector<std::uint64_t> sets_;
  std::vector<std::uint64_t> cost_;
  std::vector<char> ready_;
};

/// Collects one canonical slot per edge of the component behind `slot`.
void collect_component_edges(Slot* slot, std::vector<Slot*>& out) {
  out.push_back(slot);  // edge (slot, slot->back)
  if (slot->back->is_tip()) return;
  collect_component_edges(slot->back->next, out);
  collect_component_edges(slot->back->next->next, out);
}

/// Score of the tree when `tip` is inserted on the branch (edge, edge->back).
std::uint64_t insertion_score(DownPasses& down, const FitchPlanes& planes, const Slot* edge,
                              const Slot* tip) {
  const std::uint64_t* a = down.sets(edge);
  const std::uint64_t* b = down.sets(edge->back);
  return down.cost(edge) + down.cost(edge->back) +
         planes.insertion_cost(a, b, planes.tip(tip->node_id));
}

}  // namespace

std::uint64_t fitch_score(const Tree& tree, const bio::PatternSet& patterns,
                          const std::vector<std::uint32_t>& code_masks) {
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "fitch_score: tree and patterns disagree on taxon count");
  const FitchPlanes planes(patterns, code_masks);
  DownPasses down(planes, tree.slot_count());
  const Slot* root = tree.tip(0)->back;
  MINIPHI_ASSERT(root != nullptr);
  std::vector<std::uint64_t> scratch(planes.stride());
  const std::uint64_t* below = down.sets(root);
  return down.cost(root) + planes.join(below, planes.tip(0), scratch.data());
}

Tree parsimony_starting_tree(const bio::PatternSet& patterns, Rng& rng,
                             const std::vector<std::uint32_t>& code_masks) {
  const int ntaxa = static_cast<int>(patterns.taxon_count());
  MINIPHI_CHECK(ntaxa >= 3, "parsimony_starting_tree: need at least 3 taxa");
  const FitchPlanes planes(patterns, code_masks);
  Tree tree(ntaxa);
  DownPasses down(planes, tree.slot_count());

  std::vector<int> order(static_cast<std::size_t>(ntaxa));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  tree.connect(tree.tip(order[0]), tree.inner_slot(0, 0), kDefaultBranchLength);
  tree.connect(tree.tip(order[1]), tree.inner_slot(0, 1), kDefaultBranchLength);
  tree.connect(tree.tip(order[2]), tree.inner_slot(0, 2), kDefaultBranchLength);

  std::vector<Slot*> edges;
  for (int i = 3; i < ntaxa; ++i) {
    Slot* tip = tree.tip(order[static_cast<std::size_t>(i)]);
    edges.clear();
    collect_component_edges(tree.tip(order[0]), edges);

    down.invalidate();
    Slot* best_edge = nullptr;
    std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
    for (Slot* edge : edges) {
      const std::uint64_t score = insertion_score(down, planes, edge, tip);
      if (score < best_score) {
        best_score = score;
        best_edge = edge;
      }
    }
    MINIPHI_ASSERT(best_edge != nullptr);

    Slot* other = best_edge->back;
    const double length = best_edge->length;
    tree.disconnect(best_edge);
    tree.connect(best_edge, tree.inner_slot(i - 2, 0), length * 0.5);
    tree.connect(other, tree.inner_slot(i - 2, 1), length * 0.5);
    tree.connect(tip, tree.inner_slot(i - 2, 2), kDefaultBranchLength);
  }
  tree.validate();
  return tree;
}

}  // namespace miniphi::tree
