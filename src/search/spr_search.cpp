#include "src/search/spr_search.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/core/engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span_trace.hpp"
#include "src/util/error.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace miniphi::search {
namespace {

/// Invalidates the CLAs of every node incident to a topology change.
/// The incident-node lists routinely repeat ids (e.g. a pruned slot adjacent
/// to its own reinsertion edge), so deduplicate before invalidating —
/// aggregating evaluators fan each invalidation out to every partition or
/// rank.  Site-repeat class maps need nothing here: the engine re-checks
/// them against the new children on the next traversal.
void invalidate_around(core::Evaluator& engine, const tree::Tree& tree,
                       std::initializer_list<int> node_ids) {
  int seen[8];
  int count = 0;
  MINIPHI_ASSERT(node_ids.size() <= std::size(seen));
  for (const int node_id : node_ids) {
    MINIPHI_ASSERT(node_id >= 0 && node_id < tree.node_count());
    if (std::find(seen, seen + count, node_id) != seen + count) continue;
    seen[count++] = node_id;
    engine.invalidate_node(node_id);
  }
}

/// Newton-optimizes the branches touched by an accepted regraft, with the
/// same bounds checks and deduplication as invalidate_around: the slot lists
/// can alias the same physical branch (each branch appears once per
/// direction), and optimize_branch is not idempotent in cost — every call
/// re-runs the full derivative protocol.
void optimize_around(core::Evaluator& engine, const tree::Tree& tree,
                     std::initializer_list<tree::Slot*> edges) {
  const tree::Slot* seen[8];
  int count = 0;
  MINIPHI_ASSERT(edges.size() <= std::size(seen));
  for (tree::Slot* edge : edges) {
    MINIPHI_ASSERT(edge != nullptr && edge->back != nullptr);
    MINIPHI_ASSERT(edge->node_id >= 0 && edge->node_id < tree.node_count());
    MINIPHI_ASSERT(edge->back->node_id >= 0 && edge->back->node_id < tree.node_count());
    const tree::Slot* key = std::min(edge, edge->back);  // direction-independent identity
    if (std::find(seen, seen + count, key) != seen + count) continue;
    seen[count++] = key;
    engine.optimize_branch(edge);
  }
}

struct GradMetricIds {
  obs::MetricId sweeps = 0;
  obs::MetricId edges = 0;
  obs::MetricId fallbacks = 0;
  obs::MetricId sweep_ns = 0;
};

GradMetricIds grad_metric_ids() {
  obs::Registry& registry = obs::Registry::instance();
  GradMetricIds ids;
  ids.sweeps = registry.counter("grad.sweeps");
  ids.edges = registry.counter("grad.edges");
  ids.fallbacks = registry.counter("grad.fallbacks");
  ids.sweep_ns = registry.histogram("grad.sweep_ns");
  return ids;
}

void note_gradient_fallback() {
  if (!obs::kMetricsCompiled) return;
  static const GradMetricIds ids = grad_metric_ids();
  obs::Registry::instance().add(ids.fallbacks, 1);
}

}  // namespace

double smooth_branches(core::Evaluator& engine, tree::Tree& tree, tree::Slot* root_edge,
                       int passes) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->node_id >= 0 &&
                 root_edge->node_id < tree.node_count());
  std::vector<core::BranchGradient> gradient;
  if (!engine.gradient_all_branches(root_edge, gradient)) {
    return engine.optimize_all_branches(root_edge, passes);
  }

  double current = engine.log_likelihood(root_edge);
  const int max_sweeps = 16 * std::max(passes, 1);
  std::vector<double> saved;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    Timer timer;
    // The first sweep reuses the gradient from the support probe above.
    if (sweep > 0 && !engine.gradient_all_branches(root_edge, gradient)) break;
    saved.clear();
    for (const core::BranchGradient& g : gradient) saved.push_back(g.edge->length);
    for (const core::BranchGradient& g : gradient) {
      tree::Tree::set_length(g.edge,
                             core::LikelihoodEngine::newton_step(g.length, g.first, g.second));
    }
    for (const core::BranchGradient& g : gradient) {
      engine.invalidate_branch(g.edge->node_id);
      engine.invalidate_branch(g.edge->back->node_id);
    }
    const double next = engine.log_likelihood(root_edge);
    if (obs::kMetricsCompiled) {
      static const GradMetricIds ids = grad_metric_ids();
      obs::Registry& registry = obs::Registry::instance();
      registry.add(ids.sweeps, 1);
      registry.add(ids.edges, static_cast<std::int64_t>(gradient.size()));
      registry.observe(ids.sweep_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
    }
    if (!(next >= current - 1e-9)) {
      // The simultaneous updates are mutually blind; a collective overshoot
      // (or NaN) means this tree wants the one-at-a-time path.  Restore and
      // hand over.
      for (std::size_t i = 0; i < gradient.size(); ++i) {
        tree::Tree::set_length(gradient[i].edge, saved[i]);
      }
      for (const core::BranchGradient& g : gradient) {
        engine.invalidate_branch(g.edge->node_id);
        engine.invalidate_branch(g.edge->back->node_id);
      }
      note_gradient_fallback();
      return engine.optimize_all_branches(root_edge, passes);
    }
    const double gain = next - current;
    current = next;
    // Run sweeps to a tight stationary point: the per-branch Newton path is
    // near-idempotent (re-smoothing a smoothed tree is a no-op to ~1e-5
    // lnL), and checkpoint resume / engine-equivalence both rely on the
    // smoother sharing that property.  A loose stop here leaves residual
    // gradient that a resumed search would harvest, diverging trajectories.
    if (gain < 1e-7) break;
  }
  return current;
}

double spr_round(core::Evaluator& engine, tree::Tree& tree, int radius,
                 double current_lnl, SearchResult& result) {
  const obs::ScopedSpan round_span("search:spr_round");
  const int ntaxa = tree.taxon_count();

  // Consider pruning the subtree behind every inner slot.
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    for (int k = 0; k < 3; ++k) {
      tree::Slot* p = tree.inner_slot(inner, k);

      const auto record = tree::prune(tree, p);
      invalidate_around(engine, tree, {record.left->node_id, record.right->node_id, p->node_id});

      tree::Slot* best_edge = nullptr;
      double best_lnl = current_lnl;
      const auto candidates = tree::insertion_candidates(record, radius);
      for (tree::Slot* e : candidates) {
        tree::Slot* other = e->back;
        tree::regraft(tree, record, e);
        invalidate_around(engine, tree, {e->node_id, other->node_id, p->node_id});

        const double lnl = engine.log_likelihood(p->next);
        ++result.evaluated_insertions;
        if (lnl > best_lnl) {
          best_lnl = lnl;
          best_edge = e;
        }

        tree::ungraft(tree, record);
        invalidate_around(engine, tree, {e->node_id, other->node_id, p->node_id});
      }

      if (best_edge != nullptr && best_lnl > current_lnl + 1e-9) {
        tree::Slot* other_end = best_edge->back;  // joined partner before regraft
        tree::regraft(tree, record, best_edge);
        invalidate_around(engine, tree,
                          {best_edge->node_id, other_end->node_id, p->node_id});
        // Locally refine the three branches created by the insertion.
        optimize_around(engine, tree, {p->next, p->next->next, p});
        current_lnl = engine.log_likelihood(p->next);
        ++result.accepted_moves;
      } else {
        tree::undo_prune(tree, record);
        invalidate_around(engine, tree, {record.left->node_id, record.right->node_id, p->node_id});
      }
    }
  }

  (void)ntaxa;
  return current_lnl;
}

SearchResult run_tree_search(core::Evaluator& engine, tree::Tree& tree,
                             const SearchOptions& options) {
  SearchResult result;
  tree::Slot* root = tree.tip(0);

  double current;
  {
    const obs::ScopedSpan span("search:smooth");
    current = smooth_branches(engine, tree, root, options.smoothing_passes);
  }
  MINIPHI_LOG(Debug) << "search: after initial smoothing lnL = " << current;

  if (options.optimize_model) {
    const obs::ScopedSpan span("search:model");
    current = options.model_hook ? options.model_hook(engine, root)
                                 : optimize_alpha(engine, root, options.model_options.tolerance)
                                       .log_likelihood;
    MINIPHI_LOG(Debug) << "search: after model optimization lnL = " << current
                       << " (alpha = " << engine.alpha() << ")";
  }

  for (int round = 0; round < options.max_rounds; ++round) {
    const double before = current;
    current = spr_round(engine, tree, options.spr_radius, current, result);
    {
      const obs::ScopedSpan span("search:smooth");
      current = smooth_branches(engine, tree, root, options.smoothing_passes);
    }
    ++result.rounds;
    result.trajectory.push_back(current);
    MINIPHI_LOG(Debug) << "search: round " << round << " lnL = " << current;
    if (obs::kMetricsCompiled) {
      // Plan-cache effectiveness per round: builds should level off once the
      // SPR candidate set stabilizes, while hits/reuses keep growing.
      obs::Registry& registry = obs::Registry::instance();
      MINIPHI_LOG(Debug) << "search: plan cache builds=" << registry.value(registry.counter("plan.builds"))
                         << " hits=" << registry.value(registry.counter("plan.cache_hits"))
                         << " reuses=" << registry.value(registry.counter("plan.reuses"));
    }
    if (options.round_callback) options.round_callback(result.rounds, current);
    MINIPHI_ASSERT(current >= before - 1e-6);
    if (current - before < options.epsilon) break;
  }

  result.log_likelihood = current;
  return result;
}

}  // namespace miniphi::search
