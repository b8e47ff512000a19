// Abstract likelihood evaluator: the contract between the tree search and
// whatever executes the PLF kernels underneath.
//
// Three implementations mirror the paper's execution configurations:
//   * core::LikelihoodEngine        — one thread, one pattern range
//   * parallel::ForkJoinEvaluator   — RAxML-Light PThreads scheme (Section V-C)
//   * examl::DistributedEvaluator   — ExaML MPI / hybrid scheme (Section V-D)
// The search code is identical in all three cases; in the distributed case
// every rank executes the same search replica and the evaluator performs the
// collective reductions, which is exactly ExaML's design.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/eval_stats.hpp"
#include "src/model/gtr.hpp"
#include "src/simd/dispatch.hpp"
#include "src/tree/tree.hpp"

namespace miniphi::core {

/// One entry of the all-branch gradient: the log-likelihood's first and
/// second derivative with respect to this edge's branch length, evaluated at
/// `length` (the length at the time of the call).
struct BranchGradient {
  tree::Slot* edge = nullptr;
  double length = 0.0;
  double first = 0.0;
  double second = 0.0;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Log-likelihood with the virtual root on (edge, edge->back).
  virtual double log_likelihood(tree::Slot* edge) = 0;

  /// Branch-derivative protocol: prepare once per branch, then evaluate the
  /// first/second derivative at arbitrary branch lengths.
  virtual void prepare_derivatives(tree::Slot* edge) = 0;
  virtual std::pair<double, double> derivatives(double z) = 0;

  /// Newton–Raphson optimization of one branch; sets the length on the edge.
  virtual double optimize_branch(tree::Slot* edge, int max_iterations) = 0;
  double optimize_branch(tree::Slot* edge) { return optimize_branch(edge, 32); }

  /// Smoothing passes over all branches; returns the final log-likelihood.
  virtual double optimize_all_branches(tree::Slot* root_edge, int passes) = 0;

  /// Derivatives of the log-likelihood w.r.t. *every* branch length in one
  /// postorder + preorder two-pass sweep (O(N) kernel work instead of the
  /// O(N²) of preparing each branch separately).  Fills `out` with one entry
  /// per edge — the root edge first, then the preorder emission order — and
  /// returns true.  Returns false (out cleared) when the implementation
  /// cannot run the preorder pass (e.g. a tight CLA budget or an aggregating
  /// evaluator without the machinery); callers must then fall back to the
  /// per-branch Newton path.
  virtual bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) {
    (void)root_edge;
    out.clear();
    return false;
  }

  /// Invalidate the CLA of one inner node (after topology/branch changes).
  virtual void invalidate_node(int node_id) = 0;

  /// Invalidate one inner node's CLA after a *branch-length-only* change.
  /// An evaluator may keep more here than invalidate_node() does, because
  /// the subtree's tip patterns are unchanged; defaults to the full
  /// invalidation.  (The dense engine's site-repeat class maps are checked
  /// on use and survive both calls, so there the two are the same.)
  virtual void invalidate_branch(int node_id) { invalidate_node(node_id); }

  /// Replace the Γ shape parameter everywhere (invalidates all CLAs).
  /// α is the one rate-heterogeneity parameter shared by every model family
  /// (DNA GTR and general/protein models), so it lives on the interface;
  /// model-family-specific optimization (e.g. GTR exchangeabilities) is a
  /// header template over the concrete engine types (model_optimizer.hpp).
  virtual void set_alpha(double alpha) = 0;
  [[nodiscard]] virtual double alpha() const = 0;

  /// Kernel back-end in force, for reporting and C-API resource
  /// negotiation.  Mixed-back-end evaluators (stream groups) report the
  /// widest ISA any of their engines runs.
  [[nodiscard]] virtual simd::Isa isa() const { return simd::best_supported_isa(); }

  /// Bytes of CLA storage this evaluator's memory tier may hold (its cap;
  /// buffers are allocated on write, so it may hold less) — the granted
  /// side of the C-API resource negotiation under a
  /// EngineConfig::cla_budget_bytes budget (DESIGN.md §14).  Aggregating
  /// evaluators sum their children; -1 = no local memory tier to report.
  [[nodiscard]] virtual std::int64_t cla_bytes_granted() const { return -1; }

  /// GTR model seam for the DNA family: evaluators whose substitution model
  /// is one (linked) GtrModel expose it here so full model optimization
  /// (search::optimize_model) can run through the interface.  Other
  /// families — general/protein, per-partition divergent models — keep the
  /// defaults (nullptr/false) and use family-specific paths instead.
  [[nodiscard]] virtual const model::GtrModel* gtr_model() const { return nullptr; }
  /// Replaces the linked GTR model everywhere (invalidates all CLAs);
  /// returns false when unsupported.
  virtual bool set_gtr_model(const model::GtrModel& model) {
    (void)model;
    return false;
  }

  /// Accumulated per-kernel statistics since construction or the last
  /// reset_stats().  Aggregating evaluators (fork-join, distributed,
  /// partitioned) merge their children's stats through
  /// EvalStats::operator+= — the single aggregation path — and fill in the
  /// runtime-attribution fields (compute/wait/comm).  The reference stays
  /// valid until the next stats() or reset_stats() call on the same object.
  [[nodiscard]] virtual const EvalStats& stats() const = 0;
  virtual void reset_stats() = 0;
};

}  // namespace miniphi::core
