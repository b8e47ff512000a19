// ExaML-style distributed likelihood evaluator.
//
// Every rank runs its own *replica* of the tree search; this evaluator
// performs only the operations that need global information, via small
// Allreduce calls: summing per-shard log-likelihoods after evaluate() and
// summing derivative pairs inside the Newton loop.  Because the reduction
// order is fixed, all replicas see bit-identical values and make identical
// decisions — ExaML's "consistent copies" design (paper Section V-D), which
// avoids communication between consecutive newview() calls entirely.
//
// Sharding (DESIGN.md §11): the pattern range is cut into S *fixed*
// contiguous shards (S = shards_per_rank × the full world size), each backed
// by its own LikelihoodEngine, plus a deterministic shard→rank ownership
// map over the *active* membership.  The lnL reduction is a vector of S
// disjoint slots folded in fixed shard order, so the global sum is
// bit-identical no matter which rank computes which shard — the property
// that lets the evaluator re-shard after a rank loss (Communicator::shrink)
// or migrate shards away from stragglers without perturbing the search
// trajectory by even one ulp.
//
// The communication schedule is *derived from the traversal plan*: before
// any kernel runs, the rank fetches its engines' flat core::TraversalPlan
// for the virtual root and records how many newview ops of purely local
// compute precede the reduction.  Since every replica plans the identical
// traversal, the derived schedule is globally consistent without exchanging
// it — a full traversal posts exactly one collective (the lnL allreduce),
// never one per node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/engine.hpp"
#include "src/minimpi/minimpi.hpp"

namespace miniphi::examl {

/// Reduction schedule of one distributed traversal, derived from the local
/// engine's traversal plan before any kernel runs.
struct CommPlan {
  std::int64_t newview_ops = 0;  ///< local plan ops the traversal executes first
  /// Collectives the schedule posts: one per stream epoch of a likelihood
  /// traversal (stream_group_count(), 1 under the default policy), 0 for
  /// prepare_derivatives (the Newton derivatives() calls that follow each
  /// post their own single collective).
  int posts = 0;
};

/// How the pattern range is cut into shards and when shards migrate away
/// from stragglers (DESIGN.md §11).  The defaults reproduce the classic
/// one-slice-per-rank ExaML decomposition exactly.
struct ShardingPolicy {
  /// Shards per rank of the *full* world; the shard count S is fixed at
  /// construction so shard boundaries (and therefore per-shard partial
  /// sums) never change across membership epochs or rebalances.  Values
  /// > 1 give the rebalancer migration granularity.
  int shards_per_rank = 1;

  /// Stream epochs per likelihood traversal (PR 8): the global shard index
  /// range splits into this many contiguous groups, each epoch computes its
  /// shards end-to-end and posts exactly one collective over that group's
  /// reduction slots.  Mirrors the stream groups of the shared-memory
  /// PartitionedEvaluator so a stream-partitioned job keeps one collective
  /// per stream epoch instead of one bulk collective whose slowest shard
  /// gates everything.  The global fold stays in fixed shard order, so the
  /// result is bit-identical for any value; clamped to the shard count.
  int stream_groups = 1;

  /// Straggler defense: per-rank traversal times ride the lnL allreduce
  /// (one extra slot per rank); every check_every traversals each replica
  /// runs the identical detection on the identical timing vector.
  bool straggler_defense = false;
  /// A rank is flagged when its per-site compute time exceeds the median
  /// across working ranks by this factor.
  double straggler_factor = 3.0;
  /// Traversals between detection checks.
  int check_every = 8;
  /// Consecutive flagged checks before a shard moves (persistence — one
  /// slow traversal never triggers a migration).
  int window = 2;
  /// Checks to sit out after a move before flagging again.
  int cooldown = 4;
  /// Lifetime cap on migrations: with a persistence window, a cooldown,
  /// and a hard cap, oscillation is impossible by construction.
  int max_moves = 8;
};

class DistributedEvaluator final : public core::Evaluator {
 public:
  /// Builds the evaluator for this rank over the *current* membership epoch
  /// (Communicator::active_ranks): one LikelihoodEngine per owned shard.
  /// After a shrink the driver simply constructs a fresh evaluator — the
  /// survivors pick up the lost rank's shards and their fresh engines
  /// recompute the lost CLAs from tip state on the next planned traversal.
  DistributedEvaluator(mpi::Communicator& comm, const bio::PatternSet& patterns,
                       const model::GtrModel& model, tree::Tree& tree,
                       const core::LikelihoodEngine::Config& engine_config = {},
                       const ShardingPolicy& policy = {});

  double log_likelihood(tree::Slot* edge) override;
  void prepare_derivatives(tree::Slot* edge) override;
  std::pair<double, double> derivatives(double z) override;
  double optimize_branch(tree::Slot* edge, int max_iterations) override;
  using Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override;
  void invalidate_node(int node_id) override;
  void invalidate_branch(int node_id) override;
  void set_model(const model::GtrModel& model);
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override { return model_.params().alpha; }
  [[nodiscard]] const model::GtrModel& model() const { return model_; }
  [[nodiscard]] simd::Isa isa() const override { return engine_config_.isa; }
  [[nodiscard]] const model::GtrModel* gtr_model() const override { return &model_; }
  bool set_gtr_model(const model::GtrModel& model) override {
    set_model(model);
    return true;
  }

  /// First owned shard's engine (for tests poking engine internals); a rank
  /// that owns no shards has no engine — check owned_shards() first.
  [[nodiscard]] core::LikelihoodEngine& local_engine();

  /// Engine-level SDC counters summed over every owned shard engine.
  [[nodiscard]] core::sdc::Counters engine_sdc_counters() const;

  /// Cross-rank agreement statistics (Config::sdc_checks; DESIGN.md §10):
  /// checks = agreement reductions voted on, hits = corrupted slots
  /// detected, heals = slots recovered by majority vote, escalations =
  /// votes with no majority (rethrown as CorruptionDetected).
  [[nodiscard]] const core::sdc::Counters& agreement_counters() const {
    return agreement_counters_;
  }

  /// Rank whose partial was corrupted in the last disagreeing vote (the
  /// owner of the disagreeing shard); -1 when every vote so far agreed.
  [[nodiscard]] int last_disagreeing_rank() const { return last_disagreeing_rank_; }

  /// Schedule of the most recent planned traversal (log_likelihood or
  /// prepare_derivatives); all-zero before the first one.
  [[nodiscard]] const CommPlan& last_comm_plan() const { return last_comm_plan_; }

  // --- Shard map introspection -------------------------------------------
  [[nodiscard]] int shard_count() const { return static_cast<int>(shard_owner_.size()); }
  /// Stream epochs per likelihood traversal (ShardingPolicy::stream_groups
  /// clamped to the shard count).
  [[nodiscard]] int stream_group_count() const { return stream_groups_; }
  [[nodiscard]] const std::vector<int>& shard_owners() const { return shard_owner_; }
  [[nodiscard]] std::vector<int> owned_shards() const;
  [[nodiscard]] std::int64_t owned_sites() const;
  /// Shard migrations executed by the straggler defense so far.
  [[nodiscard]] int rebalance_moves() const { return moves_done_; }

  /// This rank's engine stats (summed over owned shards) with communication
  /// attribution folded in: comm_seconds is the wall time this rank spent
  /// blocked in collectives, comm_calls the number of collective operations
  /// it issued.
  [[nodiscard]] const core::EvalStats& stats() const override;
  void reset_stats() override;

 private:
  mpi::Communicator& comm_;
  const bio::PatternSet& patterns_;
  tree::Tree& tree_;
  model::GtrModel model_;
  core::LikelihoodEngine::Config engine_config_;
  ShardingPolicy policy_;

  /// Fixed shard geometry: shard s covers patterns [bounds_[s], bounds_[s+1]).
  std::vector<std::int64_t> bounds_;
  /// shard → owning rank (absolute rank id), identical on every replica.
  std::vector<int> shard_owner_;
  /// One engine per *owned* shard (null elsewhere).
  std::vector<std::unique_ptr<core::LikelihoodEngine>> engines_;

  /// Comm counters at construction / last reset_stats(); subtracted so the
  /// evaluator reports only its own communication, not the whole rank's.
  mpi::CommStats comm_baseline_;
  mutable core::EvalStats aggregated_stats_;  ///< cache filled by stats()

  void build_engine(int shard);

  /// Derives (and records) the traversal's comm schedule from the owned
  /// engines' plans at `edge`; `posts` collectives will follow the local
  /// compute.
  void derive_comm_plan(tree::Slot* edge, int posts);

  /// Consumes a pending kFlipClaBits latch (set at this rank's kernel-region
  /// entry) by flipping one bit of the first committed inner CLA; no-op when
  /// nothing is latched or no CLA is committed yet.
  void maybe_inject_cla_fault();

  /// Straggler defense step, run by every replica on the identical
  /// allreduced timing vector so all replicas mutate the ownership map
  /// identically.  `times[r]` = rank r's per-site compute seconds for the
  /// last traversal (0 for inactive / shard-less ranks).
  void maybe_rebalance(const double* times);

  CommPlan last_comm_plan_;
  int stream_groups_ = 1;  ///< policy_.stream_groups clamped to shard_count()
  bool sdc_checks_ = false;
  /// Reduction scratch.  Non-SDC layout: S lnL slots + R timing slots.
  /// SDC layout: 3 TMR slots per shard + R timing slots (the vote loop
  /// covers the TMR slots only).  Derivatives: 2S slots, no timing.
  std::vector<double> reduce_scratch_;
  core::sdc::Counters agreement_counters_;
  int last_disagreeing_rank_ = -1;
  core::sdc::MetricIds sdc_ids_;
  bool metrics_ = false;
  obs::MetricId plan_posted_id_ = 0;       ///< counter: comm plans posted
  obs::MetricId plan_local_ops_id_ = 0;    ///< histogram: local ops per comm plan
  obs::MetricId reshard_duration_id_ = 0;  ///< histogram: µs to rebuild post-shrink
  obs::MetricId rebalance_moves_id_ = 0;   ///< counter: shard migrations

  // Straggler-defense state (advances identically on every replica).
  std::int64_t traversals_ = 0;
  std::vector<int> flag_streak_;  ///< per rank, consecutive flagged checks
  int cooldown_left_ = 0;
  int moves_done_ = 0;
};

}  // namespace miniphi::examl
