#include "src/examl/distributed_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::examl {

DistributedEvaluator::DistributedEvaluator(mpi::Communicator& comm,
                                           const bio::PatternSet& patterns,
                                           const model::GtrModel& model, tree::Tree& tree,
                                           const core::LikelihoodEngine::Config& engine_config,
                                           const ShardingPolicy& policy)
    : comm_(comm),
      patterns_(patterns),
      tree_(tree),
      model_(model),
      engine_config_(engine_config),
      policy_(policy) {
  MINIPHI_CHECK(policy.shards_per_rank >= 1, "distributed evaluator: shards_per_rank >= 1");
  MINIPHI_CHECK(policy.stream_groups >= 1, "distributed evaluator: stream_groups >= 1");
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  // S is sized by the FULL world, not the current membership: shard
  // boundaries must be identical across epochs so per-shard partial sums
  // (and thus the shard-ordered global fold) survive any re-shard bit-for-bit.
  const int shards = policy.shards_per_rank * comm.size();
  MINIPHI_CHECK(npat >= shards, "distributed evaluator: fewer patterns than shards");
  stream_groups_ = std::min(policy.stream_groups, shards);
  bounds_.resize(static_cast<std::size_t>(shards) + 1);
  for (int s = 0; s <= shards; ++s) {
    bounds_[static_cast<std::size_t>(s)] = npat * s / shards;
  }
  sdc_checks_ = engine_config.sdc_checks;
  if (obs::kMetricsCompiled && engine_config.metrics == obs::MetricsMode::kOn) {
    comm_.enable_metrics();
    metrics_ = true;
    obs::Registry& registry = obs::Registry::instance();
    plan_posted_id_ = registry.counter("dist.plan.posted");
    plan_local_ops_id_ = registry.histogram("dist.plan.local_ops");
    reshard_duration_id_ = registry.histogram("elastic.reshard.duration_us");
    rebalance_moves_id_ = registry.counter("elastic.rebalance.moves");
    sdc_ids_ = core::sdc::register_metrics();
  }

  // Deterministic ownership over the *active* membership: contiguous runs
  // of shards per survivor, computed identically by every replica.
  const std::vector<int> active = comm.active_ranks();
  MINIPHI_CHECK(!active.empty(), "distributed evaluator: no active ranks");
  const auto n_active = static_cast<std::int64_t>(active.size());
  shard_owner_.resize(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shard_owner_[static_cast<std::size_t>(s)] =
        active[static_cast<std::size_t>(static_cast<std::int64_t>(s) * n_active / shards)];
  }
  flag_streak_.assign(static_cast<std::size_t>(comm.size()), 0);

  const Timer build_timer;
  engines_.resize(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    if (shard_owner_[static_cast<std::size_t>(s)] == comm.rank()) build_engine(s);
  }
  // A build over a shrunken membership IS the re-shard: the survivors just
  // absorbed the lost rank's shards, and their fresh engines will recompute
  // the lost CLAs from tip state on the next planned traversal.
  // One observation per world, not per replica: the lead survivor records it.
  if (metrics_ && comm_.epoch() > 0 && comm_.rank() == active.front()) {
    obs::Registry::instance().observe(
        reshard_duration_id_, static_cast<std::int64_t>(build_timer.seconds() * 1e6));
  }
  comm_baseline_ = comm_.stats();
}

void DistributedEvaluator::build_engine(int shard) {
  core::LikelihoodEngine::Config config = engine_config_;
  config.begin = bounds_[static_cast<std::size_t>(shard)];
  config.end = bounds_[static_cast<std::size_t>(shard) + 1];
  engines_[static_cast<std::size_t>(shard)] =
      std::make_unique<core::LikelihoodEngine>(patterns_, model_, tree_, config);
}

std::vector<int> DistributedEvaluator::owned_shards() const {
  std::vector<int> owned;
  for (int s = 0; s < shard_count(); ++s) {
    if (shard_owner_[static_cast<std::size_t>(s)] == comm_.rank()) owned.push_back(s);
  }
  return owned;
}

std::int64_t DistributedEvaluator::owned_sites() const {
  std::int64_t sites = 0;
  for (int s = 0; s < shard_count(); ++s) {
    if (shard_owner_[static_cast<std::size_t>(s)] == comm_.rank()) {
      sites += bounds_[static_cast<std::size_t>(s) + 1] - bounds_[static_cast<std::size_t>(s)];
    }
  }
  return sites;
}

core::LikelihoodEngine& DistributedEvaluator::local_engine() {
  for (const auto& engine : engines_) {
    if (engine) return *engine;
  }
  throw Error("distributed evaluator: rank " + std::to_string(comm_.rank()) +
              " owns no shards (all migrated away)");
}

core::sdc::Counters DistributedEvaluator::engine_sdc_counters() const {
  core::sdc::Counters total;
  for (const auto& engine : engines_) {
    if (!engine) continue;
    const core::sdc::Counters& counters = engine->sdc_counters();
    total.checks += counters.checks;
    total.hits += counters.hits;
    total.heals += counters.heals;
    total.escalations += counters.escalations;
  }
  return total;
}

void DistributedEvaluator::derive_comm_plan(tree::Slot* edge, int posts) {
  // Every owned engine plans the identical traversal over its own shard;
  // record the schedule once (the shards differ only in site range, not in
  // tree structure, so their plans are structurally identical).
  last_comm_plan_.newview_ops = 0;
  last_comm_plan_.posts = posts;
  bool first = true;
  for (const auto& engine : engines_) {
    if (!engine) continue;
    // nullptr = the cached plan is satisfied: zero local ops before the post.
    const core::TraversalPlan* plan = engine->plan_traversal(edge);
    if (first) {
      last_comm_plan_.newview_ops = plan != nullptr ? plan->op_count() : 0;
      first = false;
    }
  }
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(plan_posted_id_, 1);
    registry.observe(plan_local_ops_id_, last_comm_plan_.newview_ops);
  }
}

void DistributedEvaluator::maybe_inject_cla_fault() {
  if (!comm_.take_pending_cla_corruption()) return;
  // kFlipClaBits latched at our kernel-region entry: flip one bit in the
  // first committed inner CLA (word/bit chosen mid-buffer so the flip lands
  // in live likelihood data).  A rank with nothing committed yet drops the
  // injection — there is no silent state to corrupt.
  for (const auto& engine : engines_) {
    if (!engine) continue;
    for (int node = tree_.taxon_count(); node < tree_.node_count(); ++node) {
      if (engine->corrupt_cla_for_testing(node, /*word=*/97, /*bit=*/21)) return;
    }
  }
}

void DistributedEvaluator::maybe_rebalance(const double* times) {
  if (!policy_.straggler_defense) return;
  ++traversals_;
  if (traversals_ % policy_.check_every != 0) return;
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return;
  }
  if (moves_done_ >= policy_.max_moves) return;

  // Working ranks = owners of at least one shard; a rank stripped to zero
  // shards has no measured speed and takes no further part.
  std::vector<std::int64_t> shards_of(static_cast<std::size_t>(comm_.size()), 0);
  for (const int owner : shard_owner_) ++shards_of[static_cast<std::size_t>(owner)];
  std::vector<int> working;
  for (int r = 0; r < comm_.size(); ++r) {
    if (shards_of[static_cast<std::size_t>(r)] > 0 && times[r] > 0.0) {
      working.push_back(r);
    }
  }
  if (working.size() < 2) return;

  // A rank is compared against the median of the OTHER working ranks
  // (leave-one-out): with few survivors an ordinary median is dragged up by
  // the straggler itself — in a 2-rank world it IS the straggler — and the
  // defense could never fire.
  const auto median_of_others = [&](int candidate) {
    std::vector<double> others;
    for (const int r : working) {
      if (r != candidate) others.push_back(times[r]);
    }
    std::sort(others.begin(), others.end());
    return others[others.size() / 2];
  };

  // Persistence: a rank must exceed median × factor for `window` consecutive
  // checks before any shard moves.
  int straggler = -1;
  double worst = 0.0;
  for (int r = 0; r < comm_.size(); ++r) {
    const auto index = static_cast<std::size_t>(r);
    const bool flagged = shards_of[index] > 0 && times[r] > 0.0 &&
                         times[r] > median_of_others(r) * policy_.straggler_factor;
    flag_streak_[index] = flagged ? flag_streak_[index] + 1 : 0;
    if (flag_streak_[index] >= policy_.window && times[r] > worst) {
      straggler = r;
      worst = times[r];
    }
  }
  if (straggler < 0) return;
  // Never strip the straggler's last shard: it stays a (slow) worker, which
  // bounds how much load any single migration can shift.
  if (shards_of[static_cast<std::size_t>(straggler)] <= 1) return;

  int target = -1;
  double fastest = 0.0;
  for (int r = 0; r < comm_.size(); ++r) {
    if (r == straggler || shards_of[static_cast<std::size_t>(r)] == 0) continue;
    if (times[r] <= 0.0) continue;
    if (target < 0 || times[r] < fastest) {
      target = r;
      fastest = times[r];
    }
  }
  if (target < 0) return;

  // Move the straggler's lowest shard.  Every replica executes this same
  // mutation on the same data, so the ownership map never diverges.
  for (int s = 0; s < shard_count(); ++s) {
    if (shard_owner_[static_cast<std::size_t>(s)] != straggler) continue;
    shard_owner_[static_cast<std::size_t>(s)] = target;
    if (comm_.rank() == straggler) engines_[static_cast<std::size_t>(s)].reset();
    if (comm_.rank() == target) build_engine(s);
    break;
  }
  ++moves_done_;
  cooldown_left_ = policy_.cooldown;
  std::fill(flag_streak_.begin(), flag_streak_.end(), 0);
  // Count the migration once per world, not once per replica.
  if (metrics_ && comm_.rank() == target) {
    obs::Registry::instance().add(rebalance_moves_id_, 1);
  }
}

double DistributedEvaluator::log_likelihood(tree::Slot* edge) {
  // One comm plan per traversal: all of a stream epoch's local plan ops run
  // first (the engines reuse the plans just fetched), then exactly one
  // allreduce per epoch — stream_groups_ collectives in total, one under
  // the default policy.
  derive_comm_plan(edge, /*posts=*/stream_groups_);
  const int shards = shard_count();
  const int ranks = comm_.size();
  const int slots_per_shard = sdc_checks_ ? 3 : 1;
  const std::size_t lnl_slots =
      static_cast<std::size_t>(shards) * static_cast<std::size_t>(slots_per_shard);
  reduce_scratch_.assign(lnl_slots + static_cast<std::size_t>(ranks), 0.0);

  // The timer brackets the injection hook so a kSlowRank sleep is charged
  // to this rank's compute window, exactly like a throttled node.
  const Timer compute_timer;
  comm_.on_kernel_region();  // fault-injection hook: a plan may kill us here
  if (sdc_checks_) maybe_inject_cla_fault();
  // Stream epochs: the global shard index range splits into stream_groups_
  // contiguous groups.  Each epoch computes its owned shards end-to-end and
  // posts one collective over exactly that group's reduction slots, so the
  // slots of different epochs never ride the same allreduce and every slot
  // is summed exactly once.  Per-rank timings ride the last epoch's
  // collective.  Slot layout and the fixed shard-order fold below are
  // unchanged, so the total is bit-identical for any stream_groups_.
  for (int g = 0; g < stream_groups_; ++g) {
    const int group_begin = shards * g / stream_groups_;
    const int group_end = shards * (g + 1) / stream_groups_;
    for (int s = group_begin; s < group_end; ++s) {
      const auto index = static_cast<std::size_t>(s);
      if (!engines_[index]) continue;
      const double lnl = engines_[index]->log_likelihood(edge);
      if (sdc_checks_) {
        // TMR: three redundant copies per shard; disjoint slots keep the
        // delivered triple bit-for-bit this rank's contribution.
        reduce_scratch_[3 * index] = lnl;
        reduce_scratch_[3 * index + 1] = lnl;
        reduce_scratch_[3 * index + 2] = lnl;
      } else {
        reduce_scratch_[index] = lnl;
      }
    }
    const auto slice_begin = static_cast<std::size_t>(group_begin) *
                             static_cast<std::size_t>(slots_per_shard);
    auto slice_end =
        static_cast<std::size_t>(group_end) * static_cast<std::size_t>(slots_per_shard);
    if (g == stream_groups_ - 1) {
      const std::int64_t sites = owned_sites();
      reduce_scratch_[lnl_slots + static_cast<std::size_t>(comm_.rank())] =
          sites > 0 ? compute_timer.seconds() / static_cast<double>(sites) : 0.0;
      slice_end = reduce_scratch_.size();
    }
    const std::span<double> slice{reduce_scratch_.data() + slice_begin, slice_end - slice_begin};
    if (sdc_checks_) {
      comm_.allreduce_agreement(slice);
    } else {
      comm_.allreduce_sum(slice);
    }
  }

  double total = 0.0;
  if (sdc_checks_) {
    ++agreement_counters_.checks;
    if (metrics_) obs::Registry::instance().add(sdc_ids_.checks, 1);
    const auto bits_of = [](double v) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      return bits;
    };
    for (int s = 0; s < shards; ++s) {
      const auto index = static_cast<std::size_t>(s);
      const double a = reduce_scratch_[3 * index];
      const double b = reduce_scratch_[3 * index + 1];
      const double c = reduce_scratch_[3 * index + 2];
      const bool ab = bits_of(a) == bits_of(b);
      const bool ac = bits_of(a) == bits_of(c);
      const bool bc = bits_of(b) == bits_of(c);
      double voted = a;
      if (!(ab && ac)) {
        last_disagreeing_rank_ = shard_owner_[index];
        ++agreement_counters_.hits;
        if (metrics_) obs::Registry::instance().add(sdc_ids_.hits, 1);
        if (ab || ac) {
          voted = a;
        } else if (bc) {
          voted = b;
        } else {
          ++agreement_counters_.escalations;
          if (metrics_) obs::Registry::instance().add(sdc_ids_.escalations, 1);
          throw core::sdc::CorruptionDetected(
              -1, "sdc: agreement vote for rank " + std::to_string(shard_owner_[index]) +
                      " has no majority (all three redundant copies differ)");
        }
        ++agreement_counters_.heals;
        if (metrics_) obs::Registry::instance().add(sdc_ids_.heals, 1);
      }
      // Fixed shard-order fold: bit-identical across epochs and rebalances.
      total += voted;
    }
  } else {
    for (int s = 0; s < shards; ++s) {
      total += reduce_scratch_[static_cast<std::size_t>(s)];
    }
  }
  maybe_rebalance(reduce_scratch_.data() + lnl_slots);
  return total;
}

void DistributedEvaluator::prepare_derivatives(tree::Slot* edge) {
  // The traversal itself posts nothing; each Newton derivatives() call that
  // follows is its own single-collective plan.
  derive_comm_plan(edge, /*posts=*/0);
  if (sdc_checks_) maybe_inject_cla_fault();
  for (const auto& engine : engines_) {
    if (engine) engine->prepare_derivatives(edge);
  }
}

std::pair<double, double> DistributedEvaluator::derivatives(double z) {
  comm_.on_kernel_region();
  const int shards = shard_count();
  reduce_scratch_.assign(static_cast<std::size_t>(2 * shards), 0.0);
  for (int s = 0; s < shards; ++s) {
    const auto index = static_cast<std::size_t>(s);
    if (!engines_[index]) continue;
    const auto [first, second] = engines_[index]->derivatives(z);
    reduce_scratch_[2 * index] = first;
    reduce_scratch_[2 * index + 1] = second;
  }
  comm_.allreduce_sum(reduce_scratch_);
  double d1 = 0.0;
  double d2 = 0.0;
  for (int s = 0; s < shards; ++s) {
    d1 += reduce_scratch_[static_cast<std::size_t>(2 * s)];
    d2 += reduce_scratch_[static_cast<std::size_t>(2 * s) + 1];
  }
  return {d1, d2};
}

double DistributedEvaluator::optimize_branch(tree::Slot* edge, int max_iterations) {
  prepare_derivatives(edge);
  double z = edge->length;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const auto [first, second] = derivatives(z);
    const double next = core::LikelihoodEngine::newton_step(z, first, second);
    const bool converged = std::abs(next - z) < 1e-10;
    z = next;
    if (converged) break;
  }
  tree::Tree::set_length(edge, z);
  // Branch-length-only change: the engine's site-repeat class maps survive.
  invalidate_branch(edge->node_id);
  invalidate_branch(edge->back->node_id);
  return z;
}

double DistributedEvaluator::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      optimize_branch(edge, 32);
    }
  }
  return log_likelihood(root_edge);
}

void DistributedEvaluator::invalidate_node(int node_id) {
  for (const auto& engine : engines_) {
    if (engine) engine->invalidate_node(node_id);
  }
}

void DistributedEvaluator::invalidate_branch(int node_id) {
  for (const auto& engine : engines_) {
    if (engine) engine->invalidate_branch(node_id);
  }
}

void DistributedEvaluator::set_model(const model::GtrModel& model) {
  model_ = model;
  for (const auto& engine : engines_) {
    if (engine) engine->set_model(model);
  }
}

void DistributedEvaluator::set_alpha(double alpha) {
  model::GtrParams params = model_.params();
  params.alpha = alpha;
  model_ = model::GtrModel(params, model_.gamma_categories());
  for (const auto& engine : engines_) {
    if (engine) engine->set_alpha(alpha);
  }
}

const core::EvalStats& DistributedEvaluator::stats() const {
  aggregated_stats_ = core::EvalStats{};
  for (const auto& engine : engines_) {
    if (engine) aggregated_stats_ += engine->stats();
  }
  const mpi::CommStats& comm = comm_.stats();
  aggregated_stats_.comm_seconds = comm.wait_seconds - comm_baseline_.wait_seconds;
  aggregated_stats_.comm_calls = (comm.barriers - comm_baseline_.barriers) +
                                 (comm.allreduces - comm_baseline_.allreduces) +
                                 (comm.broadcasts - comm_baseline_.broadcasts) +
                                 (comm.point_to_point - comm_baseline_.point_to_point);
  return aggregated_stats_;
}

void DistributedEvaluator::reset_stats() {
  for (const auto& engine : engines_) {
    if (engine) engine->reset_stats();
  }
  comm_baseline_ = comm_.stats();
}

}  // namespace miniphi::examl
