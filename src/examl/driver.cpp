#include "src/examl/driver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/core/make_evaluator.hpp"
#include "src/examl/distributed_evaluator.hpp"
#include "src/search/checkpoint.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "src/util/error.hpp"
#include "src/util/logging.hpp"
#include "src/util/timer.hpp"

namespace miniphi::examl {
namespace {

/// Initial model: empirical base frequencies, unit exchangeabilities,
/// α = 1 — the standard RAxML starting point before model optimization.
model::GtrModel initial_model(const bio::Alignment& alignment) {
  model::GtrParams params;
  const auto freqs = alignment.empirical_base_frequencies();
  for (std::size_t i = 0; i < 4; ++i) params.frequencies[i] = freqs[i];
  params.alpha = 1.0;
  return model::GtrModel(params);
}

}  // namespace

TracedRun run_traced_search(const bio::Alignment& alignment, const ExperimentOptions& options) {
  TracedRun run;
  run.site_count = static_cast<std::int64_t>(alignment.site_count());

  const auto patterns = bio::compress_patterns(alignment);
  run.pattern_count = static_cast<std::int64_t>(patterns.pattern_count());

  Rng rng(options.seed);
  tree::Tree tree = tree::parsimony_starting_tree(patterns, rng);
  const model::GtrModel model = initial_model(alignment);

  core::EngineConfig config;
  config.isa = options.isa;
  config.trace = &run.trace;
  config.metrics = options.metrics;
  config.sdc_checks = options.sdc_checks;
  // The trace is priced by the platform model as the paper's per-site
  // kernels (Fig. 3-5, Table III), so this search runs them dense.
  config.site_repeats = false;
  const auto engine_ptr = core::make_evaluator(patterns, model, tree, config);
  core::Evaluator& engine = *engine_ptr;

  // Full GTR model optimization (α + exchangeabilities), as in ExaML.
  search::SearchOptions search_options = options.search;
  if (search_options.optimize_model && !search_options.model_hook) {
    search_options.model_hook = [&engine, &search_options](core::Evaluator&, tree::Slot* root) {
      return search::optimize_model(engine, root, search_options.model_options).log_likelihood;
    };
  }

  Timer timer;
  run.search_result = search::run_tree_search(engine, tree, search_options);
  run.wall_seconds = timer.seconds();
  run.final_tree_newick = tree.to_newick(alignment.taxon_names());
  return run;
}

DistributedRunResult run_distributed_search(const bio::Alignment& alignment, int ranks,
                                            const ExperimentOptions& options) {
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model = initial_model(alignment);
  const auto names = alignment.taxon_names();
  const FaultToleranceOptions& ft = options.fault_tolerance;
  const bool metrics_on = obs::kMetricsCompiled && options.metrics == obs::MetricsMode::kOn;

  // The deterministic starting tree is identical in every replica.
  Rng rng(options.seed);
  const tree::Tree starting_tree = tree::parsimony_starting_tree(patterns, rng);

  std::vector<double> final_lnl(static_cast<std::size_t>(ranks), 0.0);
  std::vector<std::string> final_trees(static_cast<std::size_t>(ranks));
  std::vector<core::sdc::Counters> rank_sdc(static_cast<std::size_t>(ranks));
  std::vector<int> rank_inplace(static_cast<std::size_t>(ranks), 0);
  std::vector<int> rank_moves(static_cast<std::size_t>(ranks), 0);

  mpi::World world(ranks);
  world.set_fault_plan(ft.faults);
  world.set_collective_timeout(ft.collective_timeout);
  if (ft.elastic.enabled) {
    mpi::ElasticOptions elastic = ft.elastic;
    elastic.metrics = metrics_on;
    world.set_elastic(elastic);
  }

  // ckpt.restore.* make escalations distinguishable from in-place heals in
  // traces: an elastic recovery leaves ckpt.restore.calls untouched.
  obs::MetricId restore_calls_id = 0;
  obs::MetricId restore_duration_id = 0;
  obs::MetricId restore_bytes_id = 0;
  if (metrics_on) {
    obs::Registry& registry = obs::Registry::instance();
    restore_calls_id = registry.counter("ckpt.restore.calls");
    restore_duration_id = registry.histogram("ckpt.restore.duration_us");
    restore_bytes_id = registry.counter("ckpt.restore.bytes");
  }

  DistributedRunResult result;
  // `stable` is the state a recovery restarts from; `staged` is the latest
  // checkpoint captured by the lead rank during the current attempt.  Only
  // one rank writes `staged` (replicas are identical, so its state is
  // everyone's), and the driver thread reads it only after World::run joined.
  std::optional<search::Checkpoint> stable;
  std::optional<search::Checkpoint> staged;

  for (;;) {
    staged.reset();
    // The state every replica starts this attempt from.
    const search::Checkpoint attempt_start =
        stable ? *stable
               : search::make_checkpoint(starting_tree, names, model.params(), 0, 0.0,
                                         options.seed);
    try {
      world.run([&](mpi::Communicator& comm) {
        // Rank-local snapshot of the last completed round.  The elastic
        // continue-in-place path restores from this in-memory copy — no
        // checkpoint file is read unless recovery escalates.
        search::Checkpoint snapshot = attempt_start;
        int in_place = 0;
        for (;;) {
          tree::Tree tree = snapshot.restore_tree();
          const model::GtrModel rank_model(snapshot.model_params);
          const int rounds_done = snapshot.rounds_completed;
          try {
            core::EngineConfig config;
            config.isa = options.isa;
            config.metrics = options.metrics;
            config.sdc_checks = options.sdc_checks;
            // Construction over the current membership epoch IS the
            // re-shard: survivors absorb the lost rank's shards and their
            // fresh engines recompute the lost CLAs from tip state via the
            // planned traversal.
            DistributedEvaluator evaluator(comm, patterns, rank_model, tree, config,
                                           ft.sharding);
            search::SearchOptions search_options = options.search;
            search_options.max_rounds = std::max(0, options.search.max_rounds - rounds_done);
            // Model optimization runs once, before the first SPR round; a
            // snapshot taken at round >= 1 already carries the optimized
            // parameters, so a resumed run must not optimize again or it
            // would diverge from the fault-free trajectory.
            if (rounds_done > 0) search_options.optimize_model = false;
            if (search_options.optimize_model && !search_options.model_hook) {
              search_options.model_hook = [&evaluator, &search_options](core::Evaluator&,
                                                                        tree::Slot* root) {
                return search::optimize_model(evaluator, root, search_options.model_options)
                    .log_likelihood;
              };
            }
            const auto user_callback = options.search.round_callback;
            search_options.round_callback = [&, rounds_done](int round, double lnl) {
              if (user_callback) user_callback(rounds_done + round, lnl);
              const int absolute = rounds_done + round;
              // Every rank snapshots every completed round — replicas are
              // identical, so the survivors' snapshots are too (the
              // consistent cut the elastic recovery resumes from).
              snapshot = search::make_checkpoint(tree, names, evaluator.model().params(),
                                                 absolute, lnl, options.seed);
              // Durable staging falls to the lowest active rank, so the
              // checkpoint ladder keeps working after rank 0 dies.
              const int lead_rank = ft.elastic.enabled ? comm.active_ranks().front() : 0;
              if (ft.checkpoint_every_rounds > 0 && comm.rank() == lead_rank &&
                  absolute % ft.checkpoint_every_rounds == 0) {
                staged = snapshot;
                if (!ft.checkpoint_path.empty()) {
                  search::write_checkpoint_file(ft.checkpoint_path, *staged);
                }
              }
            };
            const auto search_result = search::run_tree_search(evaluator, tree, search_options);
            final_lnl[static_cast<std::size_t>(comm.rank())] = search_result.log_likelihood;
            final_trees[static_cast<std::size_t>(comm.rank())] = tree.to_newick(names);
            // Sum this rank's checksum-verify counters and agreement votes
            // for the run result (a failed attempt unwinds before reaching
            // here; its counts restart with the replica).
            core::sdc::Counters totals = evaluator.engine_sdc_counters();
            const core::sdc::Counters& agreement = evaluator.agreement_counters();
            totals.checks += agreement.checks;
            totals.hits += agreement.hits;
            totals.heals += agreement.heals;
            totals.escalations += agreement.escalations;
            rank_sdc[static_cast<std::size_t>(comm.rank())] = totals;
            rank_inplace[static_cast<std::size_t>(comm.rank())] = in_place;
            rank_moves[static_cast<std::size_t>(comm.rank())] = evaluator.rebalance_moves();
            return;
          } catch (const mpi::RankFailureDetected& failure) {
            // A peer died.  ULFM-style recovery: the survivors unanimously
            // install the shrunken membership, restore the last completed
            // round from the rank-local snapshot, and continue in place.
            // shrink() itself escalates (AbortedError on quorum loss,
            // DeadlockError on a survivor that never arrives) into the
            // checkpoint-restart ladder below.
            if (!ft.elastic.enabled) throw;
            if (++in_place > ft.max_inplace_recoveries) throw;
            const mpi::ShrinkResult shrunk = comm.shrink();
            if (!comm.agree(true)) {
              throw Error("elastic recovery: survivors voted to escalate to checkpoint "
                          "restart after '" +
                          std::string(failure.what()) + "'");
            }
            MINIPHI_LOG(Info) << "elastic recovery: epoch " << shrunk.epoch << " continues with "
                              << shrunk.active.size() << "/" << comm.size()
                              << " ranks in place from round " << snapshot.rounds_completed
                              << " after '" << failure.what() << "'";
          }
        }
      });
      break;
    } catch (const Error& failure) {
      // Recoverable failure (injected fault, aborted peers, deadlock
      // diagnosis, I/O error): restart every replica from the last
      // checkpoint.  Invariant violations (std::logic_error) propagate.
      result.last_failure = failure.what();
      ++result.recoveries;
      // An unhealable corruption escalation is a distinct retry policy
      // decision from a crash: the in-place heal budget is exhausted, so the
      // run falls back to the same checkpoint restart, tagged for the log.
      const bool sdc_escalation =
          dynamic_cast<const core::sdc::CorruptionDetected*>(&failure) != nullptr;
      if (sdc_escalation) ++result.sdc_escalation_recoveries;
      if (result.recoveries > ft.max_recoveries) throw;
      const Timer restore_timer;
      if (!ft.checkpoint_path.empty()) {
        // The durable path: trust only what survived on disk (validated by
        // its checksum), exactly as a restarted cluster job would.
        try {
          stable = search::read_checkpoint_file(ft.checkpoint_path);
        } catch (const Error&) {
          if (staged) stable = staged;
        }
      } else if (staged) {
        stable = staged;
      }
      if (metrics_on) {
        obs::Registry& registry = obs::Registry::instance();
        registry.add(restore_calls_id, 1);
        registry.observe(restore_duration_id,
                         static_cast<std::int64_t>(restore_timer.seconds() * 1e6));
        if (stable) {
          registry.add(restore_bytes_id,
                       static_cast<std::int64_t>(search::checkpoint_byte_size(*stable)));
        }
      }
      MINIPHI_LOG(Info) << "distributed search: recovery " << result.recoveries
                        << (sdc_escalation ? " (sdc escalation)" : "")
                        << " via checkpoint restore (membership epoch " << world.epoch()
                        << ") after '" << result.last_failure << "', restarting from "
                        << (stable ? "round " + std::to_string(stable->rounds_completed)
                                   : "scratch");
    }
  }

  // The lead rank is the lowest rank that finished the run; with elastic
  // recovery that is not necessarily rank 0.
  const std::vector<int> failed = world.failed_ranks();
  const auto is_failed = [&failed](int r) {
    return std::find(failed.begin(), failed.end(), r) != failed.end();
  };
  int lead = 0;
  while (lead < ranks && is_failed(lead)) ++lead;
  MINIPHI_CHECK(lead < ranks, "distributed search: no surviving rank");

  result.log_likelihood = final_lnl[static_cast<std::size_t>(lead)];
  result.comm_stats = world.total_stats();
  for (const auto& counters : rank_sdc) {
    result.sdc.checks += counters.checks;
    result.sdc.hits += counters.hits;
    result.sdc.heals += counters.heals;
    result.sdc.escalations += counters.escalations;
  }
  result.final_tree_newick = final_trees[static_cast<std::size_t>(lead)];
  result.replicas_consistent = true;
  for (int r = 0; r < ranks; ++r) {
    if (r == lead || is_failed(r)) continue;
    if (final_trees[static_cast<std::size_t>(r)] != result.final_tree_newick ||
        std::abs(final_lnl[static_cast<std::size_t>(r)] - result.log_likelihood) > 1e-9) {
      result.replicas_consistent = false;
    }
  }
  result.in_place_recoveries = rank_inplace[static_cast<std::size_t>(lead)];
  result.rebalance_moves = rank_moves[static_cast<std::size_t>(lead)];
  result.final_epoch = world.epoch();
  result.final_world_size = ranks - static_cast<int>(failed.size());
  result.failed_ranks = failed;
  return result;
}

}  // namespace miniphi::examl
