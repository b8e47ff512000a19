// Traversal-plan smoke benchmark: (a) planning must be noise next to kernel
// execution — the flat-plan refactor is only free if building a plan costs
// well under 2% of running it; (b) dispatch regions of a 16-partition job.
// The paper's Section V-C/D argument is that fork-join synchronization (two
// master/worker handshakes per region) dominates once per-region compute
// shrinks, so the fewest regions wins.  The classical fork-join shape —
// one region per tree node, every partition's newview of that node
// together, plus one for the root kernels — survives here only as a model
// derived from the traversal plan; the stream executor's regions are
// measured from its own counters.
//
// Exit status: nonzero when the median plan-build overhead reaches 2%, or
// when the stream executor issues anything but exactly one region per
// evaluator call (a deterministic count, enforced everywhere).
#include <cstdio>
#include <span>
#include <vector>

#include "bench/common.hpp"
#include "src/core/engine.hpp"
#include "src/core/partitioned.hpp"
#include "src/parallel/pool_parallel_for.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/platform/cost_model.hpp"
#include "src/simulate/simulate.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace miniphi;

constexpr int kTaxa = 48;
constexpr int kPartitions = 16;
constexpr int kThreads = 8;
constexpr std::int64_t kSitesPerPartition = 48;
constexpr int kRuns = 7;  ///< interleaved runs per median

/// Invalidates every inner CLA so the next evaluation is a full traversal.
void invalidate_everything(core::Evaluator& evaluator, const tree::Tree& tree) {
  for (int node = tree.taxon_count(); node < tree.node_count(); ++node) {
    evaluator.invalidate_node(node);
  }
}

/// Wall seconds per full traversal over `rounds` traversals (plan build +
/// newviews + evaluate, re-invalidated each round).
double time_traversals(core::Evaluator& evaluator, tree::Tree& tree, int rounds) {
  invalidate_everything(evaluator, tree);
  (void)evaluator.log_likelihood(tree.tip(0));  // warm-up: buffers + plans
  Timer timer;
  for (int round = 0; round < rounds; ++round) {
    invalidate_everything(evaluator, tree);
    (void)evaluator.log_likelihood(tree.tip(0));
  }
  return timer.seconds() / rounds;
}

}  // namespace

int main() {
  Rng rng(2014);
  tree::Tree tree = simulate::yule_tree(kTaxa, rng, 0.6);
  simulate::SimulationOptions sim;
  sim.sites = kPartitions * kSitesPerPartition;
  const model::GtrModel model(model::GtrParams::jc69(0.8));
  const auto data = simulate::simulate_alignment(tree, model, sim, rng);

  std::printf("traversal-plan smoke: %d taxa, %lld sites, %d partitions, medians of %d runs\n\n",
              kTaxa, static_cast<long long>(sim.sites), kPartitions, kRuns);
  bool ok = true;

  core::TraversalPlanner planner;
  core::TraversalPlan plan;
  tree::Slot* const goals[2] = {tree.tip(0), tree.tip(0)->back};
  const auto never_valid = [](const tree::Slot*) { return false; };

  // --- (a) plan-build overhead vs traversal execution -----------------------
  {
    const auto patterns = bio::compress_patterns(data.alignment);
    core::LikelihoodEngine engine(patterns, model, tree);
    constexpr int kRounds = 50;
    constexpr int kBuilds = 2000;
    planner.build(std::span<tree::Slot* const>(goals), never_valid, plan);  // warm-up
    std::vector<double> iqrs;
    const std::vector<double> medians = bench::median_seconds(
        kRuns, {[&] { return time_traversals(engine, tree, kRounds); },
                [&] {
                  const Timer timer;
                  for (int build = 0; build < kBuilds; ++build) {
                    planner.build(std::span<tree::Slot* const>(goals), never_valid, plan);
                  }
                  return timer.seconds() / kBuilds;
                }},
        &iqrs);

    const double overhead = medians[1] / medians[0];
    std::printf("full traversal  %10.1f us (IQR %.1f)   (%lld newview ops)\n", medians[0] * 1e6,
                iqrs[0] * 1e6, static_cast<long long>(plan.op_count()));
    std::printf("plan build      %10.2f us (IQR %.2f)   -> overhead %.3f%% (budget 2%%)\n\n",
                medians[1] * 1e6, iqrs[1] * 1e6, overhead * 100.0);
    if (overhead >= 0.02) {
      std::printf("FAIL: plan building costs %.2f%% of a traversal (>= 2%%)\n", overhead * 100.0);
      ok = false;
    }
  }

  // --- (b) regions per traversal: modeled fork-join vs measured streams -----
  {
    const auto specs = core::even_partitions(sim.sites, kPartitions);
    const auto patterns = core::partition_pattern_counts(data.alignment, specs);
    parallel::WorkerPool pool(kThreads);
    parallel::PoolParallelFor parallel_for(pool);
    constexpr int kRounds = 30;

    core::PartitionedEvaluator serial(data.alignment, specs, model, tree);
    core::PartitionedEvaluator streams(data.alignment, specs, model, tree, {},
                                       platform::plan_partition_streams(patterns, kThreads));
    streams.set_parallel_for(&parallel_for);
    std::vector<double> iqrs;
    const std::vector<double> medians = bench::median_seconds(
        kRuns, {[&] { return time_traversals(serial, tree, kRounds); },
                [&] { return time_traversals(streams, tree, kRounds); }},
        &iqrs);

    // A full traversal newviews every inner node once per partition; the
    // plan is the same for every partition (one tree), so it gives the
    // fork-join model's region count: one per node plus the root phase.
    planner.build(std::span<tree::Slot* const>(goals), never_valid, plan);
    const std::int64_t per_node_regions = plan.op_count() + 1;
    const core::StreamCounters& counters = streams.stream_counters();
    const double stream_regions =
        static_cast<double>(counters.regions) / static_cast<double>(counters.calls);

    std::printf("%-30s %10s %10s   %s\n", "dispatch", "us/trav", "IQR", "regions/traversal");
    std::printf("%-30s %10s %10s   %6lld (modeled: %lld nodes + root phase)\n",
                "per-node fork-join", "-", "-", static_cast<long long>(per_node_regions),
                static_cast<long long>(plan.op_count()));
    std::printf("%-30s %10.1f %10.1f   %6d (no pool)\n", "serial streams (1 stream)",
                medians[0] * 1e6, iqrs[0] * 1e6, 0);
    std::printf("%-30s %10.1f %10.1f   %6.2f (measured, %lld calls)\n",
                "stream executor (8 streams)", medians[1] * 1e6, iqrs[1] * 1e6, stream_regions,
                static_cast<long long>(counters.calls));
    std::printf("regions saved vs per-node: %.1fx\n",
                static_cast<double>(per_node_regions) / stream_regions);

    if (counters.calls == 0 || counters.regions != counters.calls ||
        counters.tasks != counters.calls * streams.stream_count()) {
      std::printf("FAIL: stream executor issued %lld regions and %lld tasks for %lld calls "
                  "(want one region of %d tasks per call)\n",
                  static_cast<long long>(counters.regions), static_cast<long long>(counters.tasks),
                  static_cast<long long>(counters.calls), streams.stream_count());
      ok = false;
    }
  }

  return ok ? 0 : 1;
}
