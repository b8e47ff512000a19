// Stream-group executor benchmark (DESIGN.md §13): a mixed partitioned job
// — many small genes plus a few large ones — evaluated on one stream (the
// serial path) and spread over stream groups on a worker pool, every
// partition on the host's widest ISA.  Prints modeled (cost-model) and
// measured wall-time speedups of the stream dispatch.
//
// Exit status: the modeled stream speedup — pure cost-model arithmetic,
// deterministic on any host — must clear the 1.2x acceptance bar, so that
// gate is always enforced (CI runs it).  The measured wall-time speedup, a
// ratio of medians over interleaved runs, is gated at 1.2x only under
// MINIPHI_BENCH_REQUIRE_SPEEDUP (shared CI runners have too few stable
// cores for a wall-clock gate).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/core/partitioned.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/platform/cost_model.hpp"
#include "src/simulate/simulate.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace miniphi;

constexpr int kTaxa = 12;
constexpr int kSmallGenes = 6;
constexpr std::int64_t kSmallSites = 48;
constexpr int kLargeGenes = 2;
constexpr std::int64_t kLargeSites = 1856;
constexpr int kStreams = 4;
constexpr int kRounds = 8;
constexpr int kRuns = 9;  ///< interleaved runs per median
constexpr double kSpeedupBar = 1.2;

std::vector<core::PartitionSpec> mixed_specs() {
  std::vector<core::PartitionSpec> specs;
  std::int64_t at = 0;
  for (int g = 0; g < kSmallGenes; ++g) {
    specs.push_back({"small" + std::to_string(g), at, at + kSmallSites});
    at += kSmallSites;
  }
  for (int g = 0; g < kLargeGenes; ++g) {
    specs.push_back({"large" + std::to_string(g), at, at + kLargeSites});
    at += kLargeSites;
  }
  return specs;
}

/// Average seconds per fully invalidated traversal (newview over every
/// inner node of every partition + the root kernels).
double run_rounds(core::Evaluator& evaluator, tree::Tree& tree) {
  (void)evaluator.log_likelihood(tree.tip(0));  // warm-up: buffers + plans
  const Timer timer;
  for (int round = 0; round < kRounds; ++round) {
    for (int node = tree.taxon_count(); node < tree.node_count(); ++node) {
      evaluator.invalidate_node(node);
    }
    (void)evaluator.log_likelihood(tree.tip(0));
  }
  return timer.seconds() / kRounds;
}

/// Modeled cost of the job in site-units on `isa`: sum over partitions for
/// a single stream, max over stream loads for the planned grouping.
double modeled_load(const std::vector<std::int64_t>& counts, const core::StreamPlan& plan,
                    simd::Isa isa, bool makespan) {
  std::vector<double> per_stream(static_cast<std::size_t>(plan.stream_count), 0.0);
  for (std::size_t p = 0; p < counts.size(); ++p) {
    per_stream[static_cast<std::size_t>(plan.partition_stream[p])] +=
        platform::partition_cost(counts[p], isa);
  }
  if (makespan) return *std::max_element(per_stream.begin(), per_stream.end());
  double total = 0.0;
  for (const double load : per_stream) total += load;
  return total;
}

}  // namespace

int main() {
  const auto specs = mixed_specs();
  const std::int64_t sites = specs.back().end;
  const auto alignment = simulate::paper_dataset(sites, /*seed=*/77, kTaxa);
  const model::GtrModel model(model::GtrParams::jc69(0.8));
  Rng rng(78);
  tree::Tree base_tree = tree::Tree::random(kTaxa, rng);

  // Per-partition compressed pattern counts — the planner's input.
  const std::vector<std::int64_t> counts = core::partition_pattern_counts(alignment, specs);
  const simd::Isa isa = simd::best_supported_isa();
  const core::StreamPlan streamed = platform::plan_partition_streams(counts, kStreams, isa);

  std::printf("stream-group executor: %d small genes x %lld sites + %d large x %lld, %d taxa, "
              "%s kernels\n\n",
              kSmallGenes, static_cast<long long>(kSmallSites), kLargeGenes,
              static_cast<long long>(kLargeSites), kTaxa, simd::to_string(isa).c_str());

  // Modeled gate: deterministic cost-model arithmetic, enforced always.
  const double modeled_single = modeled_load(counts, streamed, isa, /*makespan=*/false);
  const double modeled_streams = modeled_load(counts, streamed, isa, /*makespan=*/true);
  const double modeled_speedup = modeled_single / modeled_streams;
  std::printf("modeled site-units: single-stream %.0f, %d-stream makespan %.0f -> stream "
              "speedup %.2fx\n",
              modeled_single, kStreams, modeled_streams, modeled_speedup);

  // Measured: same kernels, only the dispatch differs.
  tree::Tree tree_single(base_tree);
  const auto single_stream = core::make_evaluator(alignment, specs, model, tree_single);

  parallel::WorkerPool pool(kStreams);
  tree::Tree tree_streams(base_tree);
  const auto multi_stream = parallel::make_stream_evaluator(pool, alignment, specs, model,
                                                            tree_streams, {}, streamed);
  std::vector<double> iqrs;
  const std::vector<double> medians =
      bench::median_seconds(kRuns,
                            {[&] { return run_rounds(*single_stream, tree_single); },
                             [&] { return run_rounds(*multi_stream, tree_streams); }},
                            &iqrs);
  const double t_single = medians[0];
  const double t_streams = medians[1];

  const double measured_speedup = t_streams > 0.0 ? t_single / t_streams : 0.0;
  std::printf("measured per-traversal (median of %d, IQR): single-stream %.1f us (%.1f), "
              "%d-stream %.1f us (%.1f) -> stream speedup %.2fx\n",
              kRuns, t_single * 1e6, iqrs[0] * 1e6, kStreams, t_streams * 1e6, iqrs[1] * 1e6,
              measured_speedup);

  bool ok = true;
  if (modeled_speedup < kSpeedupBar) {
    std::printf("FAIL: modeled stream speedup %.2fx below the %.1fx bar\n", modeled_speedup,
                kSpeedupBar);
    ok = false;
  }
  if (std::getenv("MINIPHI_BENCH_REQUIRE_SPEEDUP") != nullptr &&
      measured_speedup < kSpeedupBar) {
    std::printf("FAIL: measured stream speedup %.2fx below the %.1fx bar\n", measured_speedup,
                kSpeedupBar);
    ok = false;
  }
  return ok ? 0 : 1;
}
