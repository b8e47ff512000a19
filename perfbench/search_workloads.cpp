// The three tree-search workloads: paper-search, tight-memory and
// partitioned-mt.  One op is the whole tree_inference path on the seed's
// alignment — PHYLIP parse, pattern compression, parsimony starting tree,
// evaluator construction (the set-up), then the ML search with full model
// optimization — followed by one full-traversal evaluate, one all-branch
// gradient and one smoothing pass on the final tree, timed separately.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/common.hpp"
#include "perfbench/spans.hpp"
#include "perfbench/timed_evaluator.hpp"
#include "src/miniphi.hpp"

namespace perfbench {
namespace {

using namespace miniphi;

struct SearchWorkload {
  const char* name;
  int taxa;
  std::int64_t sites;
  std::int64_t patterns;
  int budget_divisor;  ///< CLA budget = computed full CLA bytes / divisor
  int partitions;      ///< > 1: seeded gene partitions on the stream evaluator
  int threads;         ///< benchmark-owned WorkerPool size (1 = no pool)
};

// Why each exists: paper-search is the paper's dataset recipe on the serial
// widest-ISA engine, where kernels do nearly all the work; tight-memory runs
// the same path with a quarter CLA budget and spill, so the memory tier and
// (with 46 inner nodes) plans and parsimony carry much more of the time;
// partitioned-mt is paper-search split into unequal genes on a 3-thread
// stream evaluator, the only workload that runs the parallel layer.
constexpr SearchWorkload kWorkloads[] = {
    {"paper-search", 15, 50000, 14935, 1, 1, 1},
    {"tight-memory", 48, 3000, 2121, 4, 1, 1},
    {"partitioned-mt", 15, 50000, 14935, 1, 8, 3},
};

/// Each run cycles its ops over this many inputs derived from its seed, so
/// one input whose search happens to need more smoothing sweeps moves the
/// run's medians less.
constexpr int kInputsPerRun = 4;

struct Inputs {
  std::uint64_t seed = 0;
  std::string phylip;  ///< the only thing the program sees of the seed
  std::vector<core::PartitionSpec> partitions;
};

Inputs make_inputs(const SearchWorkload& workload, std::uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.phylip = make_phylip(workload.taxa, workload.sites, workload.patterns, seed);
  if (workload.partitions > 1) {
    // Unequal gene widths: weights uniform in [1, 4).
    Rng rng(seed ^ 0x5eed9a77u);
    std::vector<double> cumulative;
    double total = 0.0;
    for (int p = 0; p < workload.partitions; ++p) {
      total += rng.uniform(1.0, 4.0);
      cumulative.push_back(total);
    }
    std::int64_t begin = 0;
    for (int p = 0; p < workload.partitions; ++p) {
      const std::int64_t end =
          p + 1 == workload.partitions
              ? workload.sites
              : std::llround(cumulative[static_cast<std::size_t>(p)] / total *
                             static_cast<double>(workload.sites));
      inputs.partitions.push_back({"gene" + std::to_string(p), begin, end});
      begin = end;
    }
  }
  return inputs;
}

/// One op's live state.  The evaluator refers to the alignment, patterns
/// and tree, so the state is heap-allocated and never moves.
struct OpState {
  std::optional<bio::Alignment> alignment;
  bio::PatternSet patterns;
  std::optional<tree::Tree> tree;
  std::unique_ptr<core::Evaluator> evaluator;
  TimedEvaluator* timed = nullptr;  ///< the decorator, in traced ops
  double parse_s = 0.0;
  double compress_s = 0.0;
  double parsimony_s = 0.0;
  double build_s = 0.0;
};

std::unique_ptr<OpState> set_up(const SearchWorkload& workload, const Inputs& inputs,
                                const core::EngineConfig& config,
                                parallel::WorkerPool* pool, std::int64_t op, bool traced) {
  auto state = std::make_unique<OpState>();
  io::SequenceSet records;
  {
    const ScopedSpan span("io.parse", op);
    const Timer timer;
    std::istringstream in(inputs.phylip);
    records = io::read_phylip(in);
    state->parse_s = timer.seconds();
  }
  {
    const ScopedSpan span("bio.compress", op);
    const Timer timer;
    state->alignment.emplace(records);
    state->patterns = bio::compress_patterns(*state->alignment);
    state->compress_s = timer.seconds();
  }
  {
    const ScopedSpan span("tree.parsimony", op);
    const Timer timer;
    Rng rng(inputs.seed);
    state->tree.emplace(tree::parsimony_starting_tree(state->patterns, rng));
    state->parsimony_s = timer.seconds();
  }
  model::GtrParams params;
  const auto freqs = state->alignment->empirical_base_frequencies();
  for (std::size_t i = 0; i < 4; ++i) params.frequencies[i] = freqs[i];
  const model::GtrModel model(params);
  {
    const ScopedSpan span("core.build", op);
    const Timer timer;
    if (workload.partitions > 1) {
      std::vector<std::int64_t> widths;
      for (const auto& spec : inputs.partitions) widths.push_back(spec.end - spec.begin);
      const core::StreamPlan streams = platform::plan_partition_streams(widths, workload.threads);
      state->evaluator = parallel::make_stream_evaluator(*pool, *state->alignment,
                                                         inputs.partitions, model, *state->tree,
                                                         config, streams);
    } else {
      state->evaluator = core::make_evaluator(state->patterns, model, *state->tree, config);
    }
    state->build_s = timer.seconds();
  }
  if (traced) {
    auto timed = std::make_unique<TimedEvaluator>(std::move(state->evaluator), op);
    state->timed = timed.get();
    state->evaluator = std::move(timed);
  }
  return state;
}

/// Samples of each job kind taken on an op's final tree.
constexpr int kQueryRepeats = 5;

/// The search every op runs: default radius, full GTR model optimization
/// through `model_hook`, exactly kSearchRounds SPR rounds (no early stop)
/// and one smoothing pass per smoothing (at most 16 all-branch gradient
/// sweeps instead of 48), so the work of an op does not hinge on how fast
/// the seed's data happens to converge.
constexpr int kSearchRounds = 1;

search::SearchOptions search_options(std::function<double(core::Evaluator&, tree::Slot*)> hook) {
  search::SearchOptions options;
  options.max_rounds = kSearchRounds;
  options.smoothing_passes = 1;
  options.epsilon = -std::numeric_limits<double>::infinity();
  options.model_hook = std::move(hook);
  return options;
}

void invalidate_all(core::Evaluator& evaluator, const tree::Tree& tree) {
  for (int id = tree.taxon_count(); id < tree.node_count(); ++id) evaluator.invalidate_node(id);
}

struct OpOutcome {
  std::int64_t op = 0;
  std::size_t input = 0;
  bool traced = false;
  double setup_s = 0.0;
  double search_s = 0.0;
  std::vector<double> evaluate_ms;
  std::vector<double> gradient_ms;
  std::vector<double> smooth_ms;
  search::SearchResult result;
  std::optional<tree::Tree> final_tree;  ///< for the deferred correctness checks
  model::GtrParams final_params;
  std::map<std::string, double> layer;  ///< per-layer metrics (traced ops)
};

void record_layers(OpOutcome& out, const OpState& state, parallel::WorkerPool* pool,
                   std::int64_t regions_before, double model_s) {
  auto& layer = out.layer;
  layer["io.parse_s"] = state.parse_s;
  layer["bio.compress_s"] = state.compress_s;
  layer["tree.parsimony_s"] = state.parsimony_s;
  layer["core.build_s"] = state.build_s;

  const TimedEvaluator& timed = *state.timed;
  layer["core.first_call_s"] = timed.first_call_seconds();
  const std::pair<const char*, TimedEvaluator::Family> families[] = {
      {"core.lnl", TimedEvaluator::kLnl},           {"core.deriv", TimedEvaluator::kDeriv},
      {"core.opt_branch", TimedEvaluator::kOptBranch}, {"core.gradient", TimedEvaluator::kGradient},
      {"core.set_model", TimedEvaluator::kSetModel}};
  for (const auto& [name, family] : families) {
    layer[std::string(name) + ".calls"] = static_cast<double>(timed.stat(family).calls);
    layer[std::string(name) + "_s"] = timed.stat(family).seconds;
  }

  const core::EvalStats& stats = timed.stats();
  const std::pair<const char*, core::Kernel> kernels[] = {{"newview", core::Kernel::kNewview},
                                                          {"evaluate", core::Kernel::kEvaluate},
                                                          {"derivsum", core::Kernel::kDerivSum},
                                                          {"derivcore", core::Kernel::kDerivCore}};
  for (const auto& [name, kernel] : kernels) {
    const core::KernelStat& k = stats.kernel(kernel);
    const std::string prefix = std::string("core.kernel.") + name;
    layer[prefix + ".calls"] = static_cast<double>(k.calls);
    layer[prefix + ".sites"] = static_cast<double>(k.sites);
    layer[prefix + ".ns_per_site"] =
        k.sites > 0 ? k.seconds * 1e9 / static_cast<double>(k.sites) : 0.0;
    layer[prefix + ".gbps_computed"] =
        k.seconds > 0.0 ? static_cast<double>(k.bytes) / k.seconds * 1e-9 : 0.0;
  }

  const auto registry = registry_values();
  const auto reg = [&registry](const char* name) {
    const auto it = registry.find(name);
    return it == registry.end() ? 0.0 : it->second;
  };
  for (const char* name : {"plan.builds", "plan.cache_hits", "plan.executed_ops", "plan.build_ns",
                           "sdc.checks", "sdc.verify_ns", "mem.evictions", "mem.spills",
                           "mem.reloads", "mem.recomputes", "mem.spill_bytes", "stream.regions"}) {
    layer[name] = reg(name);
  }
  layer["mem.prefetch_hit_ratio"] =
      reg("mem.reloads") > 0.0 ? reg("mem.prefetch_hit") / reg("mem.reloads") : 0.0;

  layer["search.model_s"] = model_s;
  layer["search.rounds"] = out.result.rounds;
  layer["search.insertions"] = static_cast<double>(out.result.evaluated_insertions);
  layer["search.accepted_moves"] = out.result.accepted_moves;
  layer["search.self_s"] = out.search_s - timed.covered_seconds();

  if (pool != nullptr) {
    const double compute = pool->compute_seconds();
    const double wait = pool->wait_seconds();
    layer["parallel.regions"] = static_cast<double>(pool->region_count() - regions_before);
    layer["parallel.compute_s"] = compute;
    layer["parallel.wait_s"] = wait;
    layer["parallel.wait_share"] = compute + wait > 0.0 ? wait / (compute + wait) : 0.0;
  }
}

OpOutcome run_op(const SearchWorkload& workload, const Inputs& inputs, core::EngineConfig config,
                 parallel::WorkerPool* pool, std::int64_t op, bool traced) {
  OpOutcome out;
  out.op = op;
  out.traced = traced;
  config.metrics = traced ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  const ScopedSpan op_span("search.op", op);

  const Timer setup_timer;
  const auto state = set_up(workload, inputs, config, pool, op, traced);
  out.setup_s = setup_timer.seconds();

  core::Evaluator& evaluator = *state->evaluator;
  tree::Tree& tree = *state->tree;
  double model_s = 0.0;
  const auto options = search_options([op, &model_s](core::Evaluator& e, tree::Slot* root) {
    const ScopedSpan span("search.model", op);
    const Timer timer;
    const double lnl = search::optimize_model(e, root).log_likelihood;
    model_s += timer.seconds();
    return lnl;
  });

  if (traced) obs::Registry::instance().reset();
  const std::int64_t regions_before = pool != nullptr ? pool->region_count() : 0;
  if (pool != nullptr) pool->reset_times();
  {
    const ScopedSpan span("search.run", op);
    const Timer timer;
    out.result = search::run_tree_search(evaluator, tree, options);
    out.search_s = timer.seconds();
  }
  if (traced) record_layers(out, *state, pool, regions_before, model_s);
  out.final_tree.emplace(tree);
  out.final_params = evaluator.gtr_model()->params();

  // The three service job kinds, run directly on the final tree, each from
  // cold CLAs and the search's branch lengths.
  tree::Slot* root = tree.tip(0);
  const std::vector<tree::Slot*> edges = tree.edges();
  std::vector<double> lengths;
  for (const tree::Slot* edge : edges) lengths.push_back(edge->length);
  const ScopedSpan span("search.query", op);
  std::vector<core::BranchGradient> gradient;
  for (int repeat = 0; repeat < kQueryRepeats; ++repeat) {
    for (std::size_t e = 0; e < edges.size(); ++e) tree::Tree::set_length(edges[e], lengths[e]);
    invalidate_all(evaluator, tree);
    Timer timer;
    (void)evaluator.log_likelihood(root);
    out.evaluate_ms.push_back(timer.seconds() * 1e3);

    invalidate_all(evaluator, tree);
    timer.start();
    const bool swept = evaluator.gradient_all_branches(root, gradient);
    out.gradient_ms.push_back(timer.seconds() * 1e3);
    MINIPHI_CHECK(swept, "all-branch gradient declined");

    invalidate_all(evaluator, tree);
    timer.start();
    (void)evaluator.optimize_all_branches(root, 1);
    out.smooth_ms.push_back(timer.seconds() * 1e3);
  }
  return out;
}

/// lnL of a finished search's tree and model under a fresh full-budget
/// scalar evaluator.
double scalar_reevaluation(const SearchWorkload& workload, const Inputs& inputs,
                           const OpOutcome& outcome) {
  std::istringstream in(inputs.phylip);
  const bio::Alignment alignment(io::read_phylip(in));
  const bio::PatternSet patterns = bio::compress_patterns(alignment);
  tree::Tree tree(*outcome.final_tree);
  const model::GtrModel model(outcome.final_params);
  core::EngineConfig config;
  config.isa = simd::Isa::kScalar;
  std::unique_ptr<core::Evaluator> evaluator =
      workload.partitions > 1
          ? core::make_evaluator(alignment, inputs.partitions, model, tree, config)
          : core::make_evaluator(patterns, model, tree, config);
  return evaluator->log_likelihood(tree.tip(0));
}

std::vector<double> collect(const std::vector<OpOutcome>& outcomes,
                            double (*fn)(const OpOutcome&)) {
  std::vector<double> values;
  for (const auto& outcome : outcomes) values.push_back(fn(outcome));
  return values;
}

std::vector<double> collect_all(const std::vector<OpOutcome>& outcomes,
                                std::vector<double> OpOutcome::*samples) {
  std::vector<double> values;
  for (const auto& outcome : outcomes) {
    values.insert(values.end(), (outcome.*samples).begin(), (outcome.*samples).end());
  }
  return values;
}

}  // namespace

RunResult run_search_workload(const Options& options) {
  const SearchWorkload* found = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (options.workload == candidate.name) found = &candidate;
  }
  MINIPHI_CHECK(found != nullptr, "unknown workload '" + options.workload + "'");
  const SearchWorkload& workload = *found;
  std::vector<Inputs> inputs;
  for (int i = 0; i < kInputsPerRun; ++i) {
    inputs.push_back(
        make_inputs(workload, options.seed * kInputsPerRun + static_cast<std::uint64_t>(i)));
  }

  core::EngineConfig config;
  std::int64_t patterns = 0;
  {
    std::istringstream in(inputs.front().phylip);
    patterns = static_cast<std::int64_t>(
        bio::compress_patterns(bio::Alignment(io::read_phylip(in))).pattern_count());
  }
  const std::int64_t cla_bytes = full_cla_bytes(workload.taxa, patterns);
  std::printf("workload %s: %d inputs of %d taxa x %lld sites -> %lld patterns; CLA working set "
              "%.1f MB (computed)",
              workload.name, kInputsPerRun, workload.taxa, static_cast<long long>(workload.sites),
              static_cast<long long>(patterns), static_cast<double>(cla_bytes) / 1e6);
  if (workload.budget_divisor > 1) {
    config.cla_budget_bytes = cla_bytes / workload.budget_divisor;
    config.cla_spill = true;
    config.cla_spill_dir = options.out_dir;
    std::printf(", budget %.1f MB with spill to %s (%s)",
                static_cast<double>(config.cla_budget_bytes) / 1e6, options.out_dir.c_str(),
                filesystem_of(options.out_dir).c_str());
  }
  std::printf("; kernels %s\n", simd::to_string(config.isa).c_str());
  for (const auto& spec : inputs.front().partitions) {
    std::printf("  partition %s: sites [%lld, %lld)\n", spec.name.c_str(),
                static_cast<long long>(spec.begin), static_cast<long long>(spec.end));
  }

  std::unique_ptr<parallel::WorkerPool> pool;
  if (workload.threads > 1) pool = std::make_unique<parallel::WorkerPool>(workload.threads);

  RunResult run;
  if (options.trace) {
    std::string missing;
    for (const auto& name : decorator_self_check()) missing += " " + name;
    if (!missing.empty()) run.fail_check("the decorator does not forward:" + missing);
  }

  // Traced runs alternate untraced and traced ops on the same input, so
  // every traced op has an untraced twin to compare against.
  std::vector<OpOutcome> outcomes;
  const std::int64_t min_ops = options.trace ? 2 : 1;
  const Timer window;
  for (std::int64_t op = 0; op < min_ops || window.seconds() < options.seconds; ++op) {
    const bool traced = options.trace && op % 2 == 1;
    const auto input = static_cast<std::size_t>((options.trace ? op / 2 : op) % kInputsPerRun);
    SpanLog::instance().set_enabled(traced);
    ++run.attempted;
    try {
      outcomes.push_back(run_op(workload, inputs[input], config, pool.get(), op, traced));
      outcomes.back().input = input;
      // Hand the op's freed heap back, so the peak resident set is one op's
      // footprint rather than the allocator's high-water mark across ops.
      malloc_trim(0);
    } catch (const std::exception& error) {
      ++run.failed;
      std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(op), error.what());
    }
  }
  SpanLog::instance().set_enabled(false);
  const double window_s = window.seconds();
  const double peak_mb = peak_rss_mb();

  // Correctness, outside the timed window and after the memory peak.  For
  // a budgeted workload, the same search at full budget is the reference,
  // once per input.
  struct FullBudget {
    double lnl = 0.0;
    double newviews = 0.0;
  };
  std::map<std::size_t, FullBudget> full_budget;
  const auto full_budget_of = [&](std::size_t input) -> const FullBudget& {
    auto it = full_budget.find(input);
    if (it != full_budget.end()) return it->second;
    core::EngineConfig full = config;
    full.cla_budget_bytes = 0;
    full.cla_spill = false;
    const auto state = set_up(workload, inputs[input], full, pool.get(), -1, false);
    const auto reference_options = search_options([](core::Evaluator& e, tree::Slot* root) {
      return search::optimize_model(e, root).log_likelihood;
    });
    FullBudget reference;
    reference.lnl = search::run_tree_search(*state->evaluator, *state->tree, reference_options)
                        .log_likelihood;
    reference.newviews =
        static_cast<double>(state->evaluator->stats().kernel(core::Kernel::kNewview).calls);
    return full_budget.emplace(input, reference).first->second;
  };
  const bool budgeted = workload.budget_divisor > 1;
  const OpOutcome* untraced_twin = nullptr;
  for (auto& outcome : outcomes) {
    const double lnl = outcome.result.log_likelihood;
    const double scalar = scalar_reevaluation(workload, inputs[outcome.input], outcome);
    std::string problem;
    if (!close_relative(lnl, scalar, 1e-10)) {
      problem += " lnL " + std::to_string(lnl) + " disagrees with the scalar re-evaluation " +
                 std::to_string(scalar) + ";";
    }
    if (budgeted && lnl != full_budget_of(outcome.input).lnl) {
      problem += " budgeted lnL is not bit-identical to the full-budget search;";
    }
    if (outcome.traced &&
        (untraced_twin == nullptr || lnl != untraced_twin->result.log_likelihood ||
         outcome.result.rounds != untraced_twin->result.rounds ||
         outcome.result.accepted_moves != untraced_twin->result.accepted_moves ||
         outcome.result.evaluated_insertions != untraced_twin->result.evaluated_insertions)) {
      problem += " search through the decorator differs from the bare evaluator;";
    }
    if (!problem.empty()) run.fail_check("op " + std::to_string(outcome.op) + ":" + problem);
    if (!outcome.traced) {
      untraced_twin = &outcome;
      continue;
    }
    outcome.layer["mem.newview_amplification"] =
        budgeted
            ? outcome.layer["core.kernel.newview.calls"] / full_budget_of(outcome.input).newviews
            : 1.0;
  }

  if (!options.trace) {
    const auto search_s = collect(outcomes, [](const OpOutcome& o) { return o.search_s; });
    run.add("setup_s", median(collect(outcomes, [](const OpOutcome& o) { return o.setup_s; })));
    run.add("op_p50_ms", median(search_s) * 1e3);
    run.add("op_p99_ms", quantile(search_s, 0.99) * 1e3);
    run.add("ops_per_s", static_cast<double>(outcomes.size()) / window_s);
    run.add("evaluate_p50_ms", median(collect_all(outcomes, &OpOutcome::evaluate_ms)));
    run.add("gradient_p50_ms", median(collect_all(outcomes, &OpOutcome::gradient_ms)));
    run.add("smooth_p50_ms", median(collect_all(outcomes, &OpOutcome::smooth_ms)));
    run.add("peak_rss_mb", peak_mb);
    run.add("neg_lnl_per_site",
            -median(collect(outcomes,
                            [](const OpOutcome& o) { return o.result.log_likelihood; })) /
                static_cast<double>(workload.sites));
    std::printf("ops: %zu searches in %.2f s\n", outcomes.size(), window_s);
    return run;
  }

  // Per-layer metrics come from the first traced op (the seed's first
  // input, so its counts repeat exactly); the tracing overhead compares all
  // traced ops with their untraced twins.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  const OpOutcome* first_traced = nullptr;
  for (const auto& outcome : outcomes) {
    (outcome.traced ? traced_s : untraced_s).push_back(outcome.search_s);
    if (outcome.traced && first_traced == nullptr) first_traced = &outcome;
  }
  if (first_traced != nullptr) {
    for (const auto& [name, value] : first_traced->layer) run.add(name, value);
  }
  run.add("obs.tracing_overhead", median(traced_s) / median(untraced_s) - 1.0);
  return run;
}

}  // namespace perfbench
