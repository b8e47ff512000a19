// The service-mix workload: one EvaluationService (2 executors x 1 pool
// thread, no global budget, deadlines or chaos, so every outcome is
// deterministic) serving 3 client threads, one tenant each, in a closed
// loop: submit, wait(), submit again.  The job stream cycles through a
// fixed mix over eight datasets from 16 to 48 taxa — every job kind on
// every dataset, each either plain, split into 2 partitions, with SDC
// checks, or with a CLA budget of half the job's full CLA bytes (recompute
// mode) — in a fresh seeded order per client and cycle.  Every job builds a
// fresh evaluator, so construction, queueing, small-width kernels and SDC
// dominate, and the budgeted smoothing jobs on the largest datasets form
// the tail.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/common.hpp"
#include "perfbench/spans.hpp"
#include "src/miniphi.hpp"
#include "src/service/service.hpp"

namespace perfbench {
namespace {

using namespace miniphi;

constexpr int kClients = 3;

struct DatasetShape {
  int taxa;
  std::int64_t sites;
  std::int64_t patterns;
};

// A ladder from 16 taxa x 700 patterns to 48 taxa x 7,000 patterns with
// even steps, so that no job kind's latency distribution has a gap for its
// median to jump across.
constexpr DatasetShape kDatasets[] = {
    {16, 1200, 700},  {20, 1600, 970},  {24, 2200, 1350}, {28, 3000, 1870},
    {32, 4000, 2600}, {38, 5400, 3600}, {44, 7000, 5000}, {48, 9000, 7000}};

constexpr service::JobKind kKinds[] = {service::JobKind::kEvaluate, service::JobKind::kGradient,
                                       service::JobKind::kBranchSmooth};

/// One dataset after the program's input preparation.
struct Prepared {
  std::optional<bio::Alignment> alignment;
  bio::PatternSet patterns;
  std::optional<tree::Tree> tree;
  model::GtrParams params;
  std::int64_t full_cla_bytes = 0;
};

struct SetUp {
  std::vector<std::unique_ptr<Prepared>> datasets;
  double parse_s = 0.0;
  double compress_s = 0.0;
  double parsimony_s = 0.0;
};

SetUp prepare(const std::vector<std::string>& phylips, std::uint64_t seed) {
  SetUp setup;
  for (const std::string& text : phylips) {
    auto data = std::make_unique<Prepared>();
    Timer timer;
    std::istringstream in(text);
    const io::SequenceSet records = io::read_phylip(in);
    setup.parse_s += timer.seconds();
    timer.start();
    data->alignment.emplace(records);
    data->patterns = bio::compress_patterns(*data->alignment);
    setup.compress_s += timer.seconds();
    timer.start();
    Rng rng(seed);
    data->tree.emplace(tree::parsimony_starting_tree(data->patterns, rng));
    setup.parsimony_s += timer.seconds();
    const auto freqs = data->alignment->empirical_base_frequencies();
    for (std::size_t i = 0; i < 4; ++i) data->params.frequencies[i] = freqs[i];
    data->full_cla_bytes =
        full_cla_bytes(data->tree->taxon_count(),
                       static_cast<std::int64_t>(data->patterns.pattern_count()));
    setup.datasets.push_back(std::move(data));
  }
  return setup;
}

struct JobTemplate {
  std::size_t dataset = 0;
  service::JobKind kind = service::JobKind::kEvaluate;
  int partitions = 1;
  bool sdc = false;
  bool budgeted = false;
};

/// One job per (dataset, kind).  The variant rotates so that every kind
/// gets every variant twice and the budgeted smoothing jobs land on the
/// 28- and 48-taxon datasets.  A short cycle keeps each client's share of
/// every job type exact up to its last, partial cycle.
std::vector<JobTemplate> job_mix() {
  std::vector<JobTemplate> mix;
  for (std::size_t d = 0; d < std::size(kDatasets); ++d) {
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      JobTemplate job{d, kKinds[k], 1, false, false};
      switch ((d + 2 * k) % 4) {
        case 1: job.partitions = 2; break;
        case 2: job.sdc = true; break;
        case 3: job.budgeted = true; break;
        default: break;
      }
      mix.push_back(job);
    }
  }
  return mix;
}

struct JobRecord {
  std::size_t mix_index = 0;
  service::JobStatus status = service::JobStatus::kPending;
  double lnl = 0.0;
  std::size_t gradient_edges = 0;
  double latency_ms = 0.0;
  double queue_build_ms = 0.0;  ///< submit -> evaluator built (traced half only)
  double run_ms = 0.0;          ///< evaluator built -> wait() returned (traced half only)
};

struct WindowResult {
  std::vector<JobRecord> jobs;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  double seconds = 0.0;
};

std::unique_ptr<service::EvaluationService> make_service(bool metrics) {
  service::ServiceConfig config;
  config.executors = 2;
  config.pool_threads = 1;
  config.metrics = metrics ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  auto svc = std::make_unique<service::EvaluationService>(config);
  for (int c = 0; c < kClients; ++c) svc->register_tenant("tenant" + std::to_string(c), {});
  return svc;
}

/// Runs the closed loop for `seconds`; with `traced`, each job also records
/// spans and the timestamp at which its evaluator was built.
WindowResult run_window(service::EvaluationService& svc, const SetUp& setup,
                        const std::vector<JobTemplate>& mix, std::uint64_t seed, double seconds,
                        bool traced) {
  WindowResult window;
  std::mutex mutex;  // guards window
  std::atomic<std::int64_t> next_op{0};
  const Timer timer;
  const auto client = [&](int c) {
    // Each client walks the mix in a fresh seeded order every cycle.
    std::vector<std::size_t> order(mix.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(seed * 31 + static_cast<std::uint64_t>(c) + 1);

    SpanLog& log = SpanLog::instance();
    for (std::size_t n = 0; timer.seconds() < seconds; ++n) {
      if (n % order.size() == 0) {
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.below(i)]);
        }
      }
      JobRecord record;
      record.mix_index = order[n % order.size()];
      const JobTemplate& job = mix[record.mix_index];
      const Prepared& data = *setup.datasets[job.dataset];
      service::JobRequest request;
      request.tenant = "tenant" + std::to_string(c);
      request.patterns = &data.patterns;
      request.alignment = &*data.alignment;
      request.tree = &*data.tree;
      request.params = data.params;
      request.options.kind = job.kind;
      request.options.partitions = job.partitions;
      request.options.sdc_checks = job.sdc;
      request.options.cla_budget_bytes = job.budgeted ? data.full_cla_bytes / 2 : 0;
      std::atomic<std::int64_t> built_ns{-1};
      if (traced) {
        request.fault_injector = [&built_ns](core::Evaluator&) {
          built_ns.store(SpanLog::instance().now_ns());
        };
      }
      const std::int64_t op = next_op.fetch_add(1);
      try {
        const ScopedSpan span("service.job", op);
        const std::int64_t parent = log.current();
        const std::int64_t submitted_ns = log.now_ns();
        const std::int64_t id = svc.submit(request);
        if (id == service::kOverloadedJobId) {
          const std::lock_guard<std::mutex> lock(mutex);
          ++window.shed;
          continue;
        }
        const service::JobResult result = svc.wait(id);
        const std::int64_t done_ns = log.now_ns();
        record.status = result.status;
        record.lnl = result.log_likelihood;
        record.gradient_edges = result.gradient_edges;
        record.latency_ms = static_cast<double>(done_ns - submitted_ns) * 1e-6;
        const std::int64_t built = built_ns.load();
        if (traced && built >= 0) {
          record.queue_build_ms = static_cast<double>(built - submitted_ns) * 1e-6;
          record.run_ms = static_cast<double>(done_ns - built) * 1e-6;
          log.record("service.queue_build", submitted_ns, built, static_cast<std::int32_t>(parent),
                     op);
          log.record("service.run", built, done_ns, static_cast<std::int32_t>(parent), op);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "client %d: job failed: %s\n", c, error.what());
        const std::lock_guard<std::mutex> lock(mutex);
        ++window.errors;
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      window.jobs.push_back(record);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& thread : clients) thread.join();
  window.seconds = timer.seconds();
  return window;
}

/// The lnL a job of this kind and partitioning must return, from a direct
/// unbudgeted serial evaluator over the same inputs, rooted where the
/// service roots (the tree's first edge).
double reference_lnl(const Prepared& data, service::JobKind kind, int partitions) {
  tree::Tree tree(*data.tree);
  const model::GtrModel model(data.params);
  std::unique_ptr<core::Evaluator> evaluator;
  if (partitions > 1) {
    const auto specs = core::even_partitions(
        static_cast<std::int64_t>(data.alignment->site_count()), partitions);
    evaluator = core::make_evaluator(*data.alignment, specs, model, tree, core::EngineConfig{});
  } else {
    evaluator = core::make_evaluator(data.patterns, model, tree, core::EngineConfig{});
  }
  tree::Slot* root = tree.edges().front();
  return kind == service::JobKind::kBranchSmooth ? evaluator->optimize_all_branches(root, 1)
                                                 : evaluator->log_likelihood(root);
}

template <typename Pred>
std::vector<double> latencies(const WindowResult& window, const std::vector<JobTemplate>& mix,
                              Pred pred) {
  std::vector<double> values;
  for (const auto& job : window.jobs) {
    if (pred(mix[job.mix_index])) values.push_back(job.latency_ms);
  }
  return values;
}

}  // namespace

RunResult run_service_workload(const Options& options) {
  std::vector<std::string> phylips;
  for (std::size_t d = 0; d < std::size(kDatasets); ++d) {
    const DatasetShape& shape = kDatasets[d];
    phylips.push_back(make_phylip(shape.taxa, shape.sites, shape.patterns, options.seed * 7 + d));
  }
  const std::vector<JobTemplate> mix = job_mix();

  // Set-up: input preparation for every dataset, service construction and
  // tenant registration, repeated; the last one serves the window.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::optional<SetUp> setup;
  std::unique_ptr<service::EvaluationService> svc;
  for (int i = 0; i < kSetups; ++i) {
    svc.reset();
    setup.reset();
    const Timer timer;
    setup.emplace(prepare(phylips, options.seed));
    svc = make_service(false);
    setup_s.push_back(timer.seconds());
  }
  for (std::size_t d = 0; d < setup->datasets.size(); ++d) {
    const Prepared& data = *setup->datasets[d];
    std::printf("dataset %zu: %zu taxa x %zu sites -> %zu patterns; CLA set %.2f MB (computed)\n",
                d, data.alignment->taxon_count(), data.alignment->site_count(),
                data.patterns.pattern_count(), static_cast<double>(data.full_cla_bytes) / 1e6);
  }

  RunResult run;
  std::optional<WindowResult> untraced;
  std::optional<WindowResult> traced;
  if (options.trace) {
    // Untraced then traced halves, for the tracing overhead.
    untraced.emplace(run_window(*svc, *setup, mix, options.seed, options.seconds / 2, false));
    svc.reset();
    svc = make_service(true);
    obs::Registry::instance().reset();
    SpanLog::instance().set_enabled(true);
    traced.emplace(run_window(*svc, *setup, mix, options.seed + 1, options.seconds / 2, true));
    SpanLog::instance().set_enabled(false);
  } else {
    untraced.emplace(run_window(*svc, *setup, mix, options.seed, options.seconds, false));
  }
  svc.reset();
  const double peak_mb = peak_rss_mb();

  // Correctness against per-(dataset, kind, partitions) references.
  std::map<std::tuple<std::size_t, int, int>, double> references;
  for (const WindowResult* window : {&*untraced, traced ? &*traced : nullptr}) {
    if (window == nullptr) continue;
    run.attempted += static_cast<std::int64_t>(window->jobs.size()) + window->shed +
                     window->errors;
    run.failed += window->shed + window->errors;
    for (const JobRecord& job : window->jobs) {
      const JobTemplate& t = mix[job.mix_index];
      if (job.status != service::JobStatus::kOk) {
        ++run.failed;
        continue;
      }
      const auto key = std::make_tuple(t.dataset, static_cast<int>(t.kind), t.partitions);
      auto it = references.find(key);
      if (it == references.end()) {
        it = references
                 .emplace(key, reference_lnl(*setup->datasets[t.dataset], t.kind, t.partitions))
                 .first;
      }
      const bool edges_ok =
          t.kind != service::JobKind::kGradient ||
          job.gradient_edges ==
              static_cast<std::size_t>(setup->datasets[t.dataset]->tree->edge_count());
      if (!close_relative(job.lnl, it->second, 1e-10) || !edges_ok) {
        run.fail_check("service job (dataset " + std::to_string(t.dataset) + ", kind " +
                       std::to_string(static_cast<int>(t.kind)) + ") lnL " +
                       std::to_string(job.lnl) + " vs reference " + std::to_string(it->second));
      }
    }
  }

  if (!options.trace) {
    const WindowResult& window = *untraced;
    const auto all = latencies(window, mix, [](const JobTemplate&) { return true; });
    const auto of_kind = [&](service::JobKind kind) {
      return median(
          latencies(window, mix, [kind](const JobTemplate& t) { return t.kind == kind; }));
    };
    // Fit after one smoothing pass, averaged over the datasets so the
    // mix of completed jobs does not move it.
    std::vector<std::vector<double>> smoothed(std::size(kDatasets));
    for (const auto& job : window.jobs) {
      const JobTemplate& t = mix[job.mix_index];
      if (t.kind == service::JobKind::kBranchSmooth) {
        smoothed[t.dataset].push_back(-job.lnl / static_cast<double>(kDatasets[t.dataset].sites));
      }
    }
    double neg_lnl_per_site = 0.0;
    for (const auto& values : smoothed) {
      neg_lnl_per_site += median(values) / static_cast<double>(smoothed.size());
    }
    run.add("setup_s", median(setup_s));
    run.add("op_p50_ms", median(all));
    run.add("op_p99_ms", quantile(all, 0.99));
    run.add("ops_per_s", static_cast<double>(window.jobs.size()) / window.seconds);
    run.add("evaluate_p50_ms", of_kind(service::JobKind::kEvaluate));
    run.add("gradient_p50_ms", of_kind(service::JobKind::kGradient));
    run.add("smooth_p50_ms", of_kind(service::JobKind::kBranchSmooth));
    run.add("peak_rss_mb", peak_mb);
    run.add("neg_lnl_per_site", neg_lnl_per_site);
    std::printf("ops: %zu jobs in %.2f s (%lld shed)\n", window.jobs.size(), window.seconds,
                static_cast<long long>(window.shed));
    return run;
  }

  std::vector<double> queue_build;
  std::vector<double> run_ms;
  for (const auto& job : traced->jobs) {
    queue_build.push_back(job.queue_build_ms);
    run_ms.push_back(job.run_ms);
  }
  run.add("io.parse_s", setup->parse_s);
  run.add("bio.compress_s", setup->compress_s);
  run.add("tree.parsimony_s", setup->parsimony_s);
  run.add("service.queue_build_ms.p50", median(queue_build));
  run.add("service.queue_build_ms.p99", quantile(queue_build, 0.99));
  run.add("service.run_ms.p50", median(run_ms));
  run.add("service.run_ms.p99", quantile(run_ms, 0.99));
  run.add("service.shed", static_cast<double>(traced->shed));
  const auto registry = registry_values();
  for (const char* name : {"sdc.checks", "sdc.verify_ns"}) {
    if (registry.count(name) != 0) run.add(name, registry.at(name));
  }
  const double untraced_rate = static_cast<double>(untraced->jobs.size()) / untraced->seconds;
  const double traced_rate = static_cast<double>(traced->jobs.size()) / traced->seconds;
  run.add("obs.tracing_overhead", untraced_rate / traced_rate - 1.0);
  return run;
}

}  // namespace perfbench
