// Tests for the observability subsystem (src/obs/): metrics registry
// sharding and merge, histogram geometry, span tracer export format, and the
// EvalStats aggregation path the evaluators share.
//
// The registry and tracer are process-wide singletons, so every test resets
// them and uses test-unique metric names to stay independent of execution
// order.
#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/bio/aa.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/eval_stats.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/core/trace.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/obs/span_trace.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace miniphi;

// ---------------------------------------------------------------------------
// Histogram geometry

TEST(Histogram, BucketZeroHoldsNonPositiveAndSubOne) {
  EXPECT_EQ(obs::histogram_bucket(-5), 0);
  EXPECT_EQ(obs::histogram_bucket(0), 0);
  // 2^0 <= 1 < 2^1 -> bucket 1 by the documented geometry.
  EXPECT_EQ(obs::histogram_bucket(1), 1);
}

TEST(Histogram, PowerOfTwoEdgesLandInUpperBucket) {
  // Bucket b >= 1 covers [2^(b-1), 2^b): the lower edge is inclusive.
  for (int b = 1; b < obs::kHistogramBuckets - 1; ++b) {
    const std::int64_t floor = obs::histogram_bucket_floor(b);
    EXPECT_EQ(obs::histogram_bucket(floor), b) << "floor of bucket " << b;
    EXPECT_EQ(obs::histogram_bucket(floor - 1), b - 1) << "below floor of bucket " << b;
    if (2 * floor - 1 > floor) {
      EXPECT_EQ(obs::histogram_bucket(2 * floor - 1), b) << "ceiling of bucket " << b;
    }
  }
}

TEST(Histogram, LastBucketAbsorbsEverythingAbove) {
  const int last = obs::kHistogramBuckets - 1;
  EXPECT_EQ(obs::histogram_bucket(std::int64_t{1} << 62), last);
  EXPECT_EQ(obs::histogram_bucket(obs::histogram_bucket_floor(last)), last);
}

TEST(Histogram, FloorsAreMonotonePowersOfTwo) {
  EXPECT_EQ(obs::histogram_bucket_floor(0), 0);
  EXPECT_EQ(obs::histogram_bucket_floor(1), 1);
  for (int b = 2; b < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(obs::histogram_bucket_floor(b), 2 * obs::histogram_bucket_floor(b - 1));
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, CounterInterningIsIdempotent) {
  auto& registry = obs::Registry::instance();
  const auto id1 = registry.counter("obs_test.intern");
  const auto id2 = registry.counter("obs_test.intern");
  EXPECT_EQ(id1, id2);
}

TEST(Registry, CounterMergesAcrossThreads) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.counter("obs_test.merge");
  registry.reset();

  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) registry.add(id, 1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.value(id), static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(Registry, CountsSurviveThreadExit) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.counter("obs_test.survive");
  registry.reset();
  std::thread([&] { registry.add(id, 7); }).join();
  std::thread([&] { registry.add(id, 35); }).join();
  // The shards of exited threads keep contributing to the merge.
  EXPECT_EQ(registry.value(id), 42);
}

TEST(Registry, ShardsAreRecycledAcrossThreadChurn) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.counter("obs_test.churn");
  // Sequential short-lived threads (the minimpi rank pattern) must reuse
  // retired shards, not grow the shard list per thread.
  std::thread([&] { registry.add(id, 1); }).join();
  const std::size_t before = registry.shard_count();
  for (int i = 0; i < 16; ++i) {
    std::thread([&] { registry.add(id, 1); }).join();
  }
  EXPECT_EQ(registry.shard_count(), before);
}

TEST(Registry, GaugeIsLastWriteWinsNotSummed) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.gauge("obs_test.gauge");
  registry.reset();
  std::thread([&] { registry.set(id, 100); }).join();
  registry.set(id, 25);  // a second writer must replace, not add
  EXPECT_EQ(registry.value(id), 25);
}

TEST(Registry, HistogramSnapshotCountsSumAndBuckets) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.histogram("obs_test.histo");
  registry.reset();
  registry.observe(id, 0);   // bucket 0
  registry.observe(id, 1);   // bucket 1
  registry.observe(id, 5);   // bucket 3: [4, 8)
  registry.observe(id, 5);
  const auto snapshot = registry.histogram_snapshot(id);
  EXPECT_EQ(snapshot.count, 4);
  EXPECT_EQ(snapshot.sum, 11);
  ASSERT_EQ(snapshot.buckets.size(), static_cast<std::size_t>(obs::kHistogramBuckets));
  EXPECT_EQ(snapshot.buckets[0], 1);
  EXPECT_EQ(snapshot.buckets[1], 1);
  EXPECT_EQ(snapshot.buckets[3], 2);
}

TEST(Registry, ConcurrentReadersSeeConsistentPartialSums) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.counter("obs_test.concurrent");
  registry.reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) registry.add(id, 1);
  });
  // Merged reads racing the writer must be monotone non-decreasing.
  std::int64_t last = 0;
  for (int i = 0; i < 1'000; ++i) {
    const std::int64_t now = registry.value(id);
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Registry, SnapshotContainsRegisteredMetrics) {
  auto& registry = obs::Registry::instance();
  const auto id = registry.counter("obs_test.snapshot");
  registry.reset();
  registry.add(id, 3);
  bool found = false;
  for (const auto& metric : registry.snapshot()) {
    if (metric.name == "obs_test.snapshot") {
      found = true;
      EXPECT_EQ(metric.kind, obs::MetricKind::kCounter);
      EXPECT_EQ(metric.value, 3);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Tracer

/// Minimal JSON validator: walks the value grammar (objects, arrays,
/// strings with escapes, numbers, literals) and returns true iff the whole
/// input is one well-formed value.  Enough to catch unbalanced brackets,
/// bad escaping, or trailing commas in the exporter.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(Tracer, DisabledTracerRecordsNothing) {
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  { const obs::ScopedSpan span("obs_test:disabled"); }
  EXPECT_EQ(tracer.event_count(), 0);
}

TEST(Tracer, ExportedTraceIsWellFormedJson) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  tracer.set_thread_label("main \"quoted\"\\label");  // exercises escaping
  { const obs::ScopedSpan span("obs_test:outer"); }
  { const obs::ScopedSpan span("obs_test:inner"); }
  tracer.set_enabled(false);

  const std::string json = tracer.chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("obs_test:outer"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_EQ(tracer.event_count(), 2);
  tracer.clear();
}

TEST(Tracer, EventsFromMultipleThreadsAllExported) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;  // crosses no chunk boundary per thread
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpans; ++i) {
        const obs::ScopedSpan span("obs_test:worker");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.event_count(), kThreads * kSpans);
  EXPECT_TRUE(JsonChecker(tracer.chrome_trace_json()).valid());
  tracer.clear();
}

TEST(Tracer, RankedThreadsGroupByPid) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  std::thread([&] {
    tracer.set_thread_rank(3);
    const obs::ScopedSpan span("obs_test:ranked");
  }).join();
  tracer.set_enabled(false);
  const std::string json = tracer.chrome_trace_json();
  // rank 3 -> pid 4 (0 is reserved for unranked threads).
  EXPECT_NE(json.find("\"pid\":4"), std::string::npos) << json;
  tracer.clear();
}

// ---------------------------------------------------------------------------
// EvalStats aggregation

TEST(EvalStats, AggregationSumsKernelsAndAttribution) {
  core::EvalStats a;
  a.kernel(core::Kernel::kNewview).calls = 3;
  a.kernel(core::Kernel::kNewview).sites = 300;
  a.kernel(core::Kernel::kNewview).seconds = 0.5;
  a.scaling_events = 2;
  a.compute_seconds = 1.0;
  a.comm_calls = 4;

  core::EvalStats b;
  b.kernel(core::Kernel::kNewview).calls = 1;
  b.kernel(core::Kernel::kNewview).sites = 100;
  b.kernel(core::Kernel::kEvaluate).calls = 7;
  b.scaling_events = 5;
  b.wait_seconds = 0.25;

  a += b;
  EXPECT_EQ(a.kernel(core::Kernel::kNewview).calls, 4);
  EXPECT_EQ(a.kernel(core::Kernel::kNewview).sites, 400);
  EXPECT_EQ(a.kernel(core::Kernel::kEvaluate).calls, 7);
  EXPECT_EQ(a.scaling_events, 7);
  EXPECT_DOUBLE_EQ(a.compute_seconds, 1.0);
  EXPECT_DOUBLE_EQ(a.wait_seconds, 0.25);
  EXPECT_EQ(a.comm_calls, 4);
}

TEST(EvalStats, FormatListsEveryKernelRow) {
  core::EvalStats stats;
  stats.kernel(core::Kernel::kNewview).calls = 2;
  stats.kernel(core::Kernel::kNewview).sites = 1000;
  stats.kernel(core::Kernel::kNewview).seconds = 0.001;
  const std::string text = core::format_eval_stats(stats);
  for (int k = 0; k < core::kKernelCount; ++k) {
    EXPECT_NE(text.find(core::kernel_name(static_cast<core::Kernel>(k))), std::string::npos)
        << text;
  }
}

// ---------------------------------------------------------------------------
// Engine integration: the registry and the stats() API must agree

TEST(EngineMetrics, RegistryCountersMatchEvalStats) {
  auto& registry = obs::Registry::instance();
  const auto alignment = simulate::paper_dataset(500, 11, 12);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(1);
  tree::Tree tree = tree::parsimony_starting_tree(patterns, rng);
  core::LikelihoodEngine::Config config;
  config.metrics = obs::MetricsMode::kOn;
  config.site_repeats = false;
  core::LikelihoodEngine engine(patterns, model::GtrModel(model::GtrParams::jc69(0.8)), tree,
                                config);
  registry.reset();  // after construction: registration is setup-time
  engine.optimize_all_branches(tree.tip(0), 2);

  const core::EvalStats& stats = engine.stats();
  const std::string prefix =
      "plf." + simd::to_string(engine.isa()) + ".dense.";
  const struct {
    core::Kernel kernel;
    const char* name;
  } rows[] = {{core::Kernel::kNewview, "newview"},
              {core::Kernel::kEvaluate, "evaluate"},
              {core::Kernel::kDerivSum, "derivative_sum"},
              {core::Kernel::kDerivCore, "derivative_core"}};
  for (const auto& row : rows) {
    EXPECT_EQ(registry.value(registry.counter(prefix + row.name + ".calls")),
              stats.kernel(row.kernel).calls)
        << row.name;
    EXPECT_EQ(registry.value(registry.counter(prefix + row.name + ".sites")),
              stats.kernel(row.kernel).sites)
        << row.name;
    EXPECT_GT(stats.kernel(row.kernel).calls, 0) << row.name;
  }
  EXPECT_EQ(registry.value(registry.counter("plf.scaling_events")), stats.scaling_events);

  engine.reset_stats();
  EXPECT_EQ(engine.stats().kernel(core::Kernel::kNewview).calls, 0);
}

// Every engine family accounts for kernel work through one call: with
// metrics on and a KernelTrace attached, a mixed workload (evaluate, the
// all-branch gradient descent, one smoothing pass) must leave the trace,
// EvalStats and the plf.* registry counters in agreement, kernel by kernel.
// The dense engine publishes its descent under the "preorder" path; CAT and
// general publish both under their own path.
class KernelAccounting : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelAccounting, TraceRegistryAndEvalStatsAgree) {
  auto& registry = obs::Registry::instance();
  const auto alignment = simulate::paper_dataset(400, 10, 21);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(3);
  tree::Tree tree = tree::parsimony_starting_tree(patterns, rng);
  const model::GtrModel gtr(model::GtrParams::jc69(0.8));
  core::KernelTrace trace;
  core::EngineConfig config;
  config.metrics = obs::MetricsMode::kOn;
  config.trace = &trace;
  const std::string family = GetParam();
  std::unique_ptr<core::Evaluator> engine;
  std::vector<std::string> paths;
  if (family == "dense") {
    engine = std::make_unique<core::LikelihoodEngine>(patterns, gtr, tree, config);
    paths = {"repeats", "preorder"};
  } else if (family == "cat") {
    engine = std::make_unique<core::CatEngine>(patterns, gtr, tree, 4, config);
    paths = {"cat"};
  } else {
    const model::GeneralModel general(4, std::vector<double>(6, 1.0),
                                      std::vector<double>(4, 0.25), 0.8);
    engine = std::make_unique<core::GeneralEngine>(patterns, general, tree,
                                                   bio::dna_code_masks(), config);
    paths = {"general"};
  }
  registry.reset();  // after construction: registration is setup-time
  (void)engine->log_likelihood(tree.tip(0));
  std::vector<core::BranchGradient> gradient;
  ASSERT_TRUE(engine->gradient_all_branches(tree.tip(0), gradient));
  (void)engine->optimize_all_branches(tree.tip(0), 1);

  const core::EvalStats& stats = engine->stats();
  const std::string isa = simd::to_string(engine->isa());
  const struct {
    core::Kernel kernel;
    core::TraceKernel traced;
    const char* name;
  } rows[] = {{core::Kernel::kNewview, core::TraceKernel::kNewview, "newview"},
              {core::Kernel::kEvaluate, core::TraceKernel::kEvaluate, "evaluate"},
              {core::Kernel::kDerivSum, core::TraceKernel::kDerivSum, "derivative_sum"},
              {core::Kernel::kDerivCore, core::TraceKernel::kDerivCore, "derivative_core"}};
  for (const auto& row : rows) {
    const core::KernelStat& stat = stats.kernel(row.kernel);
    EXPECT_GT(stat.calls, 0) << row.name;
    EXPECT_EQ(trace.call_count(row.traced), stat.calls) << row.name;
    EXPECT_EQ(trace.total_sites(row.traced), stat.sites) << row.name;
    EXPECT_EQ(trace.total_sites_represented(row.traced), stat.sites_represented) << row.name;
    std::int64_t calls = 0;
    std::int64_t sites = 0;
    std::int64_t bytes = 0;
    for (const std::string& path : paths) {
      const std::string prefix = "plf." + isa + "." + path + "." + row.name;
      calls += registry.value(registry.counter(prefix + ".calls"));
      sites += registry.value(registry.counter(prefix + ".sites"));
      bytes += registry.value(registry.counter(prefix + ".bytes"));
    }
    EXPECT_EQ(calls, stat.calls) << row.name;
    EXPECT_EQ(sites, stat.sites) << row.name;
    EXPECT_EQ(bytes, stat.bytes) << row.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, KernelAccounting,
                         ::testing::Values("dense", "cat", "general"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

TEST(Report, GroupsKernelMetricsIntoRows) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  const auto calls = registry.counter("plf.avx2.dense.newview.calls");
  const auto sites = registry.counter("plf.avx2.dense.newview.sites");
  registry.add(calls, 12);
  registry.add(sites, 4800);
  const std::string report = obs::render_kernel_report();
  EXPECT_NE(report.find("avx2.dense.newview"), std::string::npos) << report;
  EXPECT_NE(report.find("12"), std::string::npos) << report;
}

}  // namespace
