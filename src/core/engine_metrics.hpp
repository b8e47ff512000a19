// Metrics publication helpers shared by the three likelihood engines.
//
// The dense engine's site-repeats path also registers the class-map build
// family ("core.repeat_map.*").
//
// Engines constructed with EngineConfig::metrics == kOn register one metric
// family per kernel under the dotted names the obs report understands
// ("plf.<isa>.<path>.<kernel>.{calls,sites,sites_rep,bytes,ns}"), and
// EngineCore::account_kernel calls publish_kernel() after every kernel
// invocation.  Registration happens once at engine construction (it takes
// the registry lock); publication is a handful of per-thread sharded adds.
// With MINIPHI_METRICS_DISABLED the publication body compiles out entirely.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "src/core/eval_stats.hpp"
#include "src/obs/metrics.hpp"
#include "src/simd/dispatch.hpp"

namespace miniphi::core {

struct KernelMetricIds {
  obs::MetricId calls = 0;
  obs::MetricId sites = 0;
  obs::MetricId sites_rep = 0;
  obs::MetricId bytes = 0;
  obs::MetricId ns = 0;  ///< per-call latency histogram, nanoseconds
};

struct EngineMetricIds {
  std::array<KernelMetricIds, kKernelCount> kernels{};
  obs::MetricId scaling_events = 0;
};

/// Registry name of one kernel: "plf.<isa>.<path>.<kernel>" where <path>
/// distinguishes engine/layout variants ("dense", "repeats", "cat",
/// "general").
[[nodiscard]] inline std::string kernel_metric_prefix(simd::Isa isa, const char* path,
                                                      Kernel kernel) {
  std::string name = "plf." + simd::to_string(isa) + "." + path + ".";
  switch (kernel) {
    case Kernel::kNewview: name += "newview"; break;
    case Kernel::kEvaluate: name += "evaluate"; break;
    case Kernel::kDerivSum: name += "derivative_sum"; break;
    case Kernel::kDerivCore: name += "derivative_core"; break;
  }
  return name;
}

/// Interns every metric an engine publishes.  Idempotent (names are interned
/// by the registry), so many engines sharing an (isa, path) share counters —
/// exactly what the whole-run Fig. 3 breakdown wants.
[[nodiscard]] inline EngineMetricIds register_engine_metrics(simd::Isa isa, const char* path) {
  EngineMetricIds ids;
  obs::Registry& registry = obs::Registry::instance();
  for (int k = 0; k < kKernelCount; ++k) {
    const std::string prefix = kernel_metric_prefix(isa, path, static_cast<Kernel>(k));
    KernelMetricIds& kernel = ids.kernels[static_cast<std::size_t>(k)];
    kernel.calls = registry.counter(prefix + ".calls");
    kernel.sites = registry.counter(prefix + ".sites");
    kernel.sites_rep = registry.counter(prefix + ".sites_rep");
    kernel.bytes = registry.counter(prefix + ".bytes");
    kernel.ns = registry.histogram(prefix + ".ns");
  }
  ids.scaling_events = registry.counter("plf.scaling_events");
  return ids;
}

/// Class-map builds of the site-repeats path ("core.repeat_map.*"): every
/// build, the dedup path it took or the identity it was decided by without
/// one, and its latency.
struct RepeatMapMetricIds {
  obs::MetricId builds = 0;
  obs::MetricId direct = 0;
  obs::MetricId hashed = 0;
  obs::MetricId identity_by_subset = 0;
  obs::MetricId ns = 0;  ///< per-build latency histogram, nanoseconds
};

[[nodiscard]] inline RepeatMapMetricIds register_repeat_map_metrics() {
  obs::Registry& registry = obs::Registry::instance();
  RepeatMapMetricIds ids;
  ids.builds = registry.counter("core.repeat_map.builds");
  ids.direct = registry.counter("core.repeat_map.direct");
  ids.hashed = registry.counter("core.repeat_map.hashed");
  ids.identity_by_subset = registry.counter("core.repeat_map.identity_by_subset");
  ids.ns = registry.histogram("core.repeat_map.build_ns");
  return ids;
}

/// One class-map build: which dedup path it took, if any, or whether a
/// known identity leaf set decided it.
inline void publish_repeat_map_build(const RepeatMapMetricIds& ids, bool direct, bool hashed,
                                     bool identity_by_subset, std::int64_t ns) {
  if constexpr (!obs::kMetricsCompiled) {
    (void)ids, (void)direct, (void)hashed, (void)identity_by_subset, (void)ns;
    return;
  } else {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(ids.builds, 1);
    if (direct) registry.add(ids.direct, 1);
    if (hashed) registry.add(ids.hashed, 1);
    if (identity_by_subset) registry.add(ids.identity_by_subset, 1);
    registry.observe(ids.ns, ns);
  }
}

/// One kernel invocation's worth of publication.  The caller guards with
/// its own `if (metrics_)` so the metrics-off path is a single branch.
inline void publish_kernel(const KernelMetricIds& ids, std::int64_t sites,
                           std::int64_t sites_represented, std::int64_t cla_bytes,
                           double seconds) {
  if constexpr (!obs::kMetricsCompiled) {
    (void)ids, (void)sites, (void)sites_represented, (void)cla_bytes, (void)seconds;
    return;
  } else {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(ids.calls, 1);
    registry.add(ids.sites, sites);
    registry.add(ids.sites_rep, sites_represented);
    registry.add(ids.bytes, cla_bytes);
    registry.observe(ids.ns, static_cast<std::int64_t>(seconds * 1e9));
  }
}

}  // namespace miniphi::core
