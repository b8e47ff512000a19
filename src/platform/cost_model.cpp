#include "src/platform/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/util/error.hpp"

namespace miniphi::platform {
namespace {

/// Bytes of one CLA site block (16 doubles) and of a per-site scale counter.
constexpr double kBlockBytes = 16.0 * 8.0;
constexpr double kScaleBytes = 4.0;
constexpr double kTipCodeBytes = 1.0;

}  // namespace

KernelProfile kernel_profile(core::TraceKernel kernel, bool left_tip, bool right_tip) {
  KernelProfile profile;
  const double left_read = left_tip ? kTipCodeBytes : kBlockBytes + kScaleBytes;
  const double right_read = right_tip ? kTipCodeBytes : kBlockBytes + kScaleBytes;
  switch (kernel) {
    case core::TraceKernel::kNewview:
      // Per inner child: 16 outputs × 4-term dot product (mul+add = 2 flops).
      // Tip children are table lookups.  Then x3 = a∘b (16) and the W
      // back-transform (another 16×4×2).
      profile.flops = 128.0 * ((left_tip ? 0 : 1) + (right_tip ? 0 : 1)) + 16.0 + 128.0;
      profile.bytes_read = left_read + right_read;
      profile.bytes_written = kBlockBytes + kScaleBytes;
      break;
    case core::TraceKernel::kEvaluate:
      // Dot product over 16 lanes (×3 flops with the diag multiply) + log.
      profile.flops = (right_tip ? 32.0 : 48.0) + 25.0;
      profile.bytes_read = kBlockBytes + kScaleBytes + right_read;
      profile.bytes_written = 0.0;
      break;
    case core::TraceKernel::kDerivSum:
      profile.flops = 16.0;
      profile.bytes_read = kBlockBytes + (right_tip ? kTipCodeBytes : kBlockBytes);
      profile.bytes_written = kBlockBytes;
      break;
    case core::TraceKernel::kDerivCore:
      // Three 16-lane dot products + the site-blocked scalar epilogue.
      profile.flops = 96.0 + 10.0;
      profile.bytes_read = kBlockBytes;
      profile.bytes_written = 0.0;
      break;
  }
  return profile;
}

double call_seconds(const ExecConfig& config, core::TraceKernel kernel, bool left_tip,
                    bool right_tip, std::int64_t sites) {
  const PlatformSpec& platform = config.platform;
  MINIPHI_ASSERT(platform.kernel_workers > 0);
  const KernelProfile profile = kernel_profile(kernel, left_tip, right_tip);

  // The CPU baseline kernels (AVX RAxML/ExaML) do not use streaming stores
  // (Section V-B5 is a MIC-only optimization), so every written cache line
  // is first read for ownership.
  const bool streaming_stores = platform.kind == PlatformKind::kMic;
  const double bytes_per_site =
      profile.bytes_read + profile.bytes_written * (streaming_stores ? 1.0 : 2.0);

  const int workers_total = platform.kernel_workers * config.cards;
  const auto sites_per_worker =
      static_cast<double>((sites + workers_total - 1) / workers_total);

  // Latency/concurrency ramp: short per-worker streams cannot saturate the
  // memory system (most punishing on the in-order MIC cores).
  const double ramp =
      sites_per_worker / (sites_per_worker + platform.sites_half_saturation);

  const auto kernel_index = static_cast<std::size_t>(kernel);
  const double card_bandwidth = platform.memory_bandwidth_gbs * 1e9 *
                                platform.kernel_bandwidth_fraction[kernel_index];
  const double worker_bandwidth = card_bandwidth / platform.kernel_workers * ramp;
  const double worker_flops =
      platform.peak_dp_gflops * 1e9 * platform.flops_fraction / platform.kernel_workers;

  const double bandwidth_time = sites_per_worker * bytes_per_site / worker_bandwidth;
  const double flops_time = sites_per_worker * profile.flops / worker_flops;
  double seconds = std::max(bandwidth_time, flops_time);

  // Per-call synchronization.
  seconds += platform.forkjoin_region_seconds;
  if (kernel == core::TraceKernel::kEvaluate || kernel == core::TraceKernel::kDerivCore) {
    // Scalar Allreduce across all ranks; the slowest link dominates.
    seconds += platform.allreduce_intra_seconds;
    if (config.cards > 1) seconds += config.allreduce_inter_seconds;
  }
  if (config.offload_mode) seconds += config.offload_latency_seconds;
  return seconds;
}

SimulatedTime simulate_trace(const core::KernelTrace& trace, const ExecConfig& config) {
  SimulatedTime result;
  for (const auto& call : trace.calls) {
    const double seconds =
        call_seconds(config, call.kernel, call.left_tip, call.right_tip, call.sites);
    result.total_seconds += seconds;
    result.per_kernel_seconds[static_cast<std::size_t>(call.kernel)] += seconds;

    double sync = config.platform.forkjoin_region_seconds;
    if (call.kernel == core::TraceKernel::kEvaluate ||
        call.kernel == core::TraceKernel::kDerivCore) {
      sync += config.platform.allreduce_intra_seconds;
      if (config.cards > 1) sync += config.allreduce_inter_seconds;
    }
    result.sync_seconds += sync;
    if (config.offload_mode) result.offload_seconds += config.offload_latency_seconds;
  }
  result.compute_seconds = result.total_seconds - result.sync_seconds - result.offload_seconds;
  return result;
}

double energy_wh(const ExecConfig& config, double seconds) {
  return config.platform.max_tdp_watts * config.cards * seconds / 3600.0;
}

ExecConfig config_e5_2630() { return ExecConfig{xeon_e5_2630(), 1, 150e-6, false, 300e-6}; }

ExecConfig config_e5_2680() { return ExecConfig{xeon_e5_2680(), 1, 150e-6, false, 300e-6}; }

ExecConfig config_phi_single() { return ExecConfig{xeon_phi_5110p(), 1, 150e-6, false, 300e-6}; }

ExecConfig config_phi_dual() { return ExecConfig{xeon_phi_5110p(), 2, 150e-6, false, 300e-6}; }

namespace {

/// Double lanes per vector register.
double isa_lanes(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kScalar:
      return 1.0;
    case simd::Isa::kAvx2:
      return 4.0;
    case simd::Isa::kAvx512:
      return 8.0;
  }
  return 1.0;
}

/// Half-saturation pattern count per lane: the stream length at which a
/// vector unit reaches half its peak speedup (the per-worker
/// sites_half_saturation ramp of call_seconds, applied per lane).
constexpr double kLaneHalfSaturation = 64.0;

/// Per-call fixed cost per lane, in site-units: prologue/epilogue, masked
/// remainder, and the wider spill/fill state of wide kernels.
constexpr double kLaneCallCost = 24.0;

}  // namespace

double partition_cost(std::int64_t patterns, simd::Isa isa) {
  MINIPHI_CHECK(patterns >= 0, "partition_cost: negative pattern count");
  const double width = isa_lanes(isa);
  const double sites = static_cast<double>(patterns);
  const double ramp = sites / (sites + width * kLaneHalfSaturation);
  const double speedup = 1.0 + (width - 1.0) * ramp;
  return sites / speedup + width * kLaneCallCost;
}

core::StreamPlan plan_partition_streams(std::span<const std::int64_t> partition_patterns,
                                        int stream_count, simd::Isa widest,
                                        std::span<const double> budget_fraction) {
  MINIPHI_CHECK(stream_count >= 1, "plan_partition_streams: stream_count must be >= 1");
  const auto n = static_cast<int>(partition_patterns.size());
  MINIPHI_CHECK(budget_fraction.empty() || budget_fraction.size() == partition_patterns.size(),
                "plan_partition_streams: budget_fraction size does not match the partition count");
  core::StreamPlan plan;
  plan.stream_count = std::clamp(stream_count, 1, std::max(n, 1));
  plan.partition_stream.assign(static_cast<std::size_t>(n), 0);
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    double cost = partition_cost(partition_patterns[static_cast<std::size_t>(p)], widest);
    if (!budget_fraction.empty()) {
      // Tight-budget partitions recompute evicted CLAs: model a linear ramp
      // from 1× (full residency) to 2× (minimum working set).
      const double fraction = std::clamp(budget_fraction[static_cast<std::size_t>(p)], 0.0, 1.0);
      cost *= 2.0 - fraction;
    }
    costs.push_back(cost);
  }
  // LPT: heaviest partition first onto the least-loaded stream.  stable_sort
  // + strict less keep the assignment deterministic under cost ties.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return costs[static_cast<std::size_t>(a)] > costs[static_cast<std::size_t>(b)];
  });
  std::vector<double> load(static_cast<std::size_t>(plan.stream_count), 0.0);
  for (const int p : order) {
    int lightest = 0;
    for (int s = 1; s < plan.stream_count; ++s) {
      if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(lightest)]) lightest = s;
    }
    plan.partition_stream[static_cast<std::size_t>(p)] = lightest;
    load[static_cast<std::size_t>(lightest)] += costs[static_cast<std::size_t>(p)];
  }
  return plan;
}

}  // namespace miniphi::platform
