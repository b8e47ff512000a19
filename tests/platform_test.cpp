// Tests for src/platform: Table I data integrity, kernel profiles, and the
// qualitative predictions of the cost model (the paper's headline trends
// must emerge from the mechanisms, not be hard-coded).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/platform/cost_model.hpp"
#include "src/platform/spec.hpp"

namespace miniphi::platform {
namespace {

using core::TraceKernel;

TEST(Spec, Table1DataMatchesPaper) {
  const auto e5_2680 = xeon_e5_2680();
  EXPECT_DOUBLE_EQ(e5_2680.peak_dp_gflops, 346.0);
  EXPECT_EQ(e5_2680.cores, 16);
  EXPECT_DOUBLE_EQ(e5_2680.memory_bandwidth_gbs, 102.4);
  EXPECT_DOUBLE_EQ(e5_2680.max_tdp_watts, 260.0);
  EXPECT_DOUBLE_EQ(e5_2680.price_usd, 3486.0);

  const auto phi = xeon_phi_5110p();
  EXPECT_DOUBLE_EQ(phi.peak_dp_gflops, 1074.0);
  EXPECT_EQ(phi.cores, 60);
  EXPECT_DOUBLE_EQ(phi.clock_ghz, 1.053);
  EXPECT_DOUBLE_EQ(phi.memory_gb, 8.0);
  EXPECT_DOUBLE_EQ(phi.memory_bandwidth_gbs, 320.0);
  EXPECT_EQ(phi.kernel_workers, 236);  // 2 ranks × 118 threads

  const auto e5_2630 = xeon_e5_2630();
  EXPECT_DOUBLE_EQ(e5_2630.peak_dp_gflops, 220.0);
  EXPECT_DOUBLE_EQ(e5_2630.price_usd, 1224.0);

  EXPECT_EQ(table1_platforms().size(), 5u);
  EXPECT_FALSE(format_table1().empty());
  EXPECT_FALSE(format_table2().empty());
}

TEST(Profile, NewviewCountsDependOnTipness) {
  const auto inner = kernel_profile(TraceKernel::kNewview, false, false);
  const auto tip_tip = kernel_profile(TraceKernel::kNewview, true, true);
  const auto mixed = kernel_profile(TraceKernel::kNewview, true, false);
  // Inner children add a 128-flop transform each and a 132-byte read each.
  EXPECT_DOUBLE_EQ(inner.flops, 400.0);
  EXPECT_DOUBLE_EQ(tip_tip.flops, 144.0);
  EXPECT_DOUBLE_EQ(mixed.flops, 272.0);
  EXPECT_GT(inner.bytes_read, tip_tip.bytes_read);
  EXPECT_DOUBLE_EQ(inner.bytes_written, 132.0);
}

TEST(Profile, DerivSumIsPureStreaming) {
  const auto profile = kernel_profile(TraceKernel::kDerivSum, false, false);
  EXPECT_DOUBLE_EQ(profile.flops, 16.0);
  EXPECT_DOUBLE_EQ(profile.bytes_read, 256.0);
  EXPECT_DOUBLE_EQ(profile.bytes_written, 128.0);
}

core::KernelTrace single_call_trace(TraceKernel kernel, std::int64_t sites) {
  core::KernelTrace trace;
  trace.record(kernel, false, false, sites);
  return trace;
}

TEST(CostModel, LargeAlignmentKernelSpeedupsMatchFigure3) {
  // Figure 3: per-kernel MIC speedups vs the 2S E5-2680 at full-run scale:
  // newview ≈2.0, evaluate ≈1.9, derivativeSum ≈2.8, derivativeCore ≈2.0.
  const auto cpu = config_e5_2680();
  const auto mic = config_phi_single();
  const std::int64_t sites = 2'000'000;

  const auto speedup = [&](TraceKernel kernel) {
    const auto trace = single_call_trace(kernel, sites);
    return simulate_trace(trace, cpu).total_seconds / simulate_trace(trace, mic).total_seconds;
  };

  EXPECT_NEAR(speedup(TraceKernel::kNewview), 2.0, 0.25);
  EXPECT_NEAR(speedup(TraceKernel::kEvaluate), 1.9, 0.25);
  EXPECT_NEAR(speedup(TraceKernel::kDerivSum), 2.8, 0.35);
  EXPECT_NEAR(speedup(TraceKernel::kDerivCore), 2.0, 0.25);
}

TEST(CostModel, DerivSumGainsMostFromStreamingStores) {
  // The MIC advantage on derivativeSum must exceed newview's: the paper
  // attributes this to the pure element-wise product + streaming stores.
  const auto cpu = config_e5_2680();
  const auto mic = config_phi_single();
  const std::int64_t sites = 1'000'000;
  const auto ratio = [&](TraceKernel kernel) {
    const auto trace = single_call_trace(kernel, sites);
    return simulate_trace(trace, cpu).total_seconds / simulate_trace(trace, mic).total_seconds;
  };
  EXPECT_GT(ratio(TraceKernel::kDerivSum), ratio(TraceKernel::kNewview) + 0.3);
}

TEST(CostModel, MicLosesOnSmallAlignments) {
  // Section VI-B2: at 10 K sites the CPU wins by ~3×; crossover ≈ 100 K.
  const auto cpu = config_e5_2680();
  const auto mic = config_phi_single();
  const auto ratio_at = [&](std::int64_t sites) {
    core::KernelTrace trace;
    // A representative call mix of one search step (heavy on newview from
    // SPR scanning, many derivativeCore calls from Newton iterations).
    for (int i = 0; i < 10; ++i) trace.record(TraceKernel::kNewview, false, false, sites);
    for (int i = 0; i < 3; ++i) trace.record(TraceKernel::kEvaluate, false, false, sites);
    for (int i = 0; i < 2; ++i) trace.record(TraceKernel::kDerivSum, false, false, sites);
    for (int i = 0; i < 8; ++i) trace.record(TraceKernel::kDerivCore, false, false, sites);
    return simulate_trace(trace, cpu).total_seconds / simulate_trace(trace, mic).total_seconds;
  };
  EXPECT_LT(ratio_at(10'000), 0.45);          // MIC ≥ ~2× slower at 10 K
  EXPECT_NEAR(ratio_at(100'000), 1.0, 0.25);  // crossover region
  EXPECT_GT(ratio_at(1'000'000), 1.7);        // plateau ≈ 2×
  EXPECT_GT(ratio_at(4'000'000), ratio_at(1'000'000) - 0.05);  // still rising/stable
}

TEST(CostModel, DualCardScalingIsSubLinearAndSizeDependent) {
  // Figure 4: 2-MIC vs 1-MIC speedup grows with alignment size toward ~1.84
  // but never reaches 2; on tiny alignments adding a card *hurts*.
  const auto single = config_phi_single();
  const auto dual = config_phi_dual();
  const auto speedup_at = [&](std::int64_t sites) {
    core::KernelTrace trace;
    for (int i = 0; i < 10; ++i) trace.record(TraceKernel::kNewview, false, false, sites);
    for (int i = 0; i < 3; ++i) trace.record(TraceKernel::kEvaluate, false, false, sites);
    for (int i = 0; i < 2; ++i) trace.record(TraceKernel::kDerivSum, false, false, sites);
    for (int i = 0; i < 8; ++i) trace.record(TraceKernel::kDerivCore, false, false, sites);
    return simulate_trace(trace, single).total_seconds /
           simulate_trace(trace, dual).total_seconds;
  };
  EXPECT_LT(speedup_at(10'000), 1.0);
  EXPECT_GT(speedup_at(4'000'000), 1.6);
  EXPECT_LT(speedup_at(4'000'000), 2.0);
  EXPECT_GT(speedup_at(4'000'000), speedup_at(250'000));
}

TEST(CostModel, OffloadModeRoughlyDoublesSmallKernelRuns) {
  // Section V-C: per-invocation offload latency is comparable to the kernel
  // compute time, which made the offload design ≥2× slower than native.
  auto native = config_phi_single();
  auto offload = native;
  offload.offload_mode = true;

  core::KernelTrace trace;
  for (int i = 0; i < 1000; ++i) trace.record(TraceKernel::kNewview, false, false, 10'000);
  const double t_native = simulate_trace(trace, native).total_seconds;
  const double t_offload = simulate_trace(trace, offload).total_seconds;
  EXPECT_GT(t_offload / t_native, 1.25);
  EXPECT_NEAR(simulate_trace(trace, offload).offload_seconds, 1000 * 300e-6, 1e-9);
}

TEST(CostModel, CpuPlatformsDifferByBandwidthOnly) {
  // Table III: the two CPU systems differ by only 10-16% (0.84× ratio).
  const auto big = config_e5_2680();
  const auto small = config_e5_2630();
  const auto trace = single_call_trace(TraceKernel::kNewview, 1'000'000);
  const double ratio =
      simulate_trace(trace, big).total_seconds / simulate_trace(trace, small).total_seconds;
  EXPECT_NEAR(ratio, 85.2 / 102.4, 0.02);
}

TEST(CostModel, EnergyFollowsPaperFormula) {
  const auto cpu = config_e5_2680();
  EXPECT_NEAR(energy_wh(cpu, 3600.0), 260.0, 1e-9);
  const auto dual = config_phi_dual();
  EXPECT_NEAR(energy_wh(dual, 1800.0), 225.0, 1e-9);  // 450 W × 0.5 h
}

TEST(CostModel, TraceScalingPreservesCallStructure) {
  core::KernelTrace trace;
  trace.record(TraceKernel::kNewview, true, false, 1000);
  trace.record(TraceKernel::kEvaluate, false, false, 1000);
  const auto scaled = trace.scaled_to(1000, 250'000);
  ASSERT_EQ(scaled.calls.size(), 2u);
  EXPECT_EQ(scaled.calls[0].sites, 250'000);
  EXPECT_TRUE(scaled.calls[0].left_tip);
  EXPECT_EQ(scaled.call_count(TraceKernel::kNewview), 1);
  EXPECT_EQ(scaled.total_sites(TraceKernel::kEvaluate), 250'000);
}

TEST(CostModel, TraceScalingCarriesRoundingAcrossCalls) {
  // Regression: per-call rounding used to drift by up to one site per call,
  // so scaling 3000 one-site calls by 10000/3000 summed to 3000 (every call
  // rounded down) instead of 10000.  The error-carry makes totals exact.
  core::KernelTrace trace;
  for (int i = 0; i < 3000; ++i) trace.record(TraceKernel::kNewview, false, false, 1);
  const auto scaled = trace.scaled_to(3000, 10'000);
  EXPECT_EQ(scaled.total_sites(TraceKernel::kNewview), 10'000);
  EXPECT_EQ(scaled.total_sites_represented(TraceKernel::kNewview), 10'000);
  // Carries are per kernel: interleaving other kernels must not disturb it.
  core::KernelTrace mixed;
  for (int i = 0; i < 700; ++i) {
    mixed.record(TraceKernel::kNewview, false, false, 3);
    mixed.record(TraceKernel::kEvaluate, false, false, 1);
  }
  const auto mixed_scaled = mixed.scaled_to(1000, 777);
  EXPECT_EQ(mixed_scaled.total_sites(TraceKernel::kNewview), std::llround(700 * 3 * 0.777));
  EXPECT_EQ(mixed_scaled.total_sites(TraceKernel::kEvaluate), std::llround(700 * 0.777));
}

TEST(CostModel, TraceScalingRejectsEmptySource) {
  core::KernelTrace trace;
  trace.record(TraceKernel::kNewview, false, false, 100);
  EXPECT_THROW((void)trace.scaled_to(0, 1000), miniphi::Error);
  EXPECT_THROW((void)trace.scaled_to(-5, 1000), miniphi::Error);
  EXPECT_THROW((void)trace.scaled_to(100, -1), miniphi::Error);
}

TEST(CostModel, TraceRecordsRepresentedSitesSeparately) {
  core::KernelTrace trace;
  trace.record(TraceKernel::kNewview, true, false, 250, 1000);  // repeat path
  trace.record(TraceKernel::kNewview, true, false, 500);        // dense path
  EXPECT_EQ(trace.total_sites(TraceKernel::kNewview), 750);
  EXPECT_EQ(trace.total_sites_represented(TraceKernel::kNewview), 1500);
}

TEST(CostModel, SyncAccountingSeparatesComputeAndSync) {
  const auto mic = config_phi_single();
  core::KernelTrace trace;
  trace.record(TraceKernel::kEvaluate, false, false, 1000);
  const auto result = simulate_trace(trace, mic);
  EXPECT_GT(result.sync_seconds, 0.0);
  EXPECT_GT(result.compute_seconds, 0.0);
  EXPECT_NEAR(result.total_seconds, result.compute_seconds + result.sync_seconds, 1e-12);
}

// --- Stream planning (PR 8) ---

TEST(StreamPlanner, LptBalancesModeledLoadAcrossStreams) {
  // One huge partition and several small ones: LPT must isolate the big one
  // and spread the rest, not round-robin by index.
  const std::vector<std::int64_t> patterns = {20000, 300, 300, 300, 300, 300, 300};
  const auto plan = plan_partition_streams(patterns, 2, simd::Isa::kAvx512);
  ASSERT_EQ(plan.stream_count, 2);
  ASSERT_EQ(plan.partition_stream.size(), patterns.size());
  const int big_stream = plan.partition_stream[0];
  for (std::size_t p = 1; p < patterns.size(); ++p) {
    EXPECT_NE(plan.partition_stream[p], big_stream) << "small partition " << p;
  }
  // Deterministic: same input, same plan.
  const auto again = plan_partition_streams(patterns, 2, simd::Isa::kAvx512);
  EXPECT_EQ(again.partition_stream, plan.partition_stream);
}

TEST(StreamPlanner, StreamCountClampsToPartitionCountAndEveryStreamIsUsed) {
  const std::vector<std::int64_t> patterns = {500, 600, 700};
  const auto plan = plan_partition_streams(patterns, 8, simd::Isa::kAvx512);
  EXPECT_EQ(plan.stream_count, 3);
  std::vector<bool> used(static_cast<std::size_t>(plan.stream_count), false);
  for (const int s : plan.partition_stream) used[static_cast<std::size_t>(s)] = true;
  for (std::size_t s = 0; s < used.size(); ++s) EXPECT_TRUE(used[s]) << "stream " << s;
}

}  // namespace
}  // namespace miniphi::platform
