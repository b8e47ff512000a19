// Roofline-style cost model: prices a real kernel-invocation trace on a
// simulated platform (Table I hardware we do not physically have).
//
// Mechanisms modeled — each one is a mechanism the paper identifies:
//   * streaming bandwidth bound per kernel (Section V-B6: "memory access
//     latencies dominate runtimes"),
//   * read-for-ownership write traffic on the CPU baseline, absent on the
//     MIC thanks to streaming stores (Section V-B5),
//   * a latency/concurrency ramp penalizing small per-worker site blocks
//     (Section VI-B2: 236 threads × few sites each is sync/latency bound),
//   * per-kernel-call fork-join overhead for in-kernel OpenMP threading
//     (Section V-D hybrid scheme),
//   * small-message Allreduce latency per reduction kernel call — 2 µs on
//     one device, ~20 µs across MIC cards over PCIe (Section VI-B3),
//   * per-call offload invocation latency for the rejected offload design
//     (Section V-C).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "src/core/partition_spec.hpp"
#include "src/core/trace.hpp"
#include "src/platform/spec.hpp"
#include "src/simd/dispatch.hpp"

namespace miniphi::platform {

/// Per-site arithmetic/traffic footprint of one kernel call, derived by
/// counting the kernel inner loops (asserted against the code by tests).
struct KernelProfile {
  double flops = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
};

/// Footprint for DNA + Γ(4): 16-double site blocks.
KernelProfile kernel_profile(core::TraceKernel kernel, bool left_tip, bool right_tip);

/// One execution configuration of Table III (a platform × card count).
struct ExecConfig {
  PlatformSpec platform;
  int cards = 1;  ///< 1 for CPUs; 1 or 2 Xeon Phi cards
  /// Cost of one Allreduce spanning ranks on different cards.  The paper's
  /// microbenchmark measures ~20 µs for the minimal 2-rank MIC↔MIC case
  /// (Section VI-B3); the full 4-rank collective of the dual-card ExaML run
  /// (2 ranks/card, serialized PCIe hops, oversubscribed cores) costs
  /// several such hops — 150 µs, calibrated once against the small-
  /// alignment end of Figure 4.
  double allreduce_inter_seconds = 150e-6;
  /// Offload execution mode: adds the offload runtime's per-invocation
  /// latency to every kernel call (the paper measured this to roughly
  /// double total runtime, which is why the native mode won).
  bool offload_mode = false;
  /// Per-invocation cost of the Intel offload runtime (dispatch + pointer
  /// marshalling + PCIe doorbell).  The paper found it "comparable to and
  /// partially exceeding the time required for the actual computation"
  /// (Section V-C), i.e. hundreds of µs at their per-call granularity;
  /// 300 µs sits in the range reported by Newburn et al. [27].
  double offload_latency_seconds = 300e-6;
};

struct SimulatedTime {
  double total_seconds = 0.0;
  double compute_seconds = 0.0;
  double sync_seconds = 0.0;     ///< fork-join + Allreduce
  double offload_seconds = 0.0;  ///< offload invocation latency (if enabled)
  /// Compute + per-call sync attributed per kernel, Figure-3 style.
  std::array<double, 4> per_kernel_seconds{};
};

/// Time for one kernel call over `sites` patterns under the configuration.
double call_seconds(const ExecConfig& config, core::TraceKernel kernel, bool left_tip,
                    bool right_tip, std::int64_t sites);

/// Prices a whole trace.
SimulatedTime simulate_trace(const core::KernelTrace& trace, const ExecConfig& config);

/// Energy estimate exactly as in the paper (Section VI-B4):
/// E[Wh] = MaxTDP[W] × RunTime[s] / 3600, TDP summed over cards.
double energy_wh(const ExecConfig& config, double seconds);

/// Convenience constructors for the four Table III configurations.
ExecConfig config_e5_2630();
ExecConfig config_e5_2680();
ExecConfig config_phi_single();
ExecConfig config_phi_dual();

// ---------------------------------------------------------------------------
// Stream planning: stream grouping of a partitioned job.
//
// The same latency/concurrency ramp the trace pricer applies per worker
// applies per *vector unit*: a kernel over few patterns cannot amortize a
// wide vector's prologue/remainder handling, so a partition's cost is not
// linear in its pattern count.  plan_partition_streams prices every
// partition on the job's ISA and balances the modeled costs across stream
// groups (longest-processing-time-first), producing the core::StreamPlan
// that PartitionedEvaluator's stream executor consumes.
// ---------------------------------------------------------------------------

/// Modeled evaluation cost of one partition on one kernel back-end, in
/// site-units (arbitrary but comparable across ISAs).  Saturating ramp: the
/// speedup of a w-lane ISA over scalar approaches w only once the pattern
/// count is large against the ISA's half-saturation size; a per-call
/// overhead growing with the width prices the longer prologue/epilogue and
/// masked-remainder handling of wide kernels.
double partition_cost(std::int64_t patterns, simd::Isa isa);

/// Builds the stream plan for a partitioned job: assigns partitions to at
/// most `stream_count` stream groups by LPT over the modeled costs
/// partition_cost(patterns, widest), where `widest` is the ISA every
/// partition runs (the engine config's; the default is the host's widest).
/// LPT puts the heaviest partition first onto the least-loaded stream, ties
/// to the lowest stream id — deterministic for a given input.  stream_count is clamped to the
/// partition count; every returned stream owns at least one partition.
///
/// `budget_fraction` (optional, one entry per partition) makes the packing
/// budget-aware: fraction granted/full of the partition's resident CLA pool
/// under a carved byte budget (core::carve_cla_budgets).  A partition at
/// fraction f is modeled at (2 - f)× its full-budget cost — a minimum-budget
/// partition re-derives roughly one extra traversal's worth of evicted CLAs,
/// the 2× bound bench_ablation_memory gates — so tight partitions are spread
/// across streams instead of piling onto one.
core::StreamPlan plan_partition_streams(std::span<const std::int64_t> partition_patterns,
                                        int stream_count,
                                        simd::Isa widest = simd::best_supported_isa(),
                                        std::span<const double> budget_fraction = {});

}  // namespace miniphi::platform
