// Shared engine configuration: the knobs common to every likelihood engine
// (DNA fast path, CAT, general/protein), defined once.
//
// Since PR 8 this is the *complete* public configuration surface: the former
// per-engine extras (kernel traces, CLA budgets, site repeats) live here too,
// and the concrete engines' `Config` types are plain aliases.  Code that
// configures "any engine" — the core::make_evaluator factory, drivers,
// pools, benches, the C API shim — passes one EngineConfig through a single
// seam instead of naming concrete engine types.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/kernels.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/cancellation.hpp"

namespace miniphi::core {

class KernelTrace;  // trace.hpp; optional recorder, most callers pass none

struct EngineConfig {
  simd::Isa isa = simd::best_supported_isa();
  KernelTuning tuning;
  bool use_openmp = false;  ///< parallelize kernel site loops (hybrid mode);
                            ///< ignored by engines without an OpenMP path
  std::int64_t begin = 0;   ///< first pattern of this engine's slice
  std::int64_t end = -1;    ///< one past the last pattern (-1 = all)
  /// Metrics publication knob, defined once for every engine: with kOn the
  /// engine registers its per-kernel counters/histograms with the process
  /// obs::Registry and publishes on every kernel call; with kOff (default)
  /// the kernel path never touches the registry.
  obs::MetricsMode metrics = obs::MetricsMode::kOff;
  /// Silent-data-corruption defense (DESIGN.md §10): checksum every CLA at
  /// newview commit, lazily re-verify it before reuse as an input, and heal
  /// detected corruption by re-planning just the affected subtree (bounded
  /// retries, then escalate).  Off by default; on the dense engine the
  /// verify cost is a median +11.5% on a branch-optimization workload
  /// (bench_fig3_kernels part 4, EXPERIMENTS.md).
  bool sdc_checks = false;
  /// Optional kernel-invocation recorder: every engine family records each
  /// kernel call through the same accounting call that feeds EvalStats and
  /// the registry.  Not thread-safe: evaluators that dispatch engines onto
  /// worker pools require trace == nullptr.
  KernelTrace* trace = nullptr;
  /// CLA memory budget in bytes (0 = unlimited), the one budget unit.
  /// Smaller budgets trade running time for memory by evicting CLAs
  /// through the tiered memory::ClaStore — the recompute technique of
  /// Izquierdo-Carrasco et al. (Section V-A) plus an optional checksummed
  /// spill tier (DESIGN.md §14).  The store caps the bytes of the postorder
  /// buffers it holds, and buffers are sized by what newview writes: a
  /// site-repeats slot holds its class count of blocks, so a byte budget
  /// keeps more CLAs resident than the same bytes of full-width buffers
  /// would.  The C-API resource negotiation speaks bytes and
  /// cla_bytes_granted() reports the cap.  Construction throws (naming the
  /// "minimum working set") below min_cla_buffers() full-width buffers.
  /// Honored by every engine family (dense, CAT, general).
  ///
  /// The gradient descent's preorder partials sit outside the cap, on a
  /// stack of full-width buffers sized by the depth-first plan
  /// (TraversalPlanner::build_preorder): smaller subtree first, so at most
  /// ⌈log2 n⌉ + 2 partials are live for n taxa.
  std::int64_t cla_budget_bytes = 0;
  /// Enables the ClaStore spill tier: every evicted CLA is written to disk
  /// (asynchronously, checksummed) and reloaded instead of recomputed.  A
  /// drop would not cost one newview: it invalidates the CLA, and under a
  /// tight budget the rebuilds evict (and drop) further nodes, a storm that
  /// inflates traversals ~7x (DESIGN.md §14).  Off, eviction always drops
  /// and recomputes — the pre-store behavior.
  bool cla_spill = false;
  /// Spill directory; empty honors $TMPDIR, falling back to /tmp.  The
  /// backing file is unlinked at creation, so it is reclaimed on any exit.
  std::string cla_spill_dir{};
  /// Cooperative cancellation token (DESIGN.md §15).  When set, the engine
  /// calls cancel->check() at plan-level boundaries — between plan ops at
  /// every budget, between branches in smoothing sweeps, and between
  /// preorder ops in the gradient descent — and unwinds with CancelledError
  /// when the owner cancels the job or its deadline expires.  The unwind
  /// releases every pin the engine holds, so a cancelled engine is
  /// immediately reusable (or destructible) without poisoning shared state.
  /// The token must outlive the engine.  nullptr (default) compiles the
  /// checks down to one branch per boundary.
  const CancelToken* cancel = nullptr;
  /// Site-repeats mode (LvD algorithm of Bryant/Scornavacca/Swofford;
  /// BEAGLE 4.1's parallel back-ends do the same), on by default: each
  /// directed inner slot keeps a site → repeat-class map — two sites share
  /// a class iff they induce the same tip-state pattern in the slot's
  /// subtree — and newview computes one CLA block per *unique class*
  /// instead of per site; evaluate and derivativeSum gather per-site
  /// values through the class maps.  Maps are a memo checked against the
  /// children on use, so branch-length and model changes, invalidations
  /// and re-rooting reuse them and a topology change rebuilds only the
  /// slots whose subtree changed.  Slots with nearly one class per site
  /// (above a fixed fraction, DESIGN.md §6) keep no map and run the dense
  /// per-site kernels.  Likelihoods match the dense path's; false runs the
  /// paper's per-site kernels everywhere.  Dense DNA engine only.
  bool site_repeats = true;
};

/// Bytes of one full-width CLA buffer: `length` site blocks of `block`
/// doubles, plus one int32 scale count per block.
[[nodiscard]] constexpr std::int64_t full_width_cla_bytes(std::int64_t length,
                                                          std::int64_t block) {
  return length * (block * static_cast<std::int64_t>(sizeof(double)) +
                   static_cast<std::int64_t>(sizeof(std::int32_t)));
}

/// The smallest CLA budget, in full-width buffers, over a tree with
/// `inner_count` inner nodes: the one floor of the engines' budget check,
/// the partitioned carve and so the C API's "minimum working set" refusal.
/// Five: the smallest at which every family smooths branches, with and
/// without spill (EXPERIMENTS.md "One budget unit").
[[nodiscard]] constexpr int min_cla_buffers(int inner_count) {
  return inner_count < 5 ? inner_count : 5;
}

}  // namespace miniphi::core
