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
  /// Optional kernel-invocation recorder (dense DNA engine only; the other
  /// engines accept and ignore it).  Not thread-safe: evaluators that
  /// dispatch engines onto worker pools require trace == nullptr.
  KernelTrace* trace = nullptr;
  /// CLA memory budget as a count: at most this many CLA buffers held at
  /// once (-1 = one per inner node, the default), whatever their size.
  /// Smaller budgets trade running time for memory by evicting CLAs
  /// through the tiered memory::ClaStore — the recompute technique of
  /// Izquierdo-Carrasco et al. (Section V-A) plus an optional checksummed
  /// spill tier (DESIGN.md §14).  At least 3; a traversal that cannot fit
  /// its working set throws.  Honored by every engine family (dense, CAT,
  /// general) and takes precedence over cla_budget_bytes.
  int cla_buffers = -1;
  /// CLA memory budget in *bytes* (0 = unlimited), used when cla_buffers
  /// is -1.  The store caps the bytes of the buffers it holds, and buffers
  /// are sized by what newview writes: a site-repeats slot holds its class
  /// count of blocks, so the same bytes keep more CLAs resident than a
  /// count of full-width buffers would.  The C-API resource negotiation
  /// speaks bytes and cla_bytes_granted() reports the cap.  Construction
  /// throws when three full-width buffers do not fit (the minimum working
  /// set of the count budget).
  std::int64_t cla_budget_bytes = 0;
  /// Enables the ClaStore spill tier: evicted CLAs whose subtree is
  /// expensive to rebuild are written to disk (asynchronously, checksummed)
  /// and reloaded instead of recomputed.  Off, eviction always drops and
  /// recomputes — the pre-store behavior.
  bool cla_spill = false;
  /// Recompute-vs-spill threshold: evictees whose Sethi–Ullman registers
  /// number is at or below this are dropped and recomputed even with the
  /// spill tier on.  Measured default is 0 (always spill): a drop does not
  /// cost one newview, it invalidates the CLA — and under a tight budget
  /// the rebuilds of dropped nodes evict (and drop) further nodes, a
  /// self-sustaining storm that inflates traversals ~7x.  A reload is a
  /// checksummed memcpy and leaves validity intact, so it wins even for
  /// cherries (registers == 1); see bench_ablation_memory for the curve.
  int cla_spill_min_registers = 0;
  /// Spill directory; empty honors $TMPDIR, falling back to /tmp.  The
  /// backing file is unlinked at creation, so it is reclaimed on any exit.
  std::string cla_spill_dir{};
  /// Cooperative cancellation token (DESIGN.md §15).  When set, the engine
  /// calls cancel->check() at plan-level boundaries — between traversal
  /// levels (or ops, under a tight budget), between branches in smoothing
  /// sweeps, and between preorder ops in the gradient descent — and unwinds
  /// with CancelledError when the owner cancels the job or its deadline
  /// expires.  The unwind releases every pin the engine holds, so a
  /// cancelled engine is immediately reusable (or destructible) without
  /// poisoning shared state.  The token must outlive the engine.  nullptr
  /// (default) compiles the checks down to one branch per boundary.
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

}  // namespace miniphi::core
