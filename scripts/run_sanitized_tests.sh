#!/usr/bin/env bash
# Builds and runs the concurrency-heavy test binaries under sanitizers.
#
# The fault-tolerance layer (abort-safe collectives, fault injection, the
# exception-propagating worker pool) is exactly the kind of code where a
# missed lock or a use-after-unwind hides from plain tests, so this script
# runs those suites under ThreadSanitizer by default; pass "asan" for
# AddressSanitizer + UBSan instead.
#
# Usage: scripts/run_sanitized_tests.sh [tsan|asan]
set -euo pipefail

preset="${1:-tsan}"
case "${preset}" in
  tsan) sanitize="thread" ;;
  asan) sanitize="address;undefined" ;;
  *)
    echo "usage: $0 [tsan|asan]" >&2
    exit 2
    ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/build-${preset}"

cmake -B "${build}" -S "${root}" \
  -DMINIPHI_SANITIZE="${sanitize}" \
  -DMINIPHI_BUILD_BENCH=OFF \
  -DMINIPHI_BUILD_EXAMPLES=OFF

# site_repeats_test rides along: the repeat path's gather indirections and
# class-map reuse are exactly where an off-by-one read hides from plain
# tests, and ASan sees straight through them.  obs_test rides along too: the
# metrics registry's sharded counters and the tracer's lock-free appends are
# precisely the code TSan exists to audit.  partitioned_test covers the
# stream executor's pooled dispatch — sibling engines running whole
# evaluator calls concurrently as stream tasks through the worker pool's
# atomic task claiming.  sdc_test rides along: the heal path unwinds
# CorruptionDetected through kernel regions, worker-pool threads, and the
# rank threads of the agreement collective — stale pointers after a healed
# unwind and racy counter publication are exactly what ASan/TSan catch.
# elastic_test rides along: the shrink()/agree() rendezvous, the heartbeat
# detector scanning peers from blocked waiters, and the mid-collective
# membership transitions are the most interleaving-sensitive code in the
# repo — a missed notify or a fold over torn membership only surfaces under
# TSan's scheduler.
# gradient_test rides along: the preorder pass reads postorder CLAs and tip
# rows through manually assembled kernel contexts (no make_child_input
# bounds help on the seed path), and the lazily grown preorder buffers are
# fresh allocations every first sweep — one-past-the-end reads in the
# gather/sum kernels and use-after-invalidate on healed buffers are ASan's
# home turf.
# stream_test rides along: stream-group dispatch runs each partition engine
# end-to-end on a pool thread — cross-thread engine state, the fixed-order
# reduction after the region join, and the counters published per stream
# are exactly where a missed happens-before edge hides from plain tests.
# c_api_test rides along: every handle the C shim allocates is created and
# freed through the boundary, the thread-local error string is rewritten on
# each failure, and multi-stream instances drive a worker pool from C —
# leaks, double frees, and races across the extern "C" seam are what
# ASan/TSan are for.
# memory_test rides along: a capped ClaStore carves buffers from one arena,
# resizes them on almost every eviction, hands them between slots and
# compacts the arena around pinned buffers — a buffer read after it moved
# or was handed on is exactly ASan territory.
# service_test rides along: the multi-tenant service crosses client,
# executor and pool threads per job (admission under one mutex, budget
# waits, CancelledError unwinding through worker-pool regions, chaos kills
# at arbitrary cancellation checks) — the soak's interleavings are the
# densest TSan workload in the repo, and a leaked grant or a job result
# published without its lock is invisible to the release run.
# core_kernels_test rides along: it drives every kernel family in both store
# modes (the non-temporal path is no longer the default, so only this suite
# and the engine store-mode tests exercise it) and in odd-width chunks with
# short tails (including the AVX-512 CAT kernels' one-site paths) —
# out-of-bounds tail reads and writes are ASan's to find.
# traversal_plan_test, cat_test, general_test and core_engine_test ride
# along: they drive the shared EngineCore executor's pin and evict paths
# (drops, nested-subplan recompute, cancellation unwinds) for every engine
# family, where a stale pin or a read of a dropped buffer hides from plain
# tests.
# search_test and bootstrap_test ride along: with site repeats on by default
# they drive whole SPR searches through the per-slot class maps (memo
# rebuilds after every regraft, identity slots gathering from compressed
# children), the widest workout the gather paths get.
# bio_test, io_test, model_test, platform_test, simd_test, simulate_test,
# tree_test and util_test complete the set: every test binary now runs under
# both sanitizers.  Parsers, pattern compression, the eigen solver, the
# SIMD packs and the tree surgery are single-threaded, but their index
# arithmetic is exactly where an out-of-bounds read hides.
targets=(minimpi_test parallel_test faults_test elastic_test checkpoint_test examl_test site_repeats_test obs_test partitioned_test sdc_test gradient_test stream_test c_api_test memory_test service_test core_kernels_test traversal_plan_test cat_test general_test core_engine_test search_test bootstrap_test bio_test io_test model_test platform_test simd_test simulate_test tree_test util_test)
cmake --build "${build}" -j "$(nproc)" --target "${targets[@]}"

status=0
for test in "${targets[@]}"; do
  echo "=== ${test} (${sanitize}) ==="
  "${build}/tests/${test}" || status=$?
done
exit "${status}"
