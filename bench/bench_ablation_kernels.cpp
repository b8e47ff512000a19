// Ablation (paper Section V-B): the individual kernel optimizations,
// measured with the real kernels on this host via google-benchmark:
//   * ISA back-end (scalar vs AVX2 vs AVX-512) — V-B1/V-B3 vectorization
//   * streaming stores on/off — V-B5, both in isolation and in a
//     producer→consumer pair (newview writes a parent, evaluate reads it
//     back), the access pattern of a real search
//   * software prefetch distance 0/4/8/16 — V-B6
#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/kernels.hpp"
#include "src/core/ptable.hpp"
#include "src/model/gtr.hpp"
#include "src/util/aligned.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace miniphi;

constexpr std::int64_t kSites = 1 << 17;  // 128 K sites ≈ 16 MB per CLA: RAM-resident

struct Fixture {
  AlignedDoubles left = AlignedDoubles(static_cast<std::size_t>(kSites) * core::kSiteBlock);
  AlignedDoubles right = AlignedDoubles(left.size());
  AlignedDoubles out = AlignedDoubles(left.size());
  std::vector<std::int32_t> left_scale = std::vector<std::int32_t>(kSites, 0);
  std::vector<std::int32_t> right_scale = left_scale;
  std::vector<std::int32_t> out_scale = left_scale;
  std::vector<std::uint32_t> weights = std::vector<std::uint32_t>(kSites, 1);
  AlignedDoubles ptable1 = AlignedDoubles(core::kPtableSize);
  AlignedDoubles ptable2 = AlignedDoubles(core::kPtableSize);
  AlignedDoubles diag = AlignedDoubles(core::kDiagSize);
  AlignedDoubles wtable;

  Fixture() {
    Rng rng(5);
    for (auto& value : left) value = rng.uniform(0.1, 1.0);
    for (auto& value : right) value = rng.uniform(0.1, 1.0);
    const model::GtrModel model(model::GtrParams::jc69(0.9));
    core::build_ptable(model, 0.08, ptable1);
    core::build_ptable(model, 0.21, ptable2);
    core::build_diag(model, 0.13, diag);
    wtable = core::build_wtable(model);
  }

  [[nodiscard]] core::NewviewCtx newview_ctx(std::int64_t stream, std::int64_t prefetch) {
    core::NewviewCtx ctx;
    ctx.parent_cla = out.data();
    ctx.parent_scale = out_scale.data();
    ctx.left = {left.data(), left_scale.data(), nullptr, ptable1.data(), nullptr};
    ctx.right = {right.data(), right_scale.data(), nullptr, ptable2.data(), nullptr};
    ctx.wtable = wtable.data();
    ctx.end = kSites;
    ctx.tuning.streaming_stores = stream != 0;
    ctx.tuning.prefetch_distance = static_cast<int>(prefetch);
    return ctx;
  }
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

simd::Isa isa_from_index(std::int64_t index) {
  switch (index) {
    case 0: return simd::Isa::kScalar;
    case 1: return simd::Isa::kAvx2;
    default: return simd::Isa::kAvx512;
  }
}

void BM_Newview(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = fixture();
  const auto ops = core::get_kernel_ops(isa);
  core::NewviewCtx ctx = f.newview_ctx(state.range(1), state.range(2));
  for (auto _ : state) {
    ops.newview(ctx);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSites);
  state.SetLabel(simd::to_string(isa) + (ctx.tuning.streaming_stores ? "/stream" : "/plain") +
                 "/pf" + std::to_string(ctx.tuning.prefetch_distance));
}
// ISA sweep with default tuning, then tuning ablations on the widest ISA.
BENCHMARK(BM_Newview)
    ->Args({0, 0, 8})
    ->Args({1, 0, 8})
    ->Args({2, 0, 8})
    ->Args({2, 1, 8})
    ->Args({2, 0, 0})
    ->Args({2, 0, 4})
    ->Args({2, 0, 16});

// Producer→consumer: newview writes the parent CLA, then evaluate reads it
// straight back against the right child — what a search does with every
// CLA it computes.  The isolated case above never reads its output, so it
// cannot see whether the stores left the parent in cache.
void BM_NewviewThenEvaluate(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = fixture();
  const auto ops = core::get_kernel_ops(isa);
  core::NewviewCtx ctx = f.newview_ctx(state.range(1), 8);
  core::EvaluateCtx eval;
  eval.left_cla = f.out.data();
  eval.left_scale = f.out_scale.data();
  eval.right_cla = f.right.data();
  eval.right_scale = f.right_scale.data();
  eval.diag = f.diag.data();
  eval.weights = f.weights.data();
  eval.end = kSites;
  for (auto _ : state) {
    ops.newview(ctx);
    benchmark::DoNotOptimize(ops.evaluate(eval));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSites);
  state.SetLabel(simd::to_string(isa) + (ctx.tuning.streaming_stores ? "/stream" : "/plain"));
}
BENCHMARK(BM_NewviewThenEvaluate)->Args({2, 0})->Args({2, 1});

void BM_DerivativeSum(benchmark::State& state) {
  const auto isa = isa_from_index(state.range(0));
  if (!simd::isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  auto& f = fixture();
  const auto ops = core::get_kernel_ops(isa);
  core::SumCtx ctx;
  ctx.sum = f.out.data();
  ctx.left_cla = f.left.data();
  ctx.right_cla = f.right.data();
  ctx.end = kSites;
  ctx.tuning.streaming_stores = state.range(1) != 0;
  ctx.tuning.prefetch_distance = static_cast<int>(state.range(2));
  for (auto _ : state) {
    ops.derivative_sum(ctx);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSites);
  state.SetLabel(simd::to_string(isa) + (ctx.tuning.streaming_stores ? "/stream" : "/plain") +
                 "/pf" + std::to_string(ctx.tuning.prefetch_distance));
}
BENCHMARK(BM_DerivativeSum)
    ->Args({0, 0, 8})
    ->Args({1, 0, 8})
    ->Args({2, 0, 8})
    ->Args({2, 1, 8})
    ->Args({2, 0, 0});

}  // namespace

BENCHMARK_MAIN();
