// Figure 3 reproduction: speedups of the individual PLF kernels, MIC vs the
// 2S E5-2680 AVX baseline (paper: newview ≈2.0×, evaluate ≈1.9×,
// derivativeSum ≈2.8×, derivativeCore ≈2.0×, measured as total time per
// kernel over a full tree search).
//
// Part 1 prices the real search trace on both simulated platforms and
// reports per-kernel time ratios — the direct Figure 3 analogue.
// Part 2 measures the real kernels on THIS host (scalar vs AVX2 vs AVX-512)
// as a hardware validation of the vector-width mechanism: the 8-wide
// back-end is the same code shape the paper hand-wrote for the MIC.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/engine.hpp"
#include "src/core/kernels.hpp"
#include "src/core/ptable.hpp"
#include "src/model/gtr.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"
#include "src/util/aligned.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace miniphi;

/// Interleaved runs per median of the metrics and SDC overhead lines.
constexpr int kOverheadRuns = 7;

/// Host micro-benchmark of one kernel back-end; returns ns per site.
double measure_kernel(core::Kernel kernel, simd::Isa isa, std::int64_t sites, int repetitions) {
  Rng rng(99);
  model::GtrParams params;
  params.alpha = 0.8;
  const model::GtrModel model(params);

  AlignedDoubles left(static_cast<std::size_t>(sites) * core::kSiteBlock);
  AlignedDoubles right(left.size());
  AlignedDoubles out(left.size());
  for (auto& value : left) value = rng.uniform(0.1, 1.0);
  for (auto& value : right) value = rng.uniform(0.1, 1.0);
  std::vector<std::int32_t> left_scale(static_cast<std::size_t>(sites), 0);
  std::vector<std::int32_t> right_scale(left_scale);
  std::vector<std::int32_t> out_scale(left_scale);
  std::vector<std::uint32_t> weights(static_cast<std::size_t>(sites), 1);

  AlignedDoubles ptable1(core::kPtableSize), ptable2(core::kPtableSize);
  AlignedDoubles diag(core::kDiagSize), dtab(core::kDtabSize);
  core::build_ptable(model, 0.1, ptable1);
  core::build_ptable(model, 0.2, ptable2);
  core::build_diag(model, 0.1, diag);
  core::build_dtab(model, 0.1, dtab);
  const auto wtable = core::build_wtable(model);

  const auto ops = core::get_kernel_ops(isa);
  Timer timer;
  for (int r = 0; r < repetitions; ++r) {
    switch (kernel) {
      case core::Kernel::kNewview: {
        core::NewviewCtx ctx;
        ctx.parent_cla = out.data();
        ctx.parent_scale = out_scale.data();
        ctx.left = {left.data(), left_scale.data(), nullptr, ptable1.data(), nullptr};
        ctx.right = {right.data(), right_scale.data(), nullptr, ptable2.data(), nullptr};
        ctx.wtable = wtable.data();
        ctx.end = sites;
        ops.newview(ctx);
        break;
      }
      case core::Kernel::kEvaluate: {
        core::EvaluateCtx ctx;
        ctx.left_cla = left.data();
        ctx.left_scale = left_scale.data();
        ctx.right_cla = right.data();
        ctx.right_scale = right_scale.data();
        ctx.diag = diag.data();
        ctx.weights = weights.data();
        ctx.end = sites;
        volatile double sink = ops.evaluate(ctx);
        (void)sink;
        break;
      }
      case core::Kernel::kDerivSum: {
        core::SumCtx ctx;
        ctx.sum = out.data();
        ctx.left_cla = left.data();
        ctx.right_cla = right.data();
        ctx.end = sites;
        ops.derivative_sum(ctx);
        break;
      }
      case core::Kernel::kDerivCore: {
        core::DerivCtx ctx;
        ctx.sum = left.data();
        ctx.weights = weights.data();
        ctx.dtab = dtab.data();
        ctx.end = sites;
        ops.derivative_core(ctx);
        break;
      }
    }
  }
  return timer.seconds() * 1e9 / (static_cast<double>(sites) * repetitions);
}

}  // namespace

int main() {
  using namespace miniphi::bench;

  const auto& bundle = shared_trace();
  const auto scaled = bundle.trace.scaled_to(bundle.pattern_count, 2'000'000);
  const auto cpu = miniphi::platform::simulate_trace(scaled, miniphi::platform::config_e5_2680());
  const auto mic =
      miniphi::platform::simulate_trace(scaled, miniphi::platform::config_phi_single());

  print_header("Figure 3 — per-kernel speedups, MIC vs 2S E5-2680 (full-search trace)");
  const char* names[] = {"newview", "evaluate", "derivativeSum", "derivativeCore"};
  const double paper[] = {2.0, 1.9, 2.8, 2.0};
  for (int k = 0; k < 4; ++k) {
    const auto index = static_cast<std::size_t>(k);
    std::printf("  %-16s %6.2fx   (paper: ~%.1fx)   [CPU %.1fs vs MIC %.1fs in-kernel]\n",
                names[k], cpu.per_kernel_seconds[index] / mic.per_kernel_seconds[index],
                paper[k], cpu.per_kernel_seconds[index], mic.per_kernel_seconds[index]);
  }

  print_header("Host validation — real kernel throughput on this machine (ns/site)");
  std::printf("%-16s", "kernel");
  for (const auto isa :
       {miniphi::simd::Isa::kScalar, miniphi::simd::Isa::kAvx2, miniphi::simd::Isa::kAvx512}) {
    std::printf("  %10s", miniphi::simd::to_string(isa).c_str());
  }
  std::printf("  %14s\n", "avx512/avx2");
  const miniphi::core::Kernel kernels[] = {
      miniphi::core::Kernel::kNewview, miniphi::core::Kernel::kEvaluate,
      miniphi::core::Kernel::kDerivSum, miniphi::core::Kernel::kDerivCore};
  const std::int64_t sites = 100'000;
  for (const auto kernel : kernels) {
    std::printf("%-16s", miniphi::core::kernel_name(kernel));
    double avx2 = 0.0;
    double avx512 = 0.0;
    for (const auto isa :
         {miniphi::simd::Isa::kScalar, miniphi::simd::Isa::kAvx2, miniphi::simd::Isa::kAvx512}) {
      if (!miniphi::simd::isa_supported(isa)) {
        std::printf("  %10s", "n/a");
        continue;
      }
      const double ns = measure_kernel(kernel, isa, sites, 8);
      if (isa == miniphi::simd::Isa::kAvx2) avx2 = ns;
      if (isa == miniphi::simd::Isa::kAvx512) avx512 = ns;
      std::printf("  %10.2f", ns);
    }
    if (avx2 > 0.0 && avx512 > 0.0) {
      std::printf("  %13.2fx", avx2 / avx512);
    }
    std::printf("\n");
  }
  std::printf("\n(The host ratios validate the 8-wide vs 4-wide mechanism; the platform\n");
  std::printf("comparison above additionally includes the bandwidth/TDP differences of\n");
  std::printf("the Table I hardware, which this machine cannot measure directly.)\n");

  // Part 3: the same per-kernel breakdown produced by the engine itself via
  // the EvalStats API, plus the overhead of turning the metrics registry on
  // (the acceptance budget is <1% with metrics off, <=2% with metrics on).
  print_header("Engine-attributed breakdown (stats() API) and metrics overhead");
  {
    using namespace miniphi;
    const auto alignment = simulate::paper_dataset(20'000, 7, 15);
    const auto patterns = bio::compress_patterns(alignment);
    Rng tree_rng(3);
    const tree::Tree base_tree = tree::parsimony_starting_tree(patterns, tree_rng);

    const auto timed_run = [&](obs::MetricsMode mode) {
      tree::Tree tree(base_tree);
      core::LikelihoodEngine::Config config;
      config.metrics = mode;
      config.site_repeats = false;  // the paper's per-site kernels
      core::LikelihoodEngine engine(patterns, model::GtrModel(model::GtrParams::jc69(0.8)),
                                    tree, config);
      const Timer timer;
      engine.optimize_all_branches(tree.tip(0), 3);
      return std::pair<double, core::EvalStats>{timer.seconds(), engine.stats()};
    };

    // Medians of interleaved runs per mode: the workload is ~0.15 s, small
    // enough that a single run is at the mercy of scheduler noise on a
    // shared host; alternating modes exposes both to the same machine state.
    (void)timed_run(obs::MetricsMode::kOff);  // warm up caches / frequency
    core::EvalStats on_stats;
    std::vector<double> iqrs;
    const std::vector<double> medians = bench::median_seconds(
        kOverheadRuns, {[&] { return timed_run(obs::MetricsMode::kOff).first; },
                        [&] {
                          // Reset before each run so the printed registry
                          // report covers one run, matching the stats()
                          // table next to it.
                          obs::Registry::instance().reset();
                          const auto [seconds, stats] = timed_run(obs::MetricsMode::kOn);
                          on_stats = stats;
                          return seconds;
                        }},
        &iqrs);

    std::printf("%s", core::format_eval_stats(on_stats).c_str());
    std::printf("\n%s", obs::render_kernel_report().c_str());
    std::printf("\nbranch-length optimization wall, median of %d (IQR): metrics off %.3fs "
                "(%.3f), on %.3fs (%.3f) -> %+.2f%%\n",
                kOverheadRuns, medians[0], iqrs[0], medians[1], iqrs[1],
                (medians[1] / medians[0] - 1.0) * 100.0);
  }

  // Part 4: overhead of the silent-data-corruption defense (DESIGN.md §10) —
  // CLA checksums at newview commit plus lazy verify before input reuse —
  // on the same branch-optimization workload.  Acceptance budget: <=2%.
  print_header("SDC defense overhead (checksummed CLAs, same workload)");
  {
    using namespace miniphi;
    const auto alignment = simulate::paper_dataset(20'000, 7, 15);
    const auto patterns = bio::compress_patterns(alignment);
    Rng tree_rng(3);
    const tree::Tree base_tree = tree::parsimony_starting_tree(patterns, tree_rng);

    const auto timed_run = [&](bool sdc_checks) {
      tree::Tree tree(base_tree);
      core::LikelihoodEngine::Config config;
      config.sdc_checks = sdc_checks;
      config.site_repeats = false;  // the paper's per-site kernels
      core::LikelihoodEngine engine(patterns, model::GtrModel(model::GtrParams::jc69(0.8)),
                                    tree, config);
      const Timer timer;
      engine.optimize_all_branches(tree.tip(0), 3);
      return std::pair<double, core::sdc::Counters>{timer.seconds(), engine.sdc_counters()};
    };

    (void)timed_run(false);  // warm up caches / frequency
    core::sdc::Counters counters;
    std::vector<double> iqrs;
    const std::vector<double> medians = bench::median_seconds(
        kOverheadRuns, {[&] { return timed_run(false).first; },
                        [&] {
                          const auto [seconds, sdc] = timed_run(true);
                          counters = sdc;
                          return seconds;
                        }},
        &iqrs);

    const double overhead = (medians[1] / medians[0] - 1.0) * 100.0;
    std::printf("checksum verifies per run: %lld (hits: %lld — a clean run must detect 0)\n",
                static_cast<long long>(counters.checks), static_cast<long long>(counters.hits));
    std::printf("branch-length optimization wall, median of %d (IQR): checks off %.3fs (%.3f), "
                "on %.3fs (%.3f) -> %+.2f%%\n",
                kOverheadRuns, medians[0], iqrs[0], medians[1], iqrs[1], overhead);
    if (std::getenv("MINIPHI_BENCH_REQUIRE_SDC_OVERHEAD") != nullptr && overhead > 2.0) {
      std::printf("FAIL: sdc verify overhead %.2f%% exceeds the 2%% budget\n", overhead);
      return 1;
    }
  }
  return 0;
}
