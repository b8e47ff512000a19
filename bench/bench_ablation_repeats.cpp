// Ablation: site-repeats kernels (LvD / BEAGLE 4.1 style) vs the dense
// per-site path.  Real host measurements on an alignment whose columns are
// duplicated 4× (kept uncompressed, as pattern compression would fold
// column-level duplicates away — subtree-level repeats are what the
// technique exploits beyond compression).  Reports the unique-site ratio,
// per-kernel newview work/time for both paths, and the log-likelihood
// delta, which must sit at numerical noise (≤1e-10 relative).
//
// A second section times the class-map builds of an SPR prune/regraft
// cycle on paper-style data, once with the direct-indexed dedup table
// serving every span up to 2^18 (hashing above it) and once hashing every
// build: builds per path and each path's ns/site as medians of interleaved
// runs with their IQR.  Its gate is a count, so it always holds the exit
// code: both modes must build identical records and lnL sequences, and the
// cycle must decide some slots identity by leaf-set subset.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/miniphi.hpp"

#include "src/core/engine.hpp"  // white-box: site-repeat internals ablation

namespace {

/// Duplicates every column of `base` `copies` times.
miniphi::bio::Alignment duplicate_columns(const miniphi::bio::Alignment& base, int copies) {
  std::vector<std::string> names;
  std::vector<std::vector<miniphi::bio::DnaCode>> rows;
  for (std::size_t t = 0; t < base.taxon_count(); ++t) {
    names.push_back(base.taxon_name(t));
    const auto row = base.row(t);
    std::vector<miniphi::bio::DnaCode> out;
    out.reserve(row.size() * static_cast<std::size_t>(copies));
    for (int c = 0; c < copies; ++c) out.insert(out.end(), row.begin(), row.end());
    rows.push_back(std::move(out));
  }
  return miniphi::bio::Alignment(std::move(names), std::move(rows));
}

struct RunResult {
  double lnl = 0.0;
  double newview_seconds = 0.0;
  std::int64_t newview_sites = 0;
  double unique_ratio = 1.0;
};

RunResult run(const miniphi::bio::PatternSet& patterns, const miniphi::tree::Tree& base_tree,
              miniphi::simd::Isa isa, bool site_repeats) {
  using namespace miniphi;
  tree::Tree tree(base_tree);
  core::LikelihoodEngine::Config config;
  config.isa = isa;
  config.site_repeats = site_repeats;
  core::LikelihoodEngine engine(patterns, model::GtrModel(model::GtrParams::jc69(0.8)), tree,
                                config);
  // Branch-length optimization is the newview-heavy search phase and the
  // one the class-map caching targets (maps build once, then every Newton
  // smoothing pass reuses them).
  RunResult result;
  result.lnl = engine.optimize_all_branches(tree.tip(0), 3);
  const core::EvalStats& stats = engine.stats();
  result.newview_seconds = stats.kernel(core::Kernel::kNewview).seconds;
  result.newview_sites = stats.kernel(core::Kernel::kNewview).sites;
  result.unique_ratio = engine.unique_site_ratio();
  return result;
}

/// One SPR prune/regraft cycle's class-map work under one dedup split.
struct CycleResult {
  miniphi::core::LikelihoodEngine::RepeatMapStats stats;
  std::vector<double> lnls;                    ///< every evaluation, in order
  std::vector<std::vector<std::uint32_t>> records;  ///< every slot's record at the end
};

/// spr_round's call pattern over every inner node: prune, then regraft /
/// evaluate / ungraft per radius-3 candidate, then undo, each followed by
/// invalidate_node on the incident nodes.
CycleResult spr_cycle(const miniphi::bio::PatternSet& patterns,
                      const miniphi::tree::Tree& base_tree, std::uint64_t direct_span) {
  using namespace miniphi;
  tree::Tree tree(base_tree);
  core::LikelihoodEngine engine(patterns, model::GtrModel(model::GtrParams::jc69(0.8)), tree,
                                core::EngineConfig{});
  engine.set_repeat_direct_span(direct_span);
  CycleResult result;
  const auto invalidate = [&](std::initializer_list<const tree::Slot*> slots) {
    for (const tree::Slot* slot : slots) engine.invalidate_node(slot->node_id);
  };
  for (tree::Slot* edge : tree.edges()) result.lnls.push_back(engine.log_likelihood(edge));
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    tree::Slot* p = tree.inner_slot(inner, 0);
    const auto record = tree::prune(tree, p);
    invalidate({record.left, record.right, p});
    for (tree::Slot* e : tree::insertion_candidates(record, 3)) {
      tree::Slot* other = e->back;
      tree::regraft(tree, record, e);
      invalidate({e, other, p});
      result.lnls.push_back(engine.log_likelihood(p->next));
      tree::ungraft(tree, record);
      invalidate({e, other, p});
    }
    tree::undo_prune(tree, record);
    invalidate({record.left, record.right, p});
    result.lnls.push_back(engine.log_likelihood(p->next));
  }
  result.stats = engine.repeat_map_stats();
  for (int inner = 0; inner < tree.inner_count(); ++inner) {
    for (int k = 0; k < 3; ++k) {
      const auto view = engine.class_record(tree.inner_slot(inner, k));
      std::vector<std::uint32_t> flat(view.class_of_site.begin(), view.class_of_site.end());
      flat.insert(flat.end(), view.left.begin(), view.left.end());
      flat.insert(flat.end(), view.right.begin(), view.right.end());
      result.records.push_back(std::move(flat));
    }
  }
  return result;
}

/// The map-build row and its count gate; returns whether the gate holds.
bool map_build_row() {
  using namespace miniphi;
  constexpr int kRuns = 7;
  const auto patterns = bio::compress_patterns(simulate::paper_dataset(20'000, 2026));
  Rng rng(11);
  const tree::Tree base_tree = tree::parsimony_starting_tree(patterns, rng);
  const auto sites = static_cast<double>(patterns.pattern_count());

  struct Mode {
    const char* name;
    std::uint64_t span;
    std::vector<double> direct_ns_per_site;
    std::vector<double> hashed_ns_per_site;
    std::vector<double> build_ms;
    CycleResult last;
  };
  Mode modes[] = {{"split 2^18", core::LikelihoodEngine::kDirectSpan, {}, {}, {}, {}},
                  {"hashed", 0, {}, {}, {}, {}}};
  for (int run = 0; run < kRuns; ++run) {
    for (Mode& mode : modes) {
      mode.last = spr_cycle(patterns, base_tree, mode.span);
      const auto& st = mode.last.stats;
      if (st.direct > 0) {
        mode.direct_ns_per_site.push_back(static_cast<double>(st.direct_ns) /
                                          (static_cast<double>(st.direct) * sites));
      }
      if (st.hashed > 0) {
        mode.hashed_ns_per_site.push_back(static_cast<double>(st.hashed_ns) /
                                          (static_cast<double>(st.hashed) * sites));
      }
      mode.build_ms.push_back(static_cast<double>(st.direct_ns + st.hashed_ns) * 1e-6);
    }
  }

  std::printf("\nClass-map builds over an SPR prune/regraft cycle (radius 3): 15 taxa x %lld\n"
              "patterns, medians of %d interleaved runs (IQR in parentheses)\n\n",
              static_cast<long long>(patterns.pattern_count()), kRuns);
  std::printf("%-11s %7s %7s %7s %9s %22s %22s %20s\n", "dedup", "builds", "direct", "hashed",
              "by-subset", "direct ns/site", "hashed ns/site", "dedup ms/cycle");
  const auto cell = [](const std::vector<double>& samples) -> std::string {
    if (samples.empty()) return "-";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.2f (%.2f)", bench::median(samples),
                  bench::iqr(samples));
    return buffer;
  };
  for (const Mode& mode : modes) {
    const auto& st = mode.last.stats;
    std::printf("%-11s %7lld %7lld %7lld %9lld %22s %22s %20s\n", mode.name,
                static_cast<long long>(st.builds), static_cast<long long>(st.direct),
                static_cast<long long>(st.hashed), static_cast<long long>(st.identity_by_subset),
                cell(mode.direct_ns_per_site).c_str(), cell(mode.hashed_ns_per_site).c_str(),
                cell(mode.build_ms).c_str());
  }

  // Gate: the dedup path never changes a record or an lnL, and the cycle
  // exercises the subset rule.
  const CycleResult& split = modes[0].last;
  const CycleResult& hashed = modes[1].last;
  const bool same_lnls =
      split.lnls.size() == hashed.lnls.size() &&
      std::memcmp(split.lnls.data(), hashed.lnls.data(), split.lnls.size() * sizeof(double)) == 0;
  const bool same_records = split.records == hashed.records;
  const bool same_counts = split.stats.builds == hashed.stats.builds &&
                           split.stats.identity_by_subset == hashed.stats.identity_by_subset;
  const bool subset_used = split.stats.identity_by_subset > 0;
  std::printf("\ngate: records %s, lnL sequence %s, build counts %s, identity by subset %s\n",
              same_records ? "identical" : "DIFFER", same_lnls ? "identical" : "DIFFERS",
              same_counts ? "equal" : "DIFFER", subset_used ? "> 0" : "= 0 (FAIL)");
  return same_lnls && same_records && same_counts && subset_used;
}

}  // namespace

int main() {
  using namespace miniphi;
  set_log_level(LogLevel::kWarn);

  const int ntaxa = 48;
  const std::int64_t base_sites = 4'000;
  const int copies = 4;
  std::printf("Ablation — site-repeat kernels vs dense path, real measurements\n");
  std::printf(
      "workload: full branch-length optimization, %d taxa x %lld sites "
      "(%lld unique columns x %d copies, uncompressed)\n\n",
      ntaxa, static_cast<long long>(base_sites * copies), static_cast<long long>(base_sites),
      copies);

  const auto base = simulate::paper_dataset(base_sites, 77, ntaxa);
  const auto patterns = bio::uncompressed_patterns(duplicate_columns(base, copies));
  Rng rng(5);
  const tree::Tree base_tree = tree::parsimony_starting_tree(patterns, rng);

  std::printf("%8s  %8s  %14s  %14s  %12s  %10s  %12s\n", "isa", "path", "nv sites", "nv [s]",
              "speedup", "uniq", "lnL delta");
  for (const auto isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (!simd::isa_supported(isa)) continue;
    const auto dense = run(patterns, base_tree, isa, false);
    const auto repeats = run(patterns, base_tree, isa, true);
    const double speedup = dense.newview_seconds / repeats.newview_seconds;
    const double delta = std::abs(repeats.lnl - dense.lnl) / std::abs(dense.lnl);
    std::printf("%8s  %8s  %14lld  %14.3f  %12s  %10.3f  %12s\n", simd::to_string(isa).c_str(),
                "dense", static_cast<long long>(dense.newview_sites), dense.newview_seconds, "",
                dense.unique_ratio, "");
    std::printf("%8s  %8s  %14lld  %14.3f  %11.2fx  %10.3f  %12.2e\n",
                simd::to_string(isa).c_str(), "repeats",
                static_cast<long long>(repeats.newview_sites), repeats.newview_seconds, speedup,
                repeats.unique_ratio, delta);
  }
  std::printf(
      "\nnv sites counts CLA site-blocks actually computed: the repeat path\n"
      "computes one block per unique subtree pattern (<= 1/%d of the dense\n"
      "work here) and its class maps are reused across every Newton smoothing\n"
      "pass because branch-length changes cannot alter subtree tip patterns.\n",
      copies);
  return map_build_row() ? 0 : 1;
}
