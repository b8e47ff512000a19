#include "src/core/partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/obs/span_trace.hpp"
#include "src/util/error.hpp"

namespace miniphi::core {
namespace {

/// Extracts one site range of the alignment as fresh records.
bio::Alignment slice_alignment(const bio::Alignment& alignment, const PartitionSpec& spec) {
  MINIPHI_CHECK(spec.begin >= 0 && spec.begin < spec.end &&
                    spec.end <= static_cast<std::int64_t>(alignment.site_count()),
                "partition '" + spec.name + "': invalid site range");
  std::vector<std::string> names;
  std::vector<std::vector<bio::DnaCode>> rows;
  names.reserve(alignment.taxon_count());
  rows.reserve(alignment.taxon_count());
  for (std::size_t t = 0; t < alignment.taxon_count(); ++t) {
    names.push_back(alignment.taxon_name(t));
    const auto row = alignment.row(t);
    rows.emplace_back(row.begin() + spec.begin, row.begin() + spec.end);
  }
  return bio::Alignment(std::move(names), std::move(rows));
}

/// Fills the defaulted StreamPlan fields and validates the explicit ones.
StreamPlan normalize_stream_plan(const StreamPlan& plan, std::size_t partitions) {
  StreamPlan out = plan;
  MINIPHI_CHECK(out.stream_count >= 1, "stream plan: stream_count must be >= 1");
  // An empty assignment puts every partition on stream 0, which would
  // leave the other streams' tasks empty.
  MINIPHI_CHECK(out.stream_count == 1 || !out.partition_stream.empty(),
                "stream plan: stream_count > 1 needs a partition_stream assignment");
  if (out.partition_stream.empty()) out.partition_stream.assign(partitions, 0);
  MINIPHI_CHECK(out.partition_stream.size() == partitions,
                "stream plan: partition_stream size does not match the partition count");
  for (const int stream : out.partition_stream) {
    MINIPHI_CHECK(stream >= 0 && stream < out.stream_count,
                  "stream plan: partition assigned to a stream id outside [0, stream_count)");
  }
  return out;
}

}  // namespace

std::vector<std::int64_t> carve_cla_budgets(std::int64_t budget_bytes,
                                            std::span<const std::int64_t> partition_lengths,
                                            int inner_count) {
  MINIPHI_CHECK(budget_bytes > 0, "carve_cla_budgets: budget must be positive");
  const auto n = partition_lengths.size();
  const int floor_buffers = min_cla_buffers(inner_count);
  std::vector<std::int64_t> bytes_per_buffer(n);
  std::vector<int> counts(n, floor_buffers);
  std::int64_t need = 0;
  for (std::size_t p = 0; p < n; ++p) {
    bytes_per_buffer[p] = full_width_cla_bytes(partition_lengths[p], kSiteBlock);
    need += floor_buffers * bytes_per_buffer[p];
  }
  MINIPHI_CHECK(budget_bytes >= need,
                "partitioned evaluator: cla_budget_bytes cannot fit the minimum working set "
                "across partitions (need " +
                    std::to_string(need) + " bytes for " + std::to_string(n) +
                    " partitions of " + std::to_string(floor_buffers) + " buffers each)");
  std::int64_t remaining = budget_bytes - need;
  // Budget-aware slack distribution: one buffer per partition per round, in
  // descending per-buffer footprint (largest partition first — it pays the
  // most recompute per evicted buffer), until nothing more fits.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bytes_per_buffer[a] > bytes_per_buffer[b];
  });
  bool progress = true;
  while (progress) {
    progress = false;
    for (const std::size_t p : order) {
      if (counts[p] < inner_count && bytes_per_buffer[p] <= remaining) {
        ++counts[p];
        remaining -= bytes_per_buffer[p];
        progress = true;
      }
    }
  }
  std::vector<std::int64_t> caps(n);
  for (std::size_t p = 0; p < n; ++p) caps[p] = counts[p] * bytes_per_buffer[p];
  return caps;
}

std::vector<std::int64_t> partition_pattern_counts(const bio::Alignment& alignment,
                                                   std::span<const PartitionSpec> specs) {
  std::vector<std::int64_t> counts;
  counts.reserve(specs.size());
  for (const PartitionSpec& spec : specs) {
    counts.push_back(static_cast<std::int64_t>(
        bio::compress_patterns(slice_alignment(alignment, spec)).pattern_count()));
  }
  return counts;
}

std::vector<PartitionSpec> even_partitions(std::int64_t total_sites, int count) {
  MINIPHI_CHECK(count >= 1 && total_sites >= count,
                "even_partitions: need at least one site per partition");
  std::vector<PartitionSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int p = 0; p < count; ++p) {
    PartitionSpec spec;
    spec.name = "gene" + std::to_string(p);
    spec.begin = total_sites * p / count;
    spec.end = total_sites * (p + 1) / count;
    specs.push_back(std::move(spec));
  }
  return specs;
}

PartitionedEvaluator::PartitionedEvaluator(const bio::Alignment& alignment,
                                           std::span<const PartitionSpec> specs,
                                           const model::GtrModel& initial_model,
                                           tree::Tree& tree,
                                           const EngineConfig& engine_config,
                                           const StreamPlan& streams)
    : tree_(tree), streams_(normalize_stream_plan(streams, specs.size())) {
  MINIPHI_CHECK(!specs.empty(), "partitioned evaluator: no partitions given");
  stream_partitions_.resize(static_cast<std::size_t>(streams_.stream_count));
  // Compress every partition first: a global byte budget is carved over the
  // *compressed* per-partition footprints, so all pattern sets must exist
  // before the first engine is built.
  for (std::size_t p = 0; p < specs.size(); ++p) {
    names_.push_back(specs[p].name);
    const auto sliced = slice_alignment(alignment, specs[p]);
    patterns_.push_back(std::make_unique<bio::PatternSet>(bio::compress_patterns(sliced)));
    stream_partitions_[static_cast<std::size_t>(streams_.partition_stream[p])].push_back(
        static_cast<int>(p));
  }
  // Per-partition budget carve (DESIGN.md §14): a global cla_budget_bytes is
  // split into per-partition byte caps whose sum honors the one budget the
  // caller negotiated.
  std::vector<std::int64_t> carved;
  if (engine_config.cla_budget_bytes > 0) {
    std::vector<std::int64_t> lengths;
    lengths.reserve(patterns_.size());
    for (const auto& patterns : patterns_) {
      lengths.push_back(static_cast<std::int64_t>(patterns->pattern_count()));
    }
    carved = carve_cla_budgets(engine_config.cla_budget_bytes, lengths, tree.inner_count());
  }
  for (std::size_t p = 0; p < specs.size(); ++p) {
    EngineConfig config = engine_config;
    config.begin = 0;
    config.end = -1;
    // A full grant (every inner node at full width) leaves the store
    // uncapped, so it never evicts.
    if (!carved.empty()) config.cla_budget_bytes = carved[p];
    engines_.push_back(
        std::make_unique<LikelihoodEngine>(*patterns_[p], initial_model, tree, config));
  }
  trace_attached_ = engine_config.trace != nullptr;
  cancel_ = engine_config.cancel;  // engines share the same token via config
  if (obs::kMetricsCompiled && engine_config.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    obs::Registry& registry = obs::Registry::instance();
    stream_calls_id_ = registry.counter("stream.calls");
    stream_regions_id_ = registry.counter("stream.regions");
    stream_width_id_ = registry.histogram("stream.width");
    sdc_ids_ = sdc::register_metrics();
  }
  partials_.resize(engines_.size());
  derivative_partials_.resize(engines_.size());
}

void PartitionedEvaluator::set_parallel_for(ParallelFor* parallel_for) {
  MINIPHI_CHECK(parallel_for == nullptr || !trace_attached_,
                "partitioned evaluator: the engines share a KernelTrace, which is not "
                "thread-safe; build without Config::trace to attach a ParallelFor");
  parallel_for_ = parallel_for;
}

void PartitionedEvaluator::heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt) {
  if (attempt + 1 >= sdc::kHealRetryBudget) {
    if (metrics_) obs::Registry::instance().add(sdc_ids_.escalations, 1);
    throw;
  }
  if (fault.node_id() >= 0) {
    for (auto& engine : engines_) engine->invalidate_node(fault.node_id());
  } else {
    for (auto& engine : engines_) engine->invalidate_all();
  }
  if (metrics_) obs::Registry::instance().add(sdc_ids_.heals, 1);
}

void PartitionedEvaluator::run_partitions(const std::function<void(int)>& fn) {
  // One region, one task per stream group.  Each task walks its own
  // partitions end-to-end, so every engine is touched by exactly one thread
  // and the whole call costs a single fork-join barrier.
  const int streams = streams_.stream_count;
  ++stream_counters_.calls;
  stream_counters_.tasks += streams;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(stream_calls_id_, 1);
    for (int s = 0; s < streams; ++s) {
      registry.observe(stream_width_id_,
                       static_cast<std::int64_t>(stream_partitions_[static_cast<std::size_t>(s)].size()));
    }
  }
  const auto task = [&](int s) {
    obs::ScopedSpan span("stream:group");
    for (const int p : stream_partitions_[static_cast<std::size_t>(s)]) fn(p);
  };
  if (parallel_for_ != nullptr) {
    ++stream_counters_.regions;
    if (metrics_) obs::Registry::instance().add(stream_regions_id_, 1);
    parallel_for_->run(streams, task);
    return;
  }
  for (int s = 0; s < streams; ++s) task(s);
}

const std::string& PartitionedEvaluator::partition_name(int p) const {
  MINIPHI_ASSERT(p >= 0 && p < partition_count());
  return names_[static_cast<std::size_t>(p)];
}

const bio::PatternSet& PartitionedEvaluator::partition_patterns(int p) const {
  MINIPHI_ASSERT(p >= 0 && p < partition_count());
  return *patterns_[static_cast<std::size_t>(p)];
}

LikelihoodEngine& PartitionedEvaluator::partition_engine(int p) {
  MINIPHI_ASSERT(p >= 0 && p < partition_count());
  return *engines_[static_cast<std::size_t>(p)];
}

double PartitionedEvaluator::log_likelihood(tree::Slot* edge) {
  for (int attempt = 0;; ++attempt) {
    try {
      // Each stream task runs its partitions end-to-end (traversal +
      // evaluate).
      run_partitions([&](int p) {
        partials_[static_cast<std::size_t>(p)] =
            engines_[static_cast<std::size_t>(p)]->log_likelihood(edge);
      });
      // Fixed partition order: bit-identical across stream counts and
      // thread counts.
      double total = 0.0;
      for (int p = 0; p < partition_count(); ++p) total += partials_[static_cast<std::size_t>(p)];
      return total;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    } catch (const CancelledError&) {
      release_all_pins();
      throw;
    }
  }
}

void PartitionedEvaluator::prepare_derivatives(tree::Slot* edge) {
  for (int attempt = 0;; ++attempt) {
    try {
      run_partitions([&](int p) {
        engines_[static_cast<std::size_t>(p)]->prepare_derivatives(edge);
      });
      return;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    } catch (const CancelledError&) {
      release_all_pins();
      throw;
    }
  }
}

std::pair<double, double> PartitionedEvaluator::derivatives(double z) {
  run_partitions([&](int p) {
    derivative_partials_[static_cast<std::size_t>(p)] =
        engines_[static_cast<std::size_t>(p)]->derivatives(z);
  });
  double first = 0.0;
  double second = 0.0;
  for (int p = 0; p < partition_count(); ++p) {
    const auto [f, s] = derivative_partials_[static_cast<std::size_t>(p)];
    first += f;
    second += s;
  }
  return {first, second};
}

double PartitionedEvaluator::optimize_branch(tree::Slot* edge, int max_iterations) {
  // prepare_derivatives runs its own heal loop; keeping it outside the try
  // below means an escalation there propagates instead of doubling the
  // retry budget.
  for (int attempt = 0;; ++attempt) {
    prepare_derivatives(edge);
    try {
      double z = edge->length;
      for (int iteration = 0; iteration < max_iterations; ++iteration) {
        const auto [first, second] = derivatives(z);
        const double next = LikelihoodEngine::newton_step(z, first, second);
        const bool converged = std::abs(next - z) < 1e-10;
        z = next;
        if (converged) break;
      }
      tree::Tree::set_length(edge, z);
      // Branch-length-only change: per-partition site-repeat class maps
      // survive.
      invalidate_branch(edge->node_id);
      invalidate_branch(edge->back->node_id);
      return z;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

double PartitionedEvaluator::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge, 32);
    }
  }
  return log_likelihood(root_edge);
}

bool PartitionedEvaluator::gradient_all_branches(tree::Slot* root_edge,
                                                 std::vector<BranchGradient>& out) {
  out.clear();
  std::vector<std::vector<BranchGradient>> partials(static_cast<std::size_t>(partition_count()));
  std::vector<char> supported(static_cast<std::size_t>(partition_count()), 0);
  try {
    run_partitions([&](int p) {
      supported[static_cast<std::size_t>(p)] =
          engines_[static_cast<std::size_t>(p)]->gradient_all_branches(
              root_edge, partials[static_cast<std::size_t>(p)])
              ? 1
              : 0;
    });
  } catch (const CancelledError&) {
    release_all_pins();
    throw;
  }
  for (const char ok : supported) {
    if (!ok) return false;
  }
  // Every partition walks the same tree with the same deterministic preorder
  // plan, so the per-partition entries line up edge for edge; sum in fixed
  // partition order.
  out = std::move(partials.front());
  for (std::size_t p = 1; p < partials.size(); ++p) {
    MINIPHI_ASSERT(partials[p].size() == out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      MINIPHI_ASSERT(partials[p][i].edge == out[i].edge);
      out[i].first += partials[p][i].first;
      out[i].second += partials[p][i].second;
    }
  }
  return true;
}

void PartitionedEvaluator::invalidate_node(int node_id) {
  for (auto& engine : engines_) engine->invalidate_node(node_id);
}

void PartitionedEvaluator::invalidate_branch(int node_id) {
  for (auto& engine : engines_) engine->invalidate_branch(node_id);
}

void PartitionedEvaluator::set_alpha(double alpha) {
  for (auto& engine : engines_) engine->set_alpha(alpha);
}

double PartitionedEvaluator::alpha() const { return engines_.front()->model().params().alpha; }

std::int64_t PartitionedEvaluator::cla_bytes_granted() const {
  std::int64_t total = 0;
  for (const auto& engine : engines_) total += engine->cla_bytes_granted();
  return total;
}

simd::Isa PartitionedEvaluator::isa() const { return engines_.front()->isa(); }

const model::GtrModel* PartitionedEvaluator::gtr_model() const {
  return &engines_.front()->model();
}

bool PartitionedEvaluator::set_gtr_model(const model::GtrModel& model) {
  for (auto& engine : engines_) engine->set_model(model);
  return true;
}

const EvalStats& PartitionedEvaluator::stats() const {
  aggregated_stats_ = EvalStats{};
  for (const auto& engine : engines_) aggregated_stats_ += engine->stats();
  return aggregated_stats_;
}

void PartitionedEvaluator::reset_stats() {
  for (auto& engine : engines_) engine->reset_stats();
}

}  // namespace miniphi::core
