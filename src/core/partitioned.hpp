// Partitioned (multi-gene) alignments.
//
// The paper supports multiple partitions but neither optimizes nor
// evaluates them (Section V-A), warning that "for a large number of
// partitions, performance will degrade due to decreasing parallel block
// size ... and growing communication overhead"; Section VII calls for
// partitioned load-balancing work.  This module supplies the functional
// side: each partition owns its pattern set and substitution model (RAxML's
// per-partition GTR+Γ with linked branch lengths), one LikelihoodEngine per
// partition runs over the shared tree, and the evaluator sums per-partition
// log-likelihoods and Newton derivatives.  The performance-degradation
// claim itself is reproduced by bench_ablation_partitions via the platform
// cost model.
//
// One execution shape (DESIGN.md §13), the BEAGLE-4.1 concurrent-
// partition-streams analogue: partitions are assigned to independent stream
// groups, each stream evaluates its partitions *end-to-end* (newview
// traversal through the engine's own plan cache, root kernels,
// derivatives) as one task, and the only synchronization is the region join
// before the fixed-order reduction — one parallel region per evaluator
// call.  With no ParallelFor attached the stream tasks run as a plain loop
// on the calling thread, which is the serial path.  Every partition runs the
// engine config's ISA.
//
// Every reduction sums in fixed partition order, so results are
// bit-identical across stream counts and thread counts.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/engine.hpp"
#include "src/core/partition_spec.hpp"
#include "src/obs/metrics.hpp"

namespace miniphi::core {

/// Carves a global CLA byte budget (EngineConfig::cla_budget_bytes) into
/// per-partition buffer counts.  Every partition is floored at its minimum
/// working set (min(inner_count, 3) buffers — the deepest live set of the
/// Sethi–Ullman DFS executor); throws miniphi::Error mentioning the
/// "minimum working set" when the floors alone exceed the budget (the C API
/// maps that message to MINIPHI_ERROR_INSUFFICIENT_MEMORY).  Slack is dealt
/// one buffer per round, largest partitions first: a big partition pays the
/// most recompute per evicted buffer, so it gets the spare residency.
/// `partition_lengths` are compressed pattern counts (the dense engine's
/// per-buffer footprint is kSiteBlock doubles + one scale int per pattern).
std::vector<int> carve_cla_budgets(std::int64_t budget_bytes,
                                   std::span<const std::int64_t> partition_lengths,
                                   int inner_count);

/// Compressed pattern count of each partition, exactly as the partitioned
/// evaluator compresses them: the input of carve_cla_budgets and of
/// platform::plan_partition_streams before an evaluator exists.
std::vector<std::int64_t> partition_pattern_counts(const bio::Alignment& alignment,
                                                   std::span<const PartitionSpec> specs);

class PartitionedEvaluator final : public Evaluator {
 public:
  /// Compresses each site range into its own pattern set and builds one
  /// engine per partition over the shared tree.  Every partition starts
  /// with `initial_model`; models can then diverge per partition.
  ///
  /// `streams` fixes each partition's stream group; the default plan keeps
  /// every partition in one stream.  Every engine runs engine_config.isa.
  /// The streams run in parallel once a ParallelFor is attached.
  PartitionedEvaluator(const bio::Alignment& alignment, std::span<const PartitionSpec> specs,
                       const model::GtrModel& initial_model, tree::Tree& tree,
                       const EngineConfig& engine_config = {}, const StreamPlan& streams = {});

  [[nodiscard]] int partition_count() const { return static_cast<int>(engines_.size()); }
  [[nodiscard]] const std::string& partition_name(int p) const;
  [[nodiscard]] const bio::PatternSet& partition_patterns(int p) const;

  /// Direct access for per-partition model optimization
  /// (search::optimize_model works on the returned engine unchanged).
  [[nodiscard]] LikelihoodEngine& partition_engine(int p);

  /// Resident CLA buffers granted to partition `p` — the carve of a global
  /// EngineConfig::cla_budget_bytes (see carve_cla_budgets), or the full
  /// inner-node count when no byte budget is in force.
  [[nodiscard]] int partition_cla_buffers(int p) const;

  /// Attaches (or detaches, with nullptr) the parallel-for executor that
  /// runs the stream tasks.  Requires engines built without a KernelTrace
  /// (the trace recorder is not thread-safe).  With no executor attached
  /// the stream tasks run as a plain loop on the calling thread.
  void set_parallel_for(ParallelFor* parallel_for);

  /// The stream assignment in force (normalized: partition_stream is always
  /// filled).
  [[nodiscard]] const StreamPlan& stream_plan() const { return streams_; }
  [[nodiscard]] int stream_count() const { return streams_.stream_count; }

  /// Counters of the stream-group executor (never reset; callers take
  /// deltas).  regions stays 0 until a ParallelFor is attached.
  [[nodiscard]] const StreamCounters& stream_counters() const { return stream_counters_; }

  // Evaluator interface: branch lengths are linked across partitions, so
  // likelihoods and derivatives are sums over partitions.
  double log_likelihood(tree::Slot* edge) override;
  void prepare_derivatives(tree::Slot* edge) override;
  std::pair<double, double> derivatives(double z) override;
  double optimize_branch(tree::Slot* edge, int max_iterations) override;
  using Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override;
  /// All-branch gradient: each partition runs its own two-pass sweep; the
  /// per-edge derivatives are summed in fixed partition order (bit-identical
  /// across stream counts and thread counts like every other
  /// reduction here).  Works on every CLA budget — each engine's preorder
  /// partials live in their own spilling memory::ClaStore tier — and only
  /// declines (false) if some partition's engine declines for another
  /// reason.
  bool gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) override;
  void invalidate_node(int node_id) override;
  void invalidate_branch(int node_id) override;
  /// Sets the Γ shape of every partition (per-partition α is optimized via
  /// partition_engine(p) instead).
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override;

  /// Kernel ISA every partition runs (the engine config's).
  [[nodiscard]] simd::Isa isa() const override;

  /// Sum of the per-partition resident CLA pools — what a global
  /// cla_budget_bytes actually bought after the carve.
  [[nodiscard]] std::int64_t cla_bytes_granted() const override;

  /// Linked-model seam: gtr_model() reports partition 0's model and
  /// set_gtr_model() replaces the model of *every* partition.  Meaningful
  /// while the partitions share one model (the construction state);
  /// per-partition divergent models are managed via partition_engine(p).
  [[nodiscard]] const model::GtrModel* gtr_model() const override;
  bool set_gtr_model(const model::GtrModel& model) override;

  /// Sum of the per-partition engine stats (EvalStats::operator+=).
  [[nodiscard]] const EvalStats& stats() const override;
  void reset_stats() override;

 private:
  /// Dispatches `fn(p)` over every partition: one region of stream_count
  /// tasks, each walking its own partitions serially (so an engine is only
  /// ever touched by its stream's thread), or a plain loop over the tasks
  /// when no ParallelFor is attached.
  void run_partitions(const std::function<void(int)>& fn);

  /// Partition-level heal step (Config::sdc_checks; see DESIGN.md §10): an
  /// engine escalation is healed by invalidating the named node on every
  /// partition and retrying; after sdc::kHealRetryBudget attempts the fault
  /// propagates.
  void heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt);

  /// Cancellation boundary (Config::cancel; DESIGN.md §15): throws
  /// CancelledError between branches of a smoothing sweep (the engines
  /// check the token themselves inside a traversal).  No-op without a
  /// token.
  void check_cancel() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// Drops every pin on every partition engine.  Called when a cooperative
  /// cancellation unwinds a top-level call: the engine that observed the
  /// token released its own pins, and this leaves no other engine of a
  /// multi-stream call holding one.
  void release_all_pins() {
    for (auto& engine : engines_) engine->release_pins();
  }

  tree::Tree& tree_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<bio::PatternSet>> patterns_;
  std::vector<std::unique_ptr<LikelihoodEngine>> engines_;
  mutable EvalStats aggregated_stats_;  ///< cache filled by stats()

  ParallelFor* parallel_for_ = nullptr;
  bool trace_attached_ = false;  ///< engines share a KernelTrace (not thread-safe)
  bool metrics_ = false;
  const CancelToken* cancel_ = nullptr;
  sdc::MetricIds sdc_ids_;

  // Stream-group machinery.
  StreamPlan streams_;                       ///< normalized at construction
  std::vector<std::vector<int>> stream_partitions_;  ///< stream → its partitions
  StreamCounters stream_counters_;
  obs::MetricId stream_calls_id_ = 0;
  obs::MetricId stream_regions_id_ = 0;
  obs::MetricId stream_width_id_ = 0;  ///< histogram: partitions per stream task

  // Per-call scratch (reused; sized to partition_count()).
  std::vector<double> partials_;
  std::vector<std::pair<double, double>> derivative_partials_;
};

}  // namespace miniphi::core
