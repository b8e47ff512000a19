#include "src/core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "src/obs/span_trace.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"

namespace miniphi::core {
namespace {

/// 64-bit finalizer (splitmix64) for repeat-class pair keys.
inline std::uint64_t mix64(std::uint64_t key) {
  key += 0x9e3779b97f4a7c15ULL;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

inline std::size_t next_pow2(std::size_t value) {
  std::size_t result = 1;
  while (result < value) result <<= 1;
  return result;
}

}  // namespace

LikelihoodEngine::LikelihoodEngine(const bio::PatternSet& patterns,
                                   const model::GtrModel& model, tree::Tree& tree,
                                   const Config& config)
    : patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_kernel_ops(config.isa)),
      tuning_(config.tuning),
      use_openmp_(config.use_openmp),
      trace_(config.trace),
      cancel_(config.cancel) {
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  MINIPHI_CHECK(npat > 0, "engine: empty pattern set");
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "engine: tree and patterns disagree on taxon count");
  offset_ = config.begin;
  length_ = (config.end < 0 ? npat : config.end) - offset_;
  MINIPHI_CHECK(offset_ >= 0 && length_ > 0 && offset_ + length_ <= npat,
                "engine: invalid pattern slice");

  const int inner_count = tree.inner_count();
  int budget = (config.cla_buffers < 0) ? inner_count : config.cla_buffers;
  if (config.cla_buffers < 0 && config.cla_budget_bytes > 0) {
    // Byte-denominated budget (the C-API resource negotiation speaks bytes):
    // derive the buffer count from this slice's per-buffer footprint.
    const std::int64_t bytes_per_buffer =
        length_ * kSiteBlock * static_cast<std::int64_t>(sizeof(double)) +
        length_ * static_cast<std::int64_t>(sizeof(std::int32_t));
    budget = static_cast<int>(
        std::min<std::int64_t>(inner_count, config.cla_budget_bytes / bytes_per_buffer));
    MINIPHI_CHECK(budget >= std::min(inner_count, 3),
                  "engine: cla_budget_bytes cannot fit the minimum working set (" +
                      std::to_string(std::min(inner_count, 3)) + " CLA buffers of " +
                      std::to_string(bytes_per_buffer) + " bytes each)");
  }
  budget = std::min(budget, inner_count);
  MINIPHI_CHECK(budget >= std::min(inner_count, 3),
                "engine: cla_buffers budget must be at least 3 (got " +
                    std::to_string(budget) + ")");
  clas_.resize(static_cast<std::size_t>(inner_count));
  for (int i = 0; i < inner_count; ++i) clas_[static_cast<std::size_t>(i)].slot = i;
  cla_spill_dir_ = config.cla_spill_dir;

  site_repeats_ = config.site_repeats;
  if (site_repeats_) {
    MINIPHI_CHECK(length_ <= std::numeric_limits<std::uint32_t>::max(),
                  "engine: site_repeats needs 32-bit class ids; slice too wide");
    repeats_.resize(static_cast<std::size_t>(inner_count));
    repeat_table_.resize(
        std::max<std::size_t>(16, next_pow2(2 * static_cast<std::size_t>(length_))));
  }

  ptable_left_.resize(kPtableSize);
  ptable_right_.resize(kPtableSize);
  ump_left_.resize(kUmpSize);
  ump_right_.resize(kUmpSize);
  diag_.resize(kDiagSize);
  evtab_.resize(kEvtabSize);
  dtab_.resize(kDtabSize);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * kSiteBlock);

  sdc_checks_ = config.sdc_checks;
  if (obs::kMetricsCompiled && config.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    metric_ids_ = register_engine_metrics(ops_.isa, site_repeats_ ? "repeats" : "dense");
    pre_metric_ids_ = register_engine_metrics(ops_.isa, "preorder");
    plan_ids_ = register_plan_metrics();
    sdc_ids_ = sdc::register_metrics();
  }
  plan_cache_.reserve(kPlanCacheSize);

  // Tiered CLA storage (DESIGN.md §14): the store owns the resident pool,
  // the pin table, the monotonic LRU epoch, and the recompute-vs-spill
  // policy.  When an eviction drops a CLA (no spill), the callback marks the
  // node invalid so the next traversal recomputes it — the eviction side of
  // the Izquierdo-Carrasco trade-off.
  memory::ClaStoreConfig store_config;
  store_config.slots = inner_count;
  store_config.resident = budget;
  store_config.values = length_ * kSiteBlock;
  store_config.scales = length_;
  store_config.spill = config.cla_spill;
  store_config.spill_dir = config.cla_spill_dir;
  store_config.spill_min_registers = config.cla_spill_min_registers;
  store_config.node_id_base = tree.taxon_count();
  store_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  store_config.on_drop = [this](int slot) {
    clas_[static_cast<std::size_t>(slot)].valid = false;
    note_cla_state_changed();
  };
  store_.configure(std::move(store_config));

  set_model(model);
}

void LikelihoodEngine::set_model(const model::GtrModel& model) {
  model_ = model;
  tipvec16_ = build_tipvec16(model_);
  wtable_ = build_wtable(model_);
  // Model changes invalidate CLA *values* only: repeat classes are a pure
  // function of topology and tip states, so α/GTR optimization reuses them.
  for (auto& node : clas_) node.valid = false;
  store_.drop_all();  // spilled copies are stale too
  sum_prepared_ = false;
  note_cla_state_changed();
}

void LikelihoodEngine::set_alpha(double alpha) {
  model::GtrParams params = model_.params();
  params.alpha = alpha;
  set_model(model::GtrModel(params, model_.gamma_categories()));
}

void LikelihoodEngine::invalidate_node(int node_id) {
  if (node_id < tree_.taxon_count()) return;  // tips have no CLA
  const auto inner = static_cast<std::size_t>(node_id - tree_.taxon_count());
  clas_[inner].valid = false;
  store_.drop(static_cast<int>(inner));
  // Callers announce topology changes through this entry point, so the
  // node's subtree composition may have changed: drop its repeat classes.
  // Ancestors rebuild automatically — their next newview sees this node's
  // bumped version stamp, exactly like the CLA partial-traversal recompute.
  if (site_repeats_) repeats_[inner].orientation = -1;
  sum_prepared_ = false;
  note_cla_state_changed();
}

void LikelihoodEngine::invalidate_values(int node_id) {
  if (node_id < tree_.taxon_count()) return;
  const auto inner = static_cast<std::size_t>(node_id - tree_.taxon_count());
  clas_[inner].valid = false;
  // Free the resident buffer and any spill record eagerly: eviction must
  // never waste a disk write on a CLA that is already dead.
  store_.drop(static_cast<int>(inner));
  sum_prepared_ = false;
  note_cla_state_changed();
}

void LikelihoodEngine::invalidate_branch(int node_id) { invalidate_values(node_id); }

void LikelihoodEngine::invalidate_all() {
  for (auto& node : clas_) node.valid = false;
  store_.drop_all();
  for (auto& rep : repeats_) rep.orientation = -1;
  sum_prepared_ = false;
  note_cla_state_changed();
}

LikelihoodEngine::NodeCla& LikelihoodEngine::node_cla(int node_id) {
  MINIPHI_ASSERT(node_id >= tree_.taxon_count());
  return clas_[static_cast<std::size_t>(node_id - tree_.taxon_count())];
}

bool LikelihoodEngine::slot_valid(const tree::Slot* s) const {
  const auto& node = clas_[static_cast<std::size_t>(s->node_id - tree_.taxon_count())];
  return node.valid && node.orientation == s->slot_index;
}

double* LikelihoodEngine::cla_data(NodeCla& node) { return store_.values(node.slot); }

std::int32_t* LikelihoodEngine::scale_data(NodeCla& node) { return store_.scales(node.slot); }

void LikelihoodEngine::ensure_buffer(NodeCla& node) {
  // Write acquisition: the store may evict an unpinned victim, spilling it
  // or (via the on_drop callback) invalidating it — either way cached plans
  // that counted the victim as a resident input stay correct, because a
  // spilled CLA is still logically valid and a dropped one bumps the epoch.
  store_.acquire(node.slot);
}

void LikelihoodEngine::ensure_resident_cla(NodeCla& node) {
  MINIPHI_ASSERT(node.valid);
  if (store_.ensure_resident(node.slot) == memory::Residency::kReloaded) {
    // The reload verified the spill checksum, but spilled state re-earns
    // trust exactly like resident state: restart the lazy trust pass.
    node.verified_pass = 0;
  }
}

void LikelihoodEngine::pin(int node_id) {
  if (node_id >= tree_.taxon_count()) store_.pin(node_id - tree_.taxon_count());
}

void LikelihoodEngine::unpin(int node_id) {
  if (node_id >= tree_.taxon_count()) store_.unpin(node_id - tree_.taxon_count());
}

LikelihoodEngine::PlanCacheEntry& LikelihoodEngine::plan_entry(tree::Slot* edge) {
  // Both directions of an edge describe the same traversal; key on the
  // smaller slot index so log_likelihood(e) and log_likelihood(e->back)
  // share one cache entry.
  tree::Slot* key = (edge->back->slot_index < edge->slot_index) ? edge->back : edge;
  PlanCacheEntry* found = nullptr;
  PlanCacheEntry* lru = nullptr;
  for (auto& entry : plan_cache_) {
    if (entry.key == key) {
      found = &entry;
      break;
    }
    if (lru == nullptr || entry.last_use < lru->last_use) lru = &entry;
  }
  if (found == nullptr) {
    if (plan_cache_.size() < static_cast<std::size_t>(kPlanCacheSize)) {
      found = &plan_cache_.emplace_back();
    } else {
      found = lru;
    }
    found->key = key;
    found->built_epoch = 0;
    found->satisfied_epoch = 0;
  }
  found->last_use = ++plan_use_counter_;
  return *found;
}

const TraversalPlan& LikelihoodEngine::prepare_entry(PlanCacheEntry& entry) {
  if (entry.built_epoch == cla_epoch_) {
    // The tree and CLA validity have not changed since this plan was built:
    // the op list is still exact.
    ++plan_counters_.reuses;
    if (metrics_) obs::Registry::instance().add(plan_ids_.reuses, 1);
    return entry.plan;
  }
  Timer timer;
  tree::Slot* const goals[2] = {entry.key, entry.key->back};
  planner_.build(
      std::span<tree::Slot* const>(goals),
      [this](const tree::Slot* slot) { return slot_valid(slot); }, entry.plan);
  entry.built_epoch = cla_epoch_;
  entry.satisfied_epoch = 0;
  ++plan_counters_.builds;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(plan_ids_.builds, 1);
    registry.observe(plan_ids_.build_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  return entry.plan;
}

void LikelihoodEngine::validate_edge(tree::Slot* edge) {
  PlanCacheEntry& entry = plan_entry(edge);
  if (entry.satisfied_epoch != 0 && entry.satisfied_epoch == cla_epoch_) {
    // Nothing has invalidated, evicted or recomputed a CLA since this plan
    // last ran: the whole traversal is a no-op.  Pin the roots so the
    // caller's evaluate/derivative kernels can rely on them staying
    // resident, exactly as after a real execution.
    ++plan_counters_.cache_hits;
    if (metrics_) obs::Registry::instance().add(plan_ids_.cache_hits, 1);
    for (const PlanRoot& root : entry.plan.roots()) {
      if (root.slot->is_tip()) continue;
      MINIPHI_ASSERT(slot_valid(root.slot));
      pin(root.slot->node_id);
      // A satisfied plan's roots may live in the spill tier: pull them back
      // before the caller's evaluate/derivative kernels read them.
      ensure_resident_cla(node_cla(root.slot->node_id));
    }
    return;
  }
  const TraversalPlan& plan = prepare_entry(entry);
  execute_plan(plan);
  // run_newview bumps the epoch per op, so record satisfaction *after*
  // execution: the plan is satisfied at the epoch it produced.
  entry.built_epoch = cla_epoch_;
  entry.satisfied_epoch = cla_epoch_;
}

void LikelihoodEngine::execute_plan(const TraversalPlan& plan) {
  // Roots that were already valid at planning time are plan inputs too:
  // pin them before running any op so the execution cannot evict them.
  for (const PlanRoot& root : plan.roots()) {
    if (root.slot->is_tip() || root.op >= 0) continue;
    ready_child(root.slot, false);
  }
  if (plan.empty()) return;
  obs::ScopedSpan span("plan:execute");
  const bool full_budget = store_.full_resident();
  if (!full_budget) {
    // Tight budget: run in Sethi-Ullman DFS order with pin/unpin discipline
    // so the live working set stays ~log2(n) buffers.  Feed the plan's read
    // positions to the store first: eviction then prefers CLAs with no
    // remaining use in this plan, and otherwise the farthest next use —
    // the register-allocation heuristic of DESIGN.md §14.
    store_.begin_plan();
    const auto& ops = plan.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (tree::Slot* child : {ops[i].slot->child1(), ops[i].slot->child2()}) {
        if (!child->is_tip()) {
          store_.plan_next_use(child->node_id - tree_.taxon_count(),
                               static_cast<std::int64_t>(i));
        }
      }
    }
    for (const PlanRoot& root : plan.roots()) {
      // Roots are read by the kernel that follows the whole plan.
      if (!root.slot->is_tip()) {
        store_.plan_next_use(root.slot->node_id - tree_.taxon_count(),
                             static_cast<std::int64_t>(ops.size()));
      }
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      // Per-op cancellation boundary: a tight-budget traversal has no level
      // structure, so this is its plan-level granularity.
      check_cancel();
      store_.plan_cursor(static_cast<std::int64_t>(i));
      // Read-ahead: stream this op's and the next op's frontier inputs from
      // the spill tier while kernels run (two-entry ring; extras dropped,
      // resident slots are no-ops).
      prefetch_op_inputs(ops[i]);
      if (i + 1 < ops.size()) prefetch_op_inputs(ops[i + 1]);
      run_plan_op(ops[i], /*pinning=*/true);
    }
  } else {
    // Full budget: level order.  Nothing can be evicted, so no pinning —
    // this is the order the batched/wavefront executors use.
    for (int level = 1; level <= plan.levels(); ++level) {
      check_cancel();  // plan-level cancellation boundary
      obs::ScopedSpan level_span("plan:level");
      const auto level_ops = plan.level_ops(level);
      if (metrics_) {
        obs::Registry::instance().observe(plan_ids_.level_width,
                                          static_cast<std::int64_t>(level_ops.size()));
      }
      for (const std::int32_t op : level_ops) {
        run_plan_op(plan.ops()[static_cast<std::size_t>(op)], /*pinning=*/false);
      }
    }
    // Level order leaves the roots unpinned; pin them like the DFS path does.
    for (const PlanRoot& root : plan.roots()) {
      if (root.op >= 0) pin(root.slot->node_id);
    }
  }
  ++plan_counters_.executed_plans;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(plan_ids_.executed_plans, 1);
    registry.observe(plan_ids_.levels, plan.levels());
  }
}

void LikelihoodEngine::run_plan_op(const PlfOp& op, bool pinning) {
  if (pinning) {
    ready_child(op.slot->child1(), op.left_op >= 0);
    ready_child(op.slot->child2(), op.right_op >= 0);
  }
  run_newview(op.slot);
  // The op's Sethi–Ullman `registers` number is exactly the cost of
  // rebuilding this CLA from scratch — the store's recompute-vs-spill
  // signal at eviction time.
  if (op.registers > 0) {
    store_.set_rebuild_cost(op.slot->node_id - tree_.taxon_count(), op.registers);
  }
  ++plan_counters_.executed_ops;
  if (metrics_) obs::Registry::instance().add(plan_ids_.executed_ops, 1);
  if (pinning) {
    unpin(op.slot->child1()->node_id);
    unpin(op.slot->child2()->node_id);
    // The output stays pinned until its consumer (a later op, or the caller
    // for a root) releases it.
    pin(op.slot->node_id);
  }
}

void LikelihoodEngine::ready_child(tree::Slot* child, bool computed_in_plan) {
  if (child->is_tip()) return;
  if (computed_in_plan) {
    // An earlier op produced (and pinned) this CLA; it cannot have been
    // evicted since.
    MINIPHI_ASSERT(slot_valid(child));
    return;
  }
  if (slot_valid(child)) {
    pin(child->node_id);
    // Pin first so the reload's own eviction cannot pick this slot.
    ensure_resident_cla(node_cla(child->node_id));
    return;
  }
  // A plan input was evicted-and-dropped between planning and consumption
  // (possible under tight budgets when a sibling subtree recycled its
  // buffer).  Recompute it with a nested sub-plan; the child comes back
  // pinned.  With the spill tier on this path is rare: eviction keeps
  // expensive subtrees on disk and the branch above reloads them instead.
  store_.note_recompute();
  tree::Slot* const goals[1] = {child};
  TraversalPlan subplan;
  planner_.build(
      std::span<tree::Slot* const>(goals),
      [this](const tree::Slot* slot) { return slot_valid(slot); }, subplan);
  ++plan_counters_.builds;
  if (metrics_) obs::Registry::instance().add(plan_ids_.builds, 1);
  for (const PlfOp& sub : subplan.ops()) run_plan_op(sub, /*pinning=*/true);
}

void LikelihoodEngine::prefetch_op_inputs(const PlfOp& op) {
  if (op.left_op < 0 && !op.slot->child1()->is_tip() && slot_valid(op.slot->child1())) {
    store_.prefetch(op.slot->child1()->node_id - tree_.taxon_count());
  }
  if (op.right_op < 0 && !op.slot->child2()->is_tip() && slot_valid(op.slot->child2())) {
    store_.prefetch(op.slot->child2()->node_id - tree_.taxon_count());
  }
}

const TraversalPlan* LikelihoodEngine::plan_traversal(tree::Slot* edge) {
  // External executors (partitioned / wavefront / distributed) start their
  // traversal here: open a fresh trust pass so the plan's frontier inputs
  // re-verify once during execution.
  if (sdc_checks_) begin_sdc_pass();
  PlanCacheEntry& entry = plan_entry(edge);
  if (entry.satisfied_epoch != 0 && entry.satisfied_epoch == cla_epoch_) return nullptr;
  return &prepare_entry(entry);
}

void LikelihoodEngine::execute_plan_level(const TraversalPlan& plan, int level) {
  MINIPHI_CHECK(store_.full_resident(),
                "engine: external plan execution requires the full CLA budget "
                "(Config::cla_buffers must cover every inner node)");
  for (const std::int32_t op : plan.level_ops(level)) {
    run_plan_op(plan.ops()[static_cast<std::size_t>(op)], /*pinning=*/false);
  }
}

void LikelihoodEngine::execute_plan_op(const TraversalPlan& plan, std::int32_t op) {
  MINIPHI_CHECK(store_.full_resident(),
                "engine: external plan execution requires the full CLA budget "
                "(Config::cla_buffers must cover every inner node)");
  run_plan_op(plan.ops()[static_cast<std::size_t>(op)], /*pinning=*/false);
}

void LikelihoodEngine::commit_planned_traversal(tree::Slot* edge) {
  PlanCacheEntry& entry = plan_entry(edge);
  entry.built_epoch = cla_epoch_;
  entry.satisfied_epoch = cla_epoch_;
  if (!entry.plan.empty()) {
    ++plan_counters_.executed_plans;
    if (metrics_) {
      obs::Registry& registry = obs::Registry::instance();
      registry.add(plan_ids_.executed_plans, 1);
      registry.observe(plan_ids_.levels, entry.plan.levels());
    }
  }
}

ChildInput LikelihoodEngine::make_child_input(tree::Slot* child, std::span<double> ptable,
                                              std::span<double> ump, double branch_length,
                                              bool verify) {
  build_ptable(model_, branch_length, ptable);
  ChildInput input;
  input.ptable = ptable.data();
  if (child->is_tip()) {
    build_ump(model_, ptable, ump);
    input.codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
    input.ump = ump.data();
  } else {
    MINIPHI_ASSERT(slot_valid(child));
    auto& node = node_cla(child->node_id);
    // Residency before verification: the lazy trust pass reads the buffer.
    ensure_resident_cla(node);
    if (verify) verify_cla(child);
    input.cla = cla_data(node);
    input.scale = scale_data(node);
  }
  return input;
}

std::uint64_t LikelihoodEngine::compute_cla_checksum(NodeCla& node, std::int64_t blocks) {
  sdc::ClaChecksum sum;
  ops_.cla_checksum(sum, cla_data(node), scale_data(node), 0, blocks);
  return sum.finish();
}

void LikelihoodEngine::verify_cla(const tree::Slot* slot) {
  if (!sdc_checks_) return;
  NodeCla& node = node_cla(slot->node_id);
  if (node.verified_pass == sdc_pass_ || node.checked_blocks <= 0) return;
  Timer timer;
  const std::uint64_t actual = compute_cla_checksum(node, node.checked_blocks);
  ++sdc_counters_.checks;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(sdc_ids_.checks, 1);
    registry.observe(sdc_ids_.verify_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  if (actual != node.checksum) {
    report_corruption(slot->node_id, "sdc: CLA checksum mismatch at node " +
                                         std::to_string(slot->node_id));
  }
  node.verified_pass = sdc_pass_;
}

bool LikelihoodEngine::wants_deferred_verify(const tree::Slot* child) {
  if (child->is_tip()) return false;
  NodeCla& node = node_cla(child->node_id);
  return node.checked_blocks > 0 && node.verified_pass != sdc_pass_;
}

void LikelihoodEngine::finish_deferred_verify(const tree::Slot* child,
                                              const sdc::ClaChecksum& sum) {
  NodeCla& node = node_cla(child->node_id);
  ++sdc_counters_.checks;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.checks, 1);
  if (sum.finish() != node.checksum) {
    report_corruption(child->node_id, "sdc: CLA checksum mismatch at node " +
                                          std::to_string(child->node_id));
  }
  node.verified_pass = sdc_pass_;
}

void LikelihoodEngine::report_corruption(int node_id, const std::string& what) {
  ++sdc_counters_.hits;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.hits, 1);
  throw sdc::CorruptionDetected(node_id, what);
}

void LikelihoodEngine::heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt) {
  // The throw unwound mid-traversal: pins taken by execute_plan are still
  // elevated.  Pins are zero between top-level calls, so a flat reset is the
  // correct recovery point before re-planning.  The store's touch epoch is
  // monotonic and survives the reset, so a heal-retry loop cannot thrash a
  // hot CLA back to cold.
  store_.reset_pins();
  if (pre_store_.is_configured()) pre_store_.reset_pins();
  if (attempt + 1 >= sdc::kHealRetryBudget) {
    ++sdc_counters_.escalations;
    if (metrics_) obs::Registry::instance().add(sdc_ids_.escalations, 1);
    throw;  // to the caller's ladder (checkpoint restore in the driver)
  }
  if (fault.node_id() >= 0) {
    // Targeted heal: drop exactly the corrupt CLA; the next traversal plans
    // from the dirty frontier and recomputes only the path to the root.
    invalidate_node(fault.node_id());
  } else {
    // Unlocalized (non-finite sentinel): full sweep, which also forces a
    // fresh rescaling pass over every CLA.
    invalidate_all();
  }
  ++sdc_counters_.heals;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.heals, 1);
}

bool LikelihoodEngine::corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
  if (node_id < tree_.taxon_count()) return false;
  NodeCla& node = node_cla(node_id);
  if (!node.valid || !store_.resident(node.slot)) return false;
  const std::int64_t blocks = node.checked_blocks > 0 ? node.checked_blocks : length_;
  double* buffer = store_.values(node.slot);
  const auto index =
      static_cast<std::size_t>(word % (blocks * kSiteBlock));
  std::uint64_t bits;
  std::memcpy(&bits, buffer + index, sizeof(bits));
  bits ^= 1ULL << (bit & 63);
  std::memcpy(buffer + index, &bits, sizeof(bits));
  node.verified_pass = 0;
  return true;
}

std::uint64_t LikelihoodEngine::repeat_signature(const tree::Slot* child) const {
  if (child->is_tip()) {
    // Tip data never changes: a constant per-taxon tag (high bit keeps tip
    // tags disjoint from the monotonically increasing inner versions).
    return 0x8000000000000000ULL | static_cast<std::uint64_t>(child->node_id);
  }
  const auto& rep = repeats_[static_cast<std::size_t>(child->node_id - tree_.taxon_count())];
  MINIPHI_ASSERT(rep.orientation == child->slot_index);
  return rep.version;
}

std::int64_t LikelihoodEngine::ensure_repeat_classes(tree::Slot* slot) {
  NodeRepeats& rep = repeats_[static_cast<std::size_t>(slot->node_id - tree_.taxon_count())];
  tree::Slot* left = slot->child1();
  tree::Slot* right = slot->child2();
  const std::uint64_t lsig = repeat_signature(left);
  const std::uint64_t rsig = repeat_signature(right);
  if (rep.orientation == slot->slot_index && rep.left_seen == lsig && rep.right_seen == rsig) {
    return rep.unique;  // branch-length and model changes land here: full reuse
  }

  // A site's class is the deduplicated pair (left class, right class), with
  // tip codes standing in for tip children — the LvD subtree-pattern
  // identity.  Children's maps are current: newview runs bottom-up, and a
  // valid child CLA implies a current child map (invalidate_values keeps
  // maps, invalidate_node drops CLA and map together).
  const bio::DnaCode* left_codes = nullptr;
  const std::uint32_t* left_map = nullptr;
  if (left->is_tip()) {
    left_codes = patterns_.tip_rows[static_cast<std::size_t>(left->node_id)].data() + offset_;
  } else {
    left_map = repeats_[static_cast<std::size_t>(left->node_id - tree_.taxon_count())]
                   .class_of_site.data();
  }
  const bio::DnaCode* right_codes = nullptr;
  const std::uint32_t* right_map = nullptr;
  if (right->is_tip()) {
    right_codes = patterns_.tip_rows[static_cast<std::size_t>(right->node_id)].data() + offset_;
  } else {
    right_map = repeats_[static_cast<std::size_t>(right->node_id - tree_.taxon_count())]
                    .class_of_site.data();
  }

  // Open-addressing dedup with epoch stamps: one epoch per build, so the
  // table is never cleared on the hot path.  On the (astronomically rare)
  // 32-bit epoch wraparound, sweep the stamps once.
  if (++repeat_epoch_ == 0) {
    for (auto& entry : repeat_table_) entry.epoch = 0;
    repeat_epoch_ = 1;
  }
  rep.class_of_site.resize(static_cast<std::size_t>(length_));
  rep.left_index.clear();
  rep.right_index.clear();
  const std::size_t mask = repeat_table_.size() - 1;
  std::uint32_t unique = 0;
  for (std::int64_t s = 0; s < length_; ++s) {
    const std::uint32_t lc = (left_codes != nullptr) ? static_cast<std::uint32_t>(left_codes[s])
                                                     : left_map[s];
    const std::uint32_t rc = (right_codes != nullptr)
                                 ? static_cast<std::uint32_t>(right_codes[s])
                                 : right_map[s];
    const std::uint64_t key = (static_cast<std::uint64_t>(lc) << 32) | rc;
    std::size_t probe = static_cast<std::size_t>(mix64(key)) & mask;
    for (;;) {
      RepeatHashEntry& entry = repeat_table_[probe];
      if (entry.epoch != repeat_epoch_) {
        entry.key = key;
        entry.cls = unique;
        entry.epoch = repeat_epoch_;
        rep.left_index.push_back(lc);
        rep.right_index.push_back(rc);
        rep.class_of_site[static_cast<std::size_t>(s)] = unique;
        ++unique;  // class ids in first-appearance order: deterministic
        break;
      }
      if (entry.key == key) {
        rep.class_of_site[static_cast<std::size_t>(s)] = entry.cls;
        break;
      }
      probe = (probe + 1) & mask;
    }
  }
  rep.unique = unique;
  rep.orientation = slot->slot_index;
  rep.left_seen = lsig;
  rep.right_seen = rsig;
  rep.version = ++repeat_version_counter_;  // parents must rebuild against us
  return rep.unique;
}

std::int64_t LikelihoodEngine::node_unique_classes(int node_id) const {
  if (!site_repeats_) return length_;
  if (node_id < tree_.taxon_count()) return 0;
  const auto& rep = repeats_[static_cast<std::size_t>(node_id - tree_.taxon_count())];
  return (rep.orientation >= 0) ? rep.unique : 0;
}

double LikelihoodEngine::unique_site_ratio() const {
  if (!site_repeats_) return 1.0;
  std::int64_t total = 0;
  std::int64_t built = 0;
  for (const auto& rep : repeats_) {
    if (rep.orientation < 0) continue;
    total += rep.unique;
    ++built;
  }
  if (built == 0) return 1.0;
  return static_cast<double>(total) /
         (static_cast<double>(built) * static_cast<double>(length_));
}

void LikelihoodEngine::run_newview(tree::Slot* slot) {
  MINIPHI_ASSERT(!slot->is_tip());
  MINIPHI_ASSERT(slot->child1()->is_tip() || slot_valid(slot->child1()));
  MINIPHI_ASSERT(slot->child2()->is_tip() || slot_valid(slot->child2()));
  auto& parent = node_cla(slot->node_id);

  NewviewCtx ctx;
  ensure_buffer(parent);
  ctx.parent_cla = cla_data(parent);
  ctx.parent_scale = scale_data(parent);
  // Dense serial path: input verification runs chunk by chunk inside the
  // kernel loop below instead of as a separate cold sweep, so defer the
  // make_child_input verification.  The repeat path reads its children
  // through class gathers (not in chunk order) and verifies them up front.
  const bool chunk_verify = sdc_checks_ && !site_repeats_ && !use_openmp_;
  ctx.left = make_child_input(slot->child1(), ptable_left_, ump_left_, slot->next->length,
                              /*verify=*/!chunk_verify);
  ctx.right = make_child_input(slot->child2(), ptable_right_, ump_right_,
                               slot->next->next->length, /*verify=*/!chunk_verify);
  ctx.wtable = wtable_.data();
  // On the repeat path newview iterates parent *classes*, not sites: the
  // children are fetched through the per-class gather maps and the parent
  // CLA holds one block per unique class.
  std::int64_t work = length_;
  if (site_repeats_) {
    work = ensure_repeat_classes(slot);
    NodeRepeats& rep = repeats_[static_cast<std::size_t>(slot->node_id - tree_.taxon_count())];
    ctx.left.gather = rep.left_index.data();
    ctx.right.gather = rep.right_index.data();
  }
  ctx.begin = 0;
  ctx.end = work;
  ctx.tuning = tuning_;

  void (*newview_fn)(NewviewCtx&) = site_repeats_ ? ops_.newview_repeats : ops_.newview;
  sdc::ClaChecksum parent_ck;
  sdc::ClaChecksum left_ck;
  sdc::ClaChecksum right_ck;
  const bool check_left = chunk_verify && wants_deferred_verify(slot->child1());
  const bool check_right = chunk_verify && wants_deferred_verify(slot->child2());
  // The buffer is overwritten incrementally: if a deferred verification
  // unwinds below, the old contents are gone, so the node must not keep
  // advertising its previous commit as valid.
  parent.valid = false;
  auto& stat = stats_.kernel(Kernel::kNewview);
  Timer timer;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (work + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(work, chunk * thread);
      ctx.end = std::min<std::int64_t>(work, ctx.begin + chunk);
      if (ctx.begin < ctx.end) newview_fn(ctx);
    }
#else
    newview_fn(ctx);
#endif
    if (sdc_checks_) ops_.cla_checksum(parent_ck, ctx.parent_cla, ctx.parent_scale, 0, work);
  } else {
    // The one serial execution path (DESIGN.md §10): kSdcChunkSites-block
    // chunks over sites, or over parent classes on the repeat path.  The
    // optional prologue folds each not-yet-trusted child chunk an instant
    // before the kernel pulls the same cache lines (the sweep doubles as a
    // prefetch); the optional epilogue folds the parent chunk while its
    // stores are still cache resident.  The kernels have no cross-site
    // state and the checksum splits exactly, so every chunking is
    // bit-identical to one full-range call.
    for (std::int64_t b = 0; b < work; b += kSdcChunkSites) {
      const std::int64_t e = std::min(work, b + kSdcChunkSites);
      if (check_left) ops_.cla_checksum(left_ck, ctx.left.cla, ctx.left.scale, b, e);
      if (check_right) ops_.cla_checksum(right_ck, ctx.right.cla, ctx.right.scale, b, e);
      ctx.begin = b;
      ctx.end = e;
      newview_fn(ctx);
      if (sdc_checks_) ops_.cla_checksum(parent_ck, ctx.parent_cla, ctx.parent_scale, b, e);
    }
  }
  const double elapsed = timer.seconds();
  // CLA traffic: one parent block written per computed site/class plus one
  // block read per non-tip child (tips read the tiny per-code tables).
  const std::int64_t cla_blocks =
      work * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1));
  const std::int64_t cla_bytes = cla_blocks * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += work;  // cost-model honesty: only the classes actually computed
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (metrics_) {
    publish_kernel(metric_ids_.kernels[static_cast<std::size_t>(
                       static_cast<int>(Kernel::kNewview))],
                   work, length_, cla_bytes, elapsed);
    // Scaling events of *this* call: the kernel writes each parent scale as
    // the children's propagated counts plus 1 for a fresh underflow, so the
    // fresh count is the parent sum minus the gathered child sums.  Only
    // worth the O(work) sweep when metrics are on; the kernels themselves
    // report nothing.
    const std::int32_t* parent_scale = ctx.parent_scale;
    std::int64_t parent_sum = 0;
    for (std::int64_t i = 0; i < work; ++i) parent_sum += parent_scale[i];
    std::int64_t fresh = parent_sum;
    // Scale counts are non-negative, so a zero parent sum means nothing was
    // inherited either — the gather pass (the expensive part on the repeat
    // path) only runs when scaling actually happened somewhere below.
    if (parent_sum != 0 && !(ctx.left.is_tip() && ctx.right.is_tip())) {
      std::int64_t inherited = 0;
      for (std::int64_t i = 0; i < work; ++i) {
        if (!ctx.left.is_tip()) {
          inherited += ctx.left.scale[ctx.left.gather != nullptr ? ctx.left.gather[i] : i];
        }
        if (!ctx.right.is_tip()) {
          inherited += ctx.right.scale[ctx.right.gather != nullptr ? ctx.right.gather[i] : i];
        }
      }
      fresh = parent_sum - inherited;
    }
    stats_.scaling_events += fresh;
    obs::Registry::instance().add(metric_ids_.scaling_events, fresh);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kNewview, slot->child1()->is_tip(), slot->child2()->is_tip(),
                   work, length_);
  }

  // Deferred input verification: a mismatch must unwind before the parent
  // is committed, so a heal retry recomputes both nodes.
  if (check_left) finish_deferred_verify(slot->child1(), left_ck);
  if (check_right) finish_deferred_verify(slot->child2(), right_ck);

  parent.orientation = slot->slot_index;
  parent.valid = true;
  if (sdc_checks_) {
    parent.checksum = parent_ck.finish();
    parent.checked_blocks = work;
    // Freshly computed ⇒ trusted for the rest of this pass.
    parent.verified_pass = sdc_pass_;
  }
  sum_prepared_ = false;
  // A newview can flip an inner CLA's orientation, silently invalidating it
  // for the opposite direction — cached plans keyed on other edges must not
  // treat this node as a resident input anymore.
  note_cla_state_changed();
}


double LikelihoodEngine::run_evaluate(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  MINIPHI_ASSERT(q != nullptr);
  // The kernel requires the left side to be an inner CLA.
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");

  EvaluateCtx ctx;
  auto& left = node_cla(p->node_id);
  MINIPHI_ASSERT(slot_valid(p));
  ensure_resident_cla(left);  // both endpoints are pinned by validate_edge
  verify_cla(p);
  ctx.left_cla = cla_data(left);
  ctx.left_scale = scale_data(left);
  build_diag(model_, edge->length, diag_);
  if (q->is_tip()) {
    build_evtab(diag_, tipvec16_, evtab_);
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.evtab = evtab_.data();
  } else {
    MINIPHI_ASSERT(slot_valid(q));
    auto& right = node_cla(q->node_id);
    ensure_resident_cla(right);
    verify_cla(q);
    ctx.right_cla = cla_data(right);
    ctx.right_scale = scale_data(right);
    ctx.diag = diag_.data();
  }
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.begin = 0;
  ctx.end = length_;
  // Repeat path: the endpoint CLAs are class-compressed, so the per-site
  // loop fetches each block through the node's site → class map.
  if (site_repeats_) {
    const NodeRepeats& prep =
        repeats_[static_cast<std::size_t>(p->node_id - tree_.taxon_count())];
    MINIPHI_ASSERT(prep.orientation == p->slot_index);
    ctx.left_gather = prep.class_of_site.data();
    if (!q->is_tip()) {
      const NodeRepeats& qrep =
          repeats_[static_cast<std::size_t>(q->node_id - tree_.taxon_count())];
      MINIPHI_ASSERT(qrep.orientation == q->slot_index);
      ctx.right_gather = qrep.class_of_site.data();
    }
  }
  double (*evaluate_fn)(const EvaluateCtx&) =
      site_repeats_ ? ops_.evaluate_gather : ops_.evaluate;

  auto& stat = stats_.kernel(Kernel::kEvaluate);
  Timer timer;
  double result = 0.0;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx) reduction(+ : result)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) result += evaluate_fn(ctx);
    }
#else
    result = evaluate_fn(ctx);
#endif
  } else {
    result = evaluate_fn(ctx);
  }
  const double elapsed = timer.seconds();
  const std::int64_t cla_bytes = length_ * (q->is_tip() ? 1 : 2) * kSiteBlock *
                                 static_cast<std::int64_t>(sizeof(double));
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (metrics_) {
    publish_kernel(
        metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kEvaluate))],
        length_, length_, cla_bytes, elapsed);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kEvaluate, false, q->is_tip(), length_);
  }
  return result;
}

double LikelihoodEngine::log_likelihood(tree::Slot* edge) {
  MINIPHI_ASSERT(edge != nullptr && edge->back != nullptr);
  if (!sdc_checks_) {
    try {
      validate_edge(edge);
      const double result = run_evaluate(edge);
      unpin(edge->node_id);
      unpin(edge->back->node_id);
      return result;
    } catch (const CancelledError&) {
      // A cancellation mid-traversal unwinds with pins elevated; drop them
      // so the engine stays reusable (DESIGN.md §15 containment).
      release_pins();
      throw;
    }
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      validate_edge(edge);
      const double result = run_evaluate(edge);
      unpin(edge->node_id);
      unpin(edge->back->node_id);
      if (!std::isfinite(result)) {
        report_corruption(-1, "sdc: non-finite log-likelihood from evaluate");
      }
      return result;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    } catch (const CancelledError&) {
      release_pins();
      throw;
    }
  }
}

void LikelihoodEngine::prepare_derivatives(tree::Slot* edge) {
  if (!sdc_checks_) {
    try {
      run_prepare_derivatives(edge);
    } catch (const CancelledError&) {
      release_pins();
      throw;
    }
    return;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      run_prepare_derivatives(edge);
      return;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    } catch (const CancelledError&) {
      release_pins();
      throw;
    }
  }
}

void LikelihoodEngine::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");

  validate_edge(edge);

  SumCtx ctx;
  // Same arrangement as run_newview: on the dense serial path untrusted
  // endpoint CLAs verify chunk-interleaved with the kernel below instead of
  // as up-front cold sweeps.
  const bool chunk_verify = sdc_checks_ && !site_repeats_ && !use_openmp_;
  auto& left = node_cla(p->node_id);
  ensure_resident_cla(left);  // both endpoints are pinned by validate_edge
  if (!chunk_verify) verify_cla(p);
  ctx.left_cla = cla_data(left);
  const std::int32_t* p_scale = scale_data(left);
  const std::int32_t* q_scale = nullptr;
  if (q->is_tip()) {
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.tipvec16 = tipvec16_.data();
  } else {
    auto& right = node_cla(q->node_id);
    ensure_resident_cla(right);
    if (!chunk_verify) verify_cla(q);
    ctx.right_cla = cla_data(right);
    q_scale = scale_data(right);
  }
  ctx.sum = sum_buffer_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;
  // Repeat path: gather the class-compressed CLA blocks per site.  The sum
  // buffer itself stays site-indexed so derivativeCore is unchanged.
  if (site_repeats_) {
    const NodeRepeats& prep =
        repeats_[static_cast<std::size_t>(p->node_id - tree_.taxon_count())];
    MINIPHI_ASSERT(prep.orientation == p->slot_index);
    ctx.left_gather = prep.class_of_site.data();
    if (!q->is_tip()) {
      const NodeRepeats& qrep =
          repeats_[static_cast<std::size_t>(q->node_id - tree_.taxon_count())];
      MINIPHI_ASSERT(qrep.orientation == q->slot_index);
      ctx.right_gather = qrep.class_of_site.data();
    }
  }
  void (*sum_fn)(SumCtx&) = site_repeats_ ? ops_.derivative_sum_gather : ops_.derivative_sum;

  sdc::ClaChecksum p_sum;
  sdc::ClaChecksum q_sum;
  const bool check_p = chunk_verify && wants_deferred_verify(p);
  const bool check_q = chunk_verify && !q->is_tip() && wants_deferred_verify(q);

  auto& stat = stats_.kernel(Kernel::kDerivSum);
  Timer timer;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) sum_fn(ctx);
    }
#else
    sum_fn(ctx);
#endif
  } else {
    // The run_newview chunk loop: each untrusted endpoint chunk is
    // checksummed the instant before the kernel pulls it through the cache.
    // The sum buffer itself is transient and not checksummed
    // (derivativeCore's non-finite sentinel covers it), so it has no
    // epilogue.
    for (std::int64_t b = 0; b < length_; b += kSdcChunkSites) {
      const std::int64_t e = std::min(length_, b + kSdcChunkSites);
      if (check_p) ops_.cla_checksum(p_sum, ctx.left_cla, p_scale, b, e);
      if (check_q) ops_.cla_checksum(q_sum, ctx.right_cla, q_scale, b, e);
      ctx.begin = b;
      ctx.end = e;
      sum_fn(ctx);
    }
  }
  {
    const double elapsed = timer.seconds();
    // Reads one block per non-tip endpoint, writes the site-indexed sum.
    const std::int64_t cla_bytes = length_ * (q->is_tip() ? 2 : 3) * kSiteBlock *
                                   static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (metrics_) {
      publish_kernel(
          metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivSum))],
          length_, length_, cla_bytes, elapsed);
    }
  }
  if (check_p) finish_deferred_verify(p, p_sum);
  if (check_q) finish_deferred_verify(q, q_sum);
  unpin(p->node_id);
  unpin(q->node_id);
  sum_left_tip_ = false;
  sum_right_tip_ = q->is_tip();
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kDerivSum, sum_left_tip_, sum_right_tip_, length_);
  }
  sum_prepared_ = true;
}

std::pair<double, double> LikelihoodEngine::derivatives(double z) {
  double lnl_unused = 0.0;
  return run_derivatives(z, /*want_lnl=*/false, lnl_unused);
}

std::pair<double, double> LikelihoodEngine::run_derivatives(double z, bool want_lnl,
                                                            double& lnl_out) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  build_dtab(model_, z, dtab_);

  DerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.want_lnl = want_lnl;

  auto& stat = stats_.kernel(Kernel::kDerivCore);
  Timer timer;
  double first = 0.0;
  double second = 0.0;
  double lnl = 0.0;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx) reduction(+ : first, second, lnl)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) {
        ops_.derivative_core(ctx);
        first += ctx.out_first;
        second += ctx.out_second;
        lnl += ctx.out_lnl;
      }
    }
#else
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
    lnl = ctx.out_lnl;
#endif
  } else {
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
    lnl = ctx.out_lnl;
  }
  lnl_out = lnl;
  const double elapsed = timer.seconds();
  const std::int64_t cla_bytes =
      length_ * kSiteBlock * static_cast<std::int64_t>(sizeof(double));  // sum-buffer reads
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (metrics_) {
    publish_kernel(
        metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivCore))],
        length_, length_, cla_bytes, elapsed);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kDerivCore, sum_left_tip_, sum_right_tip_, length_);
  }
  if (sdc_checks_ && (!std::isfinite(first) || !std::isfinite(second))) {
    // The sum buffer is not checksummed (it is transient); a non-finite
    // derivative is the sentinel.  optimize_branch heals by re-preparing.
    report_corruption(-1, "sdc: non-finite derivative from derivativeCore");
  }
  return {first, second};
}

double LikelihoodEngine::newton_step(double z, double first, double second) {
  double next;
  if (second < 0.0) {
    next = z - first / second;
  } else {
    // Not locally concave: move in the uphill direction geometrically.
    next = (first > 0.0) ? z * 4.0 : z * 0.25;
  }
  return std::clamp(next, kMinBranchLength, kMaxBranchLength);
}

double LikelihoodEngine::optimize_branch(tree::Slot* edge, int max_iterations) {
  for (int attempt = 0;; ++attempt) {
    // prepare_derivatives runs its own checksum heal loop; an escalation
    // from it propagates past this loop instead of doubling the budget.
    prepare_derivatives(edge);
    try {
      const double z0 = edge->length;
      double z = z0;
      double lnl0 = 0.0;
      for (int iteration = 0; iteration < max_iterations; ++iteration) {
        // Project the log-likelihood at the starting length on the first
        // iteration: it is the baseline the final iterate must beat.
        double lnl = 0.0;
        const auto [first, second] = run_derivatives(z, /*want_lnl=*/iteration == 0, lnl);
        if (iteration == 0) lnl0 = lnl;
        const double next = newton_step(z, first, second);
        const bool converged = std::abs(next - z) < 1e-10;
        z = next;
        if (converged) break;
      }
      if (z != z0) {
        // The geometric fallback in newton_step (second ≥ 0) moves along the
        // gradient's sign but has no step-size control, and a diverging
        // Newton sequence can end anywhere: committing the final iterate
        // unguarded could *lower* the likelihood.  The projection shares the
        // prepared sum buffer, so the guard costs one derivativeCore call —
        // no traversal.  `!(≥)` also rejects a NaN projection.
        double lnl_final = 0.0;
        run_derivatives(z, /*want_lnl=*/true, lnl_final);
        if (!(lnl_final >= lnl0)) z = z0;
      }
      tree::Tree::set_length(edge, z);
      // Branch-length-only change: CLA values are stale, repeat classes are not.
      invalidate_branch(edge->node_id);
      invalidate_branch(edge->back->node_id);
      return z;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

double LikelihoodEngine::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge);
    }
  }
  return log_likelihood(root_edge);
}

bool LikelihoodEngine::gradient_all_branches(tree::Slot* root_edge,
                                             std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  if (!sdc_checks_) {
    try {
      run_gradient_all_branches(root_edge, out);
    } catch (const CancelledError&) {
      release_pins();
      throw;
    }
    return true;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      run_gradient_all_branches(root_edge, out);
      return true;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    } catch (const CancelledError&) {
      release_pins();
      throw;
    }
  }
}

void LikelihoodEngine::run_gradient_all_branches(tree::Slot* root_edge,
                                                 std::vector<BranchGradient>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(tree_.edge_count()));
  if (pre_clas_.empty()) pre_clas_.resize(static_cast<std::size_t>(tree_.node_count()));
  if (!pre_store_.is_configured()) {
    // Preorder tier (lazily sized on the first gradient call): one slot per
    // node, tips included.  This tier *always* spills on eviction — an outer
    // partial, unlike a postorder CLA, cannot be recomputed from a subtree —
    // which is what lets the descent run on any CLA budget instead of
    // declining under tight ones.  On the full budget every partial stays
    // resident and the spill file is never created.
    memory::ClaStoreConfig pre_config;
    pre_config.slots = tree_.node_count();
    pre_config.resident =
        store_.full_resident()
            ? tree_.node_count()
            : std::min(tree_.node_count(), std::max(4, store_.resident_count()));
    pre_config.values = length_ * kSiteBlock;
    pre_config.scales = length_;
    pre_config.spill = true;
    pre_config.spill_min_registers = 0;  // rebuild is impossible: always spill
    pre_config.spill_dir = cla_spill_dir_;
    pre_config.node_id_base = 0;  // preorder slots are node ids already
    pre_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
    pre_store_.configure(std::move(pre_config));
  }
  if (site_repeats_ && identity_gather_.empty()) {
    identity_gather_.resize(static_cast<std::size_t>(length_));
    for (std::int64_t s = 0; s < length_; ++s) {
      identity_gather_[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(s);
    }
  }

  // Root edge first: the classic two-endpoint protocol.  Its validate_edge
  // also orients every postorder CLA toward the root edge — exactly the
  // orientation the descent's sibling inputs need.
  run_prepare_derivatives(root_edge);
  double root_lnl_unused = 0.0;
  const auto [root_first, root_second] =
      run_derivatives(root_edge->length, /*want_lnl=*/false, root_lnl_unused);
  out.push_back({root_edge, root_edge->length, root_first, root_second});

  // The descent's reload/rebuild pattern is not the postorder plan the store
  // last saw; open a fresh (empty) plan window so stale next-use hints do
  // not skew eviction toward the wrong victims.
  store_.begin_plan();

  // Root-to-tips descent.  Ops are emitted parents-first, so emission order
  // is a valid schedule; it is also the only schedule used — the pass is
  // deliberately serial so the per-edge results are bit-identical no matter
  // how the postorder CLAs were produced (per-node, wavefront or distributed
  // execution all commit the same buffers).
  TraversalPlanner::build_preorder(root_edge, preorder_plan_);
  for (const PlfOp& op : preorder_plan_.ops()) {
    check_cancel();  // per-op boundary: preorder descent has no levels
    run_preorder_op(preorder_plan_, op, out);
  }
  // The descent reused the sum buffer for its per-edge contractions.
  sum_prepared_ = false;
}

void LikelihoodEngine::run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                                       std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(op.kind == PlfOpKind::kPreorder);
  tree::Slot* toward = op.slot;       // parent's half-edge toward the node
  tree::Slot* v_slot = toward->back;  // the node's half-edge back up
  const int v = op.node_id;
  MINIPHI_ASSERT(v == v_slot->node_id);
  MINIPHI_ASSERT(v >= 0 && v < tree_.node_count());

  PreorderCla& pre = pre_clas_[static_cast<std::size_t>(v)];
  // The node's preorder partial lives in the preorder tier (slot == node
  // id).  Write-acquire and pin it for the whole op: newview fills it and
  // the gradient contraction below reads it back.
  pre_store_.acquire(v);
  pre_store_.pin(v);

  NewviewCtx ctx;
  ctx.parent_cla = pre_store_.values(v);
  ctx.parent_scale = pre_store_.scales(v);
  ctx.wtable = wtable_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  // Left input: the context flowing down from above — the parent's preorder
  // partial across the parent's own parent edge, or (seed op) the opposite
  // root-edge endpoint across the root edge.
  tree::Slot* left_inner_post = nullptr;  // inner postorder slot on the left, if any
  bool left_dense = false;                // left CLA is site-indexed (a preorder partial)
  int pinned_pre_parent = -1;             // preorder-tier pin to release after newview
  tree::Slot* pinned_left_post = nullptr; // postorder pins likewise
  tree::Slot* root_slot = nullptr;        // seed ops only
  tree::Slot* opposite = nullptr;
  tree::Slot* sib = op.sibling->back;  // right input: the sibling's postorder side
  if (op.left_op < 0) {
    // The root slot at this endpoint is the ring slot that is neither the
    // op's own slot nor the sibling.
    root_slot = (toward->next == op.sibling) ? toward->next->next : toward->next;
    opposite = root_slot->back;
  }
  // Ready (pin + reload or rebuild) every postorder input *before* building
  // any kernel context: under a tight budget ready_child may recompute a
  // dropped CLA through run_newview, which rebuilds through the very
  // ptable/ump workspaces the contexts below point into.
  if (opposite != nullptr) {
    ready_child(opposite, /*computed_in_plan=*/false);
    pinned_left_post = opposite;
  }
  ready_child(sib, /*computed_in_plan=*/false);
  if (op.left_op >= 0) {
    const PlfOp& above = plan.ops()[static_cast<std::size_t>(op.left_op)];
    const int u = toward->node_id;
    // The parent's preorder partial may have been evicted to the spill tier
    // since it was computed; pin before the reload so the sibling's own
    // residency work cannot displace it.
    pre_store_.pin(u);
    pinned_pre_parent = u;
    if (pre_store_.ensure_resident(u) == memory::Residency::kReloaded) {
      pre_clas_[static_cast<std::size_t>(u)].verified_pass = 0;
    }
    verify_preorder_cla(u);
    build_ptable(model_, above.slot->length, ptable_left_);
    ctx.left.ptable = ptable_left_.data();
    ctx.left.cla = pre_store_.values(u);
    ctx.left.scale = pre_store_.scales(u);
    left_dense = true;
  } else {
    ctx.left =
        make_child_input(opposite, ptable_left_, ump_left_, root_slot->length, /*verify=*/true);
    if (!opposite->is_tip()) left_inner_post = opposite;
  }
  ctx.right = make_child_input(sib, ptable_right_, ump_right_, op.sibling->length,
                               /*verify=*/true);

  // Gathers are only needed when a class-compressed postorder CLA
  // participates; preorder partials and tip code rows stay site-indexed.
  const bool gather = site_repeats_ && (left_inner_post != nullptr || !sib->is_tip());
  if (gather) {
    const auto class_map = [this](const tree::Slot* s) -> const std::uint32_t* {
      const NodeRepeats& rep =
          repeats_[static_cast<std::size_t>(s->node_id - tree_.taxon_count())];
      MINIPHI_ASSERT(rep.orientation == s->slot_index);
      return rep.class_of_site.data();
    };
    // newview_repeats reads tip codes through the gather field, so a
    // site-indexed tip row must be widened to uint32 when the *other* side
    // forces the gather path (only seed ops can hit this: cost O(sites),
    // at most twice per descent).
    const auto code_map = [this](const ChildInput& side,
                                 std::vector<std::uint32_t>& scratch) -> const std::uint32_t* {
      scratch.resize(static_cast<std::size_t>(length_));
      for (std::int64_t s = 0; s < length_; ++s) {
        scratch[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(side.codes[s]);
      }
      return scratch.data();
    };
    if (left_dense) {
      ctx.left.gather = identity_gather_.data();
    } else if (left_inner_post != nullptr) {
      ctx.left.gather = class_map(left_inner_post);
    } else {
      ctx.left.gather = code_map(ctx.left, code_gather_left_);
    }
    ctx.right.gather = sib->is_tip() ? code_map(ctx.right, code_gather_right_) : class_map(sib);
  }

  void (*newview_fn)(NewviewCtx&) = gather ? ops_.newview_repeats : ops_.newview;
  {
    auto& stat = stats_.kernel(Kernel::kNewview);
    Timer timer;
    newview_fn(ctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_blocks =
        length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1));
    const std::int64_t cla_bytes =
        cla_blocks * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (metrics_) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kNewview))],
          length_, length_, cla_bytes, elapsed);
    }
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kNewview, ctx.left.is_tip(), ctx.right.is_tip(), length_,
                   length_);
  }
  // The newview inputs are consumed; release their pins before the gradient
  // contraction pulls in the node's own postorder side.
  if (pinned_pre_parent >= 0) pre_store_.unpin(pinned_pre_parent);
  if (pinned_left_post != nullptr) unpin(pinned_left_post->node_id);
  unpin(sib->node_id);
  if (sdc_checks_) {
    sdc::ClaChecksum sum;
    ops_.cla_checksum(sum, ctx.parent_cla, ctx.parent_scale, 0, length_);
    pre.checksum = sum.finish();
    pre.checked_blocks = length_;
    // Deliberately NOT trusted-for-this-pass: see verify_preorder_cla.
    pre.verified_pass = 0;
  }

  // Gradient of the edge above the node: derivativeSum contracts the fresh
  // preorder partial against the node's own postorder side, derivativeCore
  // evaluates ℓ'/ℓ'' at the edge's current length.
  SumCtx sctx;
  sctx.sum = sum_buffer_.data();
  sctx.left_cla = ctx.parent_cla;
  sctx.begin = 0;
  sctx.end = length_;
  sctx.tuning = tuning_;
  void (*sum_fn)(SumCtx&) = ops_.derivative_sum;
  bool right_tip = v_slot->is_tip();
  if (right_tip) {
    sctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(v)].data() + offset_;
    sctx.tipvec16 = tipvec16_.data();
  } else {
    // The node's own postorder CLA: reload or rebuild it like any other
    // tight-budget input (pinned until the contraction is done).
    ready_child(v_slot, /*computed_in_plan=*/false);
    verify_cla(v_slot);
    auto& node = node_cla(v);
    sctx.right_cla = cla_data(node);
    if (site_repeats_) {
      const NodeRepeats& rep = repeats_[static_cast<std::size_t>(v - tree_.taxon_count())];
      MINIPHI_ASSERT(rep.orientation == v_slot->slot_index);
      sctx.left_gather = identity_gather_.data();
      sctx.right_gather = rep.class_of_site.data();
      sum_fn = ops_.derivative_sum_gather;
    }
  }
  {
    auto& stat = stats_.kernel(Kernel::kDerivSum);
    Timer timer;
    sum_fn(sctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_bytes = length_ * (right_tip ? 2 : 3) * kSiteBlock *
                                   static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (metrics_) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivSum))],
          length_, length_, cla_bytes, elapsed);
    }
    if (trace_ != nullptr) {
      trace_->record(TraceKernel::kDerivSum, false, right_tip, length_);
    }
  }
  // The contraction is done with both CLAs; derivativeCore below reads only
  // the sum buffer.
  if (!right_tip) unpin(v);
  pre_store_.unpin(v);

  build_dtab(model_, toward->length, dtab_);
  DerivCtx dctx;
  dctx.sum = sum_buffer_.data();
  dctx.weights = patterns_.weights.data() + offset_;
  dctx.dtab = dtab_.data();
  dctx.begin = 0;
  dctx.end = length_;
  {
    auto& stat = stats_.kernel(Kernel::kDerivCore);
    Timer timer;
    ops_.derivative_core(dctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_bytes =
        length_ * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (metrics_) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivCore))],
          length_, length_, cla_bytes, elapsed);
    }
    if (trace_ != nullptr) {
      trace_->record(TraceKernel::kDerivCore, false, right_tip, length_);
    }
  }
  if (sdc_checks_ && (!std::isfinite(dctx.out_first) || !std::isfinite(dctx.out_second))) {
    report_corruption(-1, "sdc: non-finite all-branch gradient from derivativeCore");
  }
  out.push_back({toward, toward->length, dctx.out_first, dctx.out_second});
}

void LikelihoodEngine::verify_preorder_cla(int node_id) {
  if (!sdc_checks_) return;
  PreorderCla& pre = pre_clas_[static_cast<std::size_t>(node_id)];
  if (pre.verified_pass == sdc_pass_ || pre.checked_blocks <= 0) return;
  Timer timer;
  sdc::ClaChecksum sum;
  // Callers pin the partial resident before verifying it.
  ops_.cla_checksum(sum, pre_store_.values(node_id), pre_store_.scales(node_id), 0,
                    pre.checked_blocks);
  ++sdc_counters_.checks;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(sdc_ids_.checks, 1);
    registry.observe(sdc_ids_.verify_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  if (sum.finish() != pre.checksum) {
    // Preorder partials are transient (rebuilt every descent), so no single
    // postorder CLA is implicated: heal with the full sweep.
    report_corruption(-1, "sdc: preorder partial checksum mismatch at node " +
                              std::to_string(node_id));
  }
  pre.verified_pass = sdc_pass_;
}

void LikelihoodEngine::reset_stats() { stats_ = EvalStats{}; }

}  // namespace miniphi::core
