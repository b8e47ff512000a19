#include "src/core/engine_core.hpp"

#include <algorithm>
#include <cstring>

#include "src/obs/span_trace.hpp"
#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {

void EngineCore::configure(const EngineConfig& config, std::int64_t length, std::int64_t block,
                           const std::string& who) {
  taxa_ = tree_.taxon_count();
  length_ = length;
  block_ = block;
  sdc_checks_ = config.sdc_checks;
  cancel_ = config.cancel;
  trace_ = config.trace;
  if (obs::kMetricsCompiled && config.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    plan_cache_.enable_metrics();
    sdc_ids_ = sdc::register_metrics();
  }

  const int inner_count = tree_.inner_count();
  memory::ClaStoreConfig store_config;
  if (config.cla_budget_bytes > 0) {
    // The store caps the bytes it holds, so class-sized buffers fit far
    // more CLAs than full-width ones; the floor is counted in full-width
    // buffers, the widest a traversal may need at once.
    const std::int64_t full_width_bytes = full_width_cla_bytes(length, block);
    const int floor_buffers = min_cla_buffers(inner_count);
    MINIPHI_CHECK(config.cla_budget_bytes >= floor_buffers * full_width_bytes,
                  who + ": cla_budget_bytes cannot fit the minimum working set (" +
                      std::to_string(floor_buffers) + " CLA buffers of " +
                      std::to_string(full_width_bytes) + " bytes each)");
    store_config.budget_bytes = config.cla_budget_bytes;
  }
  clas_.resize(static_cast<std::size_t>(inner_count));

  // Tiered CLA storage (DESIGN.md §14): the store owns the resident
  // buffers, the pin table, the monotonic LRU epoch, and the
  // recompute-vs-spill policy.  When an eviction drops a CLA (no spill), the
  // callback marks the node invalid so the next traversal recomputes it —
  // the eviction side of the Izquierdo-Carrasco trade-off.
  store_config.slots = inner_count;
  store_config.values = length * block;
  store_config.scales = length;
  store_config.spill = config.cla_spill;
  store_config.spill_dir = config.cla_spill_dir;
  store_config.node_id_base = taxa_;
  store_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  store_config.on_drop = [this](int slot) {
    clas_[static_cast<std::size_t>(slot)].valid = false;
    note_cla_state_changed();
  };
  store_.configure(std::move(store_config));
}

void EngineCore::register_kernel_metrics(simd::Isa isa, const char* path,
                                         const char* preorder_path) {
  if (!metrics_) return;
  metric_ids_ = register_engine_metrics(isa, path);
  pre_metric_ids_ = register_engine_metrics(isa, preorder_path);
}

static_assert(static_cast<int>(TraceKernel::kNewview) == static_cast<int>(Kernel::kNewview) &&
                  static_cast<int>(TraceKernel::kDerivCore) == static_cast<int>(Kernel::kDerivCore),
              "TraceKernel is numbered like Kernel");

void EngineCore::account_kernel(Kernel kernel, bool preorder, std::int64_t sites, double seconds,
                                bool left_tip, bool right_tip) {
  if (kernel == Kernel::kDerivSum) sum_right_tip_ = right_tip;
  // CLA traffic per computed block: one block read per non-tip input (tips
  // read the tiny per-code tables), plus the block newview writes and the
  // sum-buffer block derivativeSum writes; derivativeCore reads the sum.
  std::int64_t blocks = 1;
  if (kernel == Kernel::kDerivCore) {
    right_tip = sum_right_tip_;
  } else {
    blocks = (left_tip ? 0 : 1) + (right_tip ? 0 : 1) + (kernel == Kernel::kEvaluate ? 0 : 1);
  }
  const std::int64_t cla_bytes =
      sites * blocks * block_ * static_cast<std::int64_t>(sizeof(double));
  KernelStat& stat = stats_.kernel(kernel);
  stat.seconds += seconds;
  ++stat.calls;
  stat.sites += sites;  // cost-model honesty: only the blocks actually computed
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (metrics_) {
    const EngineMetricIds& ids = preorder ? pre_metric_ids_ : metric_ids_;
    publish_kernel(ids.kernels[static_cast<std::size_t>(static_cast<int>(kernel))], sites,
                   length_, cla_bytes, seconds);
  }
  if (trace_ != nullptr) {
    trace_->record(static_cast<TraceKernel>(kernel), left_tip, right_tip, sites, length_);
  }
}

void EngineCore::account_scaling_events(std::int64_t fresh) {
  stats_.scaling_events += fresh;
  obs::Registry::instance().add(metric_ids_.scaling_events, fresh);
}

void EngineCore::invalidate_node(int node_id) {
  if (node_id < taxa_) return;  // tips have no CLA
  clas_[inner(node_id)].valid = false;
  // Free the resident buffer and any spill record eagerly: eviction must
  // never waste a disk write on a CLA that is already dead.
  store_.drop(node_id - taxa_);
  note_cla_state_changed();
  sum_prepared_ = false;
}

void EngineCore::invalidate_all() {
  for (auto& node : clas_) node.valid = false;
  store_.drop_all();  // spilled copies are stale too
  note_cla_state_changed();
  sum_prepared_ = false;
}

void EngineCore::commit_cla(tree::Slot* slot, std::int64_t blocks, const sdc::ClaChecksum* sum) {
  ClaState& node = clas_[inner(slot->node_id)];
  node.orientation = slot->slot_index;
  node.valid = true;
  if (sdc_checks_) {
    node.checksum = (sum != nullptr)
                        ? sum->finish()
                        : checksum_of(values(slot->node_id), scales(slot->node_id), blocks);
    node.checked_blocks = blocks;
    // Freshly computed ⇒ trusted for the rest of this pass.
    node.verified_pass = sdc_pass_;
  }
  // A newview can flip an inner CLA's orientation, silently invalidating it
  // for the opposite direction — cached plans keyed on other edges must not
  // treat this node as a resident input anymore.
  note_cla_state_changed();
  sum_prepared_ = false;
}

void EngineCore::ensure_resident_cla(int node_id) {
  ClaState& node = clas_[inner(node_id)];
  MINIPHI_ASSERT(node.valid);
  if (store_.ensure_resident(node_id - taxa_) == memory::Residency::kReloaded) {
    // The reload verified the spill checksum, but spilled state re-earns
    // trust exactly like resident state: restart the lazy trust pass.
    node.verified_pass = 0;
  }
}

void EngineCore::resident_input(const tree::Slot* slot, bool verify) {
  MINIPHI_ASSERT(slot_valid(slot));
  // Residency before verification: the lazy trust pass reads the buffer.
  ensure_resident_cla(slot->node_id);
  if (verify) verify_cla(slot);
}

std::uint64_t EngineCore::checksum_of(const double* values, const std::int32_t* scales,
                                      std::int64_t blocks) {
  sdc::ClaChecksum sum;
  family_.fold_checksum(sum, values, scales, 0, blocks);
  return sum.finish();
}

void EngineCore::verify_against(ClaState& state, const double* values,
                                const std::int32_t* scales, int fault_node,
                                const std::string& what) {
  Timer timer;
  const std::uint64_t actual = checksum_of(values, scales, state.checked_blocks);
  ++sdc_counters_.checks;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(sdc_ids_.checks, 1);
    registry.observe(sdc_ids_.verify_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  if (actual != state.checksum) report_corruption(fault_node, what);
  state.verified_pass = sdc_pass_;
}

void EngineCore::verify_cla(const tree::Slot* slot) {
  if (!sdc_checks_) return;
  ClaState& node = clas_[inner(slot->node_id)];
  if (node.verified_pass == sdc_pass_ || node.checked_blocks <= 0) return;
  verify_against(node, values(slot->node_id), scales(slot->node_id), slot->node_id,
                 "sdc: CLA checksum mismatch at node " + std::to_string(slot->node_id));
}

bool EngineCore::wants_deferred_verify(const tree::Slot* child) const {
  if (child->is_tip()) return false;
  const ClaState& node = clas_[inner(child->node_id)];
  return node.checked_blocks > 0 && node.verified_pass != sdc_pass_;
}

void EngineCore::finish_deferred_verify(const tree::Slot* child, const sdc::ClaChecksum& sum) {
  ClaState& node = clas_[inner(child->node_id)];
  ++sdc_counters_.checks;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.checks, 1);
  if (sum.finish() != node.checksum) {
    report_corruption(child->node_id, "sdc: CLA checksum mismatch at node " +
                                          std::to_string(child->node_id));
  }
  node.verified_pass = sdc_pass_;
}

void EngineCore::report_corruption(int node_id, const std::string& what) {
  ++sdc_counters_.hits;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.hits, 1);
  throw sdc::CorruptionDetected(node_id, what);
}

void EngineCore::heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt) {
  if (!sdc_checks_) throw;
  // The throw unwound mid-traversal: pins taken by execute_plan or the
  // gradient descent are still elevated.  Pins are zero between top-level
  // calls, so a flat reset is the correct recovery point before re-planning.
  // The store's touch epoch is monotonic and survives the reset, so a
  // heal-retry loop cannot thrash a hot CLA back to cold.
  release_pins();
  if (attempt + 1 >= sdc::kHealRetryBudget) {
    ++sdc_counters_.escalations;
    if (metrics_) obs::Registry::instance().add(sdc_ids_.escalations, 1);
    throw;  // to the caller's ladder (checkpoint restore in the driver)
  }
  // Targeted heal: drop exactly the corrupt CLA, so the next traversal
  // replans from the dirty frontier.  Unlocalized faults (non-finite
  // sentinels, preorder partials) sweep everything, which also forces a
  // fresh rescaling pass over every CLA.
  if (fault.node_id() >= 0) {
    invalidate_node(fault.node_id());
  } else {
    invalidate_all();
  }
  ++sdc_counters_.heals;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.heals, 1);
}

bool EngineCore::corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
  if (node_id < taxa_) return false;
  ClaState& node = clas_[inner(node_id)];
  if (!node.valid || !store_.resident(node_id - taxa_)) return false;
  // The buffer may be class-sized: stay within the blocks it holds.
  const std::int64_t blocks = store_.blocks(node_id - taxa_);
  double* buffer = values(node_id);
  const auto index = static_cast<std::size_t>(word % (blocks * block_));
  std::uint64_t bits;
  std::memcpy(&bits, buffer + index, sizeof(bits));
  bits ^= 1ULL << (bit & 63);
  std::memcpy(buffer + index, &bits, sizeof(bits));
  node.verified_pass = 0;
  return true;
}

void EngineCore::validate_edge(tree::Slot* edge) {
  PlanCache::Entry& entry = plan_cache_.entry_for(edge);
  if (plan_cache_.satisfied(entry)) {
    // Nothing has invalidated, evicted or recomputed a CLA since this plan
    // last ran: the whole traversal is a no-op.  Ready the roots so the
    // caller's kernels can rely on them staying resident, exactly as after
    // a real execution: a satisfied plan's roots may live in the spill tier,
    // and one root's reload may evict the other.
    plan_cache_.count_cache_hit();
    for (const PlanRoot& root : entry.plan.roots()) ready_child(root.slot, false);
    return;
  }
  execute_plan(plan_cache_.prepare(entry, [this](const tree::Slot* s) { return slot_valid(s); }));
  // Every op bumps the epoch, so satisfaction is recorded against the
  // post-execution state.
  plan_cache_.mark_satisfied(entry);
}

void EngineCore::execute_plan(const TraversalPlan& plan) {
  // Roots that were already valid at planning time are plan inputs too:
  // pin them before running any op so the execution cannot evict them.
  for (const PlanRoot& root : plan.roots()) {
    if (root.slot->is_tip() || root.op >= 0) continue;
    ready_child(root.slot, false);
  }
  if (plan.empty()) return;
  obs::ScopedSpan span("plan:execute");
  // Sethi–Ullman DFS order with pin/unpin discipline, so the live working
  // set stays ~log2(n) buffers under any budget.  Feed the plan's read
  // positions to the store first: eviction then prefers CLAs with no
  // remaining use in this plan, and otherwise the farthest next use — the
  // register-allocation heuristic of DESIGN.md §14.
  store_.begin_plan();
  const auto& ops = plan.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (tree::Slot* child : {ops[i].slot->child1(), ops[i].slot->child2()}) {
      if (!child->is_tip()) {
        store_.plan_next_use(child->node_id - taxa_, static_cast<std::int64_t>(i));
      }
    }
  }
  for (const PlanRoot& root : plan.roots()) {
    // Roots are read by the kernel that follows the whole plan.
    if (!root.slot->is_tip()) {
      store_.plan_next_use(root.slot->node_id - taxa_, static_cast<std::int64_t>(ops.size()));
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    check_cancel();  // per-op cancellation boundary
    store_.plan_cursor(static_cast<std::int64_t>(i));
    // Read-ahead: stream this op's and the next op's frontier inputs from
    // the spill tier while kernels run (two-entry ring; extras dropped,
    // resident slots are no-ops).
    prefetch_op_inputs(ops[i]);
    if (i + 1 < ops.size()) prefetch_op_inputs(ops[i + 1]);
    run_plan_op(ops[i]);
  }
  plan_cache_.count_executed_plan();
}

void EngineCore::run_plan_op(const PlfOp& op) {
  ready_child(op.slot->child1(), op.left_op >= 0);
  ready_child(op.slot->child2(), op.right_op >= 0);
  family_.run_newview(op.slot);
  // The op's Sethi–Ullman `registers` number is exactly the cost of
  // rebuilding this CLA from scratch — the store's victim order when
  // spilling is off and an eviction drops.
  if (op.registers > 0) store_.set_rebuild_cost(op.slot->node_id - taxa_, op.registers);
  plan_cache_.count_executed_op();
  unpin(op.slot->child1()->node_id);
  unpin(op.slot->child2()->node_id);
  // The output stays pinned until its consumer (a later op, or the caller
  // for a root) releases it.
  pin(op.slot->node_id);
}

void EngineCore::ready_child(tree::Slot* child, bool computed_in_plan) {
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
    ensure_resident_cla(child->node_id);
    return;
  }
  // A plan input was evicted-and-dropped between planning and consumption
  // (possible under tight budgets when a sibling subtree recycled its
  // buffer).  Recompute it with a nested sub-plan; the child comes back
  // pinned.  With the spill tier on this path is rare: eviction keeps
  // expensive subtrees on disk and the branch above reloads them instead.
  store_.note_recompute();
  TraversalPlan subplan;
  plan_cache_.build_subplan(
      child, [this](const tree::Slot* s) { return slot_valid(s); }, subplan);
  for (const PlfOp& sub : subplan.ops()) run_plan_op(sub);
}

void EngineCore::prefetch_op_inputs(const PlfOp& op) {
  if (op.left_op < 0 && !op.slot->child1()->is_tip() && slot_valid(op.slot->child1())) {
    store_.prefetch(op.slot->child1()->node_id - taxa_);
  }
  if (op.right_op < 0 && !op.slot->child2()->is_tip() && slot_valid(op.slot->child2())) {
    store_.prefetch(op.slot->child2()->node_id - taxa_);
  }
}

const TraversalPlan* EngineCore::plan_traversal(tree::Slot* edge) {
  // An external traversal starts here: open a fresh trust pass so the
  // plan's frontier inputs re-verify once during execution.
  if (sdc_checks_) ++sdc_pass_;
  PlanCache::Entry& entry = plan_cache_.entry_for(edge);
  if (plan_cache_.satisfied(entry)) return nullptr;
  return &plan_cache_.prepare(entry, [this](const tree::Slot* s) { return slot_valid(s); });
}

PreorderInputs EngineCore::begin_preorder_op(const TraversalPlan& plan, const PlfOp& op) {
  MINIPHI_ASSERT(op.kind == PlfOpKind::kPreorder);
  tree::Slot* toward = op.slot;  // the parent's half-edge toward the node
  PreorderInputs in;
  in.node = op.node_id;
  in.buffer = op.buffer;
  in.sibling = op.sibling->back;
  in.own = toward->back;
  MINIPHI_ASSERT(in.node == toward->back->node_id);
  if (op.left_op < 0) {
    // Seed op: the left input is the *opposite* endpoint of the root edge,
    // across the root slot — the ring slot that is neither the op's own
    // slot nor the sibling.
    tree::Slot* root_slot = (toward->next == op.sibling) ? toward->next->next : toward->next;
    in.opposite = root_slot->back;
    in.left_length = root_slot->length;
  }
  // Ready (pin + reload or rebuild) every postorder input *before* the
  // family builds any kernel context: under a tight budget ready_child may
  // recompute a dropped CLA through run_newview, which rebuilds through the
  // very table workspaces those contexts point into.  Every slab reads all
  // of them, so they stay pinned for the whole op.
  if (in.opposite != nullptr) ready_child(in.opposite, /*computed_in_plan=*/false);
  ready_child(in.sibling, /*computed_in_plan=*/false);
  if (!in.own->is_tip()) {
    ready_child(in.own, /*computed_in_plan=*/false);
    verify_cla(in.own);
  }
  if (op.left_op >= 0) {
    const PlfOp& parent = plan.ops()[static_cast<std::size_t>(op.left_op)];
    in.parent_buffer = parent.buffer;
    in.left_length = parent.slot->length;
  }
  return in;
}

bool EngineCore::wants_parent_verify(const PreorderInputs& in) const {
  // Unlike postorder CLAs, a preorder buffer is never read on a later pass,
  // so computing it does NOT mark it trusted: the exposure window is
  // precisely compute → first consumption within one descent.
  if (!sdc_checks_ || in.parent_buffer < 0) return false;
  const ClaState& parent = partials_[static_cast<std::size_t>(in.parent_buffer)].sdc;
  return parent.verified_pass != sdc_pass_ && parent.checked_blocks > 0;
}

void EngineCore::end_preorder_op(const PreorderInputs& in, const sdc::ClaChecksum* parent_sum,
                                 const sdc::ClaChecksum& fresh_sum) {
  if (parent_sum != nullptr) {
    ClaState& parent = partials_[static_cast<std::size_t>(in.parent_buffer)].sdc;
    ++sdc_counters_.checks;
    if (metrics_) obs::Registry::instance().add(sdc_ids_.checks, 1);
    // Preorder partials are transient (rebuilt every descent), so no
    // committed CLA is implicated: a mismatch heals with the full sweep.
    if (parent_sum->finish() != parent.checksum) {
      report_corruption(-1, "sdc: preorder partial checksum mismatch at node " +
                                std::to_string(in.own->back->node_id));
    }
    parent.verified_pass = sdc_pass_;
  }
  if (sdc_checks_ && in.node >= taxa_) {
    ClaState& pre = partials_[static_cast<std::size_t>(in.buffer)].sdc;
    pre.checksum = fresh_sum.finish();
    pre.checked_blocks = length_;
    pre.verified_pass = 0;  // trust is earned at consumption, not at compute
  }
  if (in.opposite != nullptr) unpin(in.opposite->node_id);
  unpin(in.sibling->node_id);
  unpin(in.node);  // no-op for a tip
}

double EngineCore::log_likelihood(tree::Slot* edge) {
  MINIPHI_ASSERT(edge != nullptr && edge->back != nullptr);
  return guarded([&] {
    validate_edge(edge);
    tree::Slot* p = edge;
    tree::Slot* q = edge->back;
    // The kernels take an inner CLA on the left.
    if (p->is_tip()) std::swap(p, q);
    MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");
    const double result = family_.run_evaluate(p, q, edge->length);
    unpin(edge->node_id);
    unpin(edge->back->node_id);
    if (sdc_checks_ && !std::isfinite(result)) {
      report_corruption(-1, "sdc: non-finite log-likelihood from evaluate");
    }
    return result;
  });
}

void EngineCore::prepare_derivatives(tree::Slot* edge) {
  guarded([&] { run_prepare_derivatives(edge); });
}

void EngineCore::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");
  validate_edge(edge);
  family_.run_derivative_sum(p, q);
  unpin(p->node_id);
  unpin(q->node_id);
  sum_prepared_ = true;
}

std::pair<double, double> EngineCore::derivatives(double z) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  double lnl_unused = 0.0;
  return run_derivative_core(z, /*want_lnl=*/false, lnl_unused);
}

std::pair<double, double> EngineCore::run_derivative_core(double z, bool want_lnl, double& lnl) {
  const auto [first, second] = family_.run_derivative_core(z, want_lnl, lnl);
  if (sdc_checks_ && (!std::isfinite(first) || !std::isfinite(second))) {
    // The sum buffer is not checksummed (it is transient); a non-finite
    // derivative is the sentinel.  optimize_branch heals by re-preparing.
    report_corruption(-1, "sdc: non-finite derivative from derivativeCore");
  }
  return {first, second};
}

double EngineFamily::newton_step(double z, double first, double second) {
  double next;
  if (second < 0.0) {
    next = z - first / second;
  } else {
    // Not locally concave: move in the uphill direction geometrically.
    next = (first > 0.0) ? z * 4.0 : z * 0.25;
  }
  return std::clamp(next, kMinBranchLength, kMaxBranchLength);
}

double EngineCore::optimize_branch(tree::Slot* edge, int max_iterations) {
  // prepare_derivatives (itself guarded) runs outside the retry so its
  // escalation propagates; a fault in the Newton loop heals and
  // re-prepares.
  for (int attempt = 0;; ++attempt) {
    prepare_derivatives(edge);
    try {
      const double z0 = edge->length;
      double z = z0;
      double lnl0 = 0.0;
      for (int iteration = 0; iteration < max_iterations; ++iteration) {
        // Project the log-likelihood at the starting length on the first
        // iteration: it is the baseline the final iterate must beat.
        double lnl = 0.0;
        const auto [first, second] = run_derivative_core(z, /*want_lnl=*/iteration == 0, lnl);
        if (iteration == 0) lnl0 = lnl;
        const double next = EngineFamily::newton_step(z, first, second);
        const bool converged = std::abs(next - z) < 1e-10;
        z = next;
        if (converged) break;
      }
      if (z != z0) {
        // The geometric fallback in newton_step (second ≥ 0) moves along the
        // gradient's sign but has no step-size control, and a diverging
        // Newton sequence can end anywhere: committing the final iterate
        // unguarded could *lower* the likelihood.  The projection shares
        // the prepared sum buffer, so the guard costs one derivativeCore
        // call — no traversal.  `!(≥)` also rejects a NaN projection.
        double lnl_final = 0.0;
        run_derivative_core(z, /*want_lnl=*/true, lnl_final);
        if (!(lnl_final >= lnl0)) z = z0;
      }
      tree::Tree::set_length(edge, z);
      invalidate_node(edge->node_id);
      invalidate_node(edge->back->node_id);
      return z;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

double EngineCore::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge, 32);  // Evaluator::optimize_branch's default
    }
  }
  return log_likelihood(root_edge);
}

void EngineCore::gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  guarded([&] {
    out.clear();
    out.reserve(static_cast<std::size_t>(tree_.edge_count()));

    // Root edge first: the classic two-endpoint protocol.  Its validate_edge
    // also orients every postorder CLA toward the root edge — exactly the
    // orientation the descent's sibling inputs need.
    run_prepare_derivatives(root_edge);
    double lnl_unused = 0.0;
    const auto [root_first, root_second] =
        run_derivative_core(root_edge->length, /*want_lnl=*/false, lnl_unused);
    out.push_back({root_edge, root_edge->length, root_first, root_second});

    // Root-to-tips descent.  Ops are emitted parents-first, so emission
    // order is a valid schedule; it is also the only schedule used — the
    // pass is deliberately serial so the per-edge results are bit-identical
    // no matter how the postorder CLAs were produced (a plan, a nested
    // recompute or distributed execution all commit the same buffers).  Its
    // reload pattern is not the postorder plan the store last saw: a fresh
    // plan window keeps stale next-use hints out of eviction.
    store_.begin_plan();
    TraversalPlanner::build_preorder(root_edge, preorder_plan_);
    // The plan's buffer indices address a stack of full-width partials,
    // grown to its peak (never shrunk: the next descent needs as many).
    while (partials_.size() < static_cast<std::size_t>(preorder_plan_.buffers())) {
      Partial& partial = partials_.emplace_back();
      partial.values.resize(static_cast<std::size_t>(length_ * block_));
      partial.scales.resize(static_cast<std::size_t>(length_));
    }
    for (const PlfOp& op : preorder_plan_.ops()) {
      check_cancel();
      const PreorderInputs in = begin_preorder_op(preorder_plan_, op);
      family_.begin_descent_op(in);
      // One pass over the width, slab by slab, so each slab of the fresh
      // partial and of its sum is consumed while still in cache: the
      // preorder newview writes the slab, derivativeSum contracts it
      // against the node's postorder side, derivativeCore carries its sums
      // on.  Under SDC checks the parent partial's slab is folded just
      // before the newview pulls it (a deferred verification, compared
      // after the loop) and the fresh slab just after the newview stores it.
      const bool verify_parent = wants_parent_verify(in);
      const bool fold_fresh = sdc_checks_ && in.node >= taxa_;  // a tip's partial has no reader
      sdc::ClaChecksum parent_sum;
      sdc::ClaChecksum fresh_sum;
      double seconds[3] = {0.0, 0.0, 0.0};  // newview, derivativeSum, derivativeCore
      std::pair<double, double> gradient;
      // One clock read per kernel boundary, chained across slabs; the SDC
      // folds restart the clock so they stay out of the kernel times.
      Timer timer;
      for (std::int64_t b = 0; b < length_; b += kSdcChunkSites) {
        const std::int64_t e = std::min(length_, b + kSdcChunkSites);
        if (verify_parent) {
          family_.fold_checksum(parent_sum, preorder_values(in.parent_buffer),
                                preorder_scales(in.parent_buffer), b, e);
          timer.start();
        }
        family_.run_preorder_newview(b, e);
        seconds[0] += timer.lap();
        if (fold_fresh) {
          family_.fold_checksum(fresh_sum, preorder_values(in.buffer), preorder_scales(in.buffer), b,
                                e);
          timer.start();
        }
        family_.run_preorder_sum(b, e);
        seconds[1] += timer.lap();
        gradient = family_.run_descent_core(b, e);
        seconds[2] += timer.lap();
      }
      const bool left_tip = in.parent_buffer < 0 && in.opposite->is_tip();
      account_kernel(Kernel::kNewview, /*preorder=*/true, length_, seconds[0], left_tip,
                     in.sibling->is_tip());
      account_kernel(Kernel::kDerivSum, /*preorder=*/true, length_, seconds[1],
                     /*left_tip=*/false, in.own->is_tip());
      account_kernel(Kernel::kDerivCore, /*preorder=*/true, length_, seconds[2]);
      end_preorder_op(in, verify_parent ? &parent_sum : nullptr, fresh_sum);
      const auto [first, second] = gradient;
      if (sdc_checks_ && (!std::isfinite(first) || !std::isfinite(second))) {
        // The slab scratch is transient and not checksummed; a non-finite
        // gradient is the sentinel.
        report_corruption(-1, "sdc: non-finite all-branch gradient from derivativeCore");
      }
      out.push_back({op.slot, op.slot->length, first, second});
    }
    sum_prepared_ = false;  // a gradient ends the prepared-derivatives window
  });
}

}  // namespace miniphi::core
