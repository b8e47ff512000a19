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
  spill_dir_ = config.cla_spill_dir;
  if (obs::kMetricsCompiled && config.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    plan_cache_.enable_metrics();
    sdc_ids_ = sdc::register_metrics();
  }

  const int inner_count = tree_.inner_count();
  const int floor_buffers = std::min(inner_count, 3);
  memory::ClaStoreConfig store_config;
  if (config.cla_buffers >= 0) {
    // Count budget: at most this many CLA buffers at once, whatever their
    // size.
    const int budget = std::min(config.cla_buffers, inner_count);
    MINIPHI_CHECK(budget >= floor_buffers, who + ": cla_buffers budget must be at least 3 (got " +
                                               std::to_string(budget) + ")");
    store_config.resident = budget;
  } else if (config.cla_budget_bytes > 0) {
    // Byte budget (the C-API resource negotiation speaks bytes): the store
    // caps the bytes it holds, so class-sized buffers fit far more CLAs
    // than full-width ones.  The floor is still three full-width buffers,
    // so every traversal that runs under the minimum count budget runs
    // here too.
    const std::int64_t full_width_bytes =
        length * block * static_cast<std::int64_t>(sizeof(double)) +
        length * static_cast<std::int64_t>(sizeof(std::int32_t));
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
  store_config.spill_min_registers = config.cla_spill_min_registers;
  store_config.node_id_base = taxa_;
  store_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  store_config.on_drop = [this](int slot) {
    clas_[static_cast<std::size_t>(slot)].valid = false;
    note_cla_state_changed();
  };
  store_.configure(std::move(store_config));
}

void EngineCore::invalidate_node(int node_id) {
  if (node_id < taxa_) return;  // tips have no CLA
  clas_[inner(node_id)].valid = false;
  // Free the resident buffer and any spill record eagerly: eviction must
  // never waste a disk write on a CLA that is already dead.
  store_.drop(node_id - taxa_);
  note_cla_state_changed();
}

void EngineCore::invalidate_all() {
  for (auto& node : clas_) node.valid = false;
  store_.drop_all();  // spilled copies are stale too
  note_cla_state_changed();
}

void EngineCore::commit_cla(tree::Slot* slot, std::int64_t blocks, const sdc::ClaChecksum* sum) {
  ClaState& node = clas_[inner(slot->node_id)];
  node.orientation = slot->slot_index;
  node.valid = true;
  if (sdc_checks_) {
    node.checksum = (sum != nullptr)
                        ? sum->finish()
                        : family_.cla_checksum(values(slot->node_id), scales(slot->node_id), blocks);
    node.checked_blocks = blocks;
    // Freshly computed ⇒ trusted for the rest of this pass.
    node.verified_pass = sdc_pass_;
  }
  // A newview can flip an inner CLA's orientation, silently invalidating it
  // for the opposite direction — cached plans keyed on other edges must not
  // treat this node as a resident input anymore.
  note_cla_state_changed();
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

void EngineCore::verify_against(ClaState& state, const double* values,
                                const std::int32_t* scales, int fault_node,
                                const std::string& what) {
  Timer timer;
  const std::uint64_t actual = family_.cla_checksum(values, scales, state.checked_blocks);
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
    family_.invalidate_node(fault.node_id());
  } else {
    family_.invalidate_all();
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
  if (!store_.full_resident()) {
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
    // every op's inputs come from an earlier level or the plan's inputs.
    for (int level = 1; level <= plan.levels(); ++level) {
      check_cancel();  // plan-level cancellation boundary
      obs::ScopedSpan level_span("plan:level");
      const auto level_ops = plan.level_ops(level);
      plan_cache_.observe_level_width(static_cast<std::int64_t>(level_ops.size()));
      for (const std::int32_t op : level_ops) {
        run_plan_op(plan.ops()[static_cast<std::size_t>(op)], /*pinning=*/false);
      }
    }
    // Level order leaves the roots unpinned; pin them like the DFS path does.
    for (const PlanRoot& root : plan.roots()) {
      if (root.op >= 0) pin(root.slot->node_id);
    }
  }
  plan_cache_.count_executed_plan(plan);
}

void EngineCore::run_plan_op(const PlfOp& op, bool pinning) {
  if (pinning) {
    ready_child(op.slot->child1(), op.left_op >= 0);
    ready_child(op.slot->child2(), op.right_op >= 0);
  }
  family_.run_newview(op.slot);
  // The op's Sethi–Ullman `registers` number is exactly the cost of
  // rebuilding this CLA from scratch — the store's recompute-vs-spill
  // signal at eviction time.
  if (op.registers > 0) store_.set_rebuild_cost(op.slot->node_id - taxa_, op.registers);
  plan_cache_.count_executed_op();
  if (pinning) {
    unpin(op.slot->child1()->node_id);
    unpin(op.slot->child2()->node_id);
    // The output stays pinned until its consumer (a later op, or the caller
    // for a root) releases it.
    pin(op.slot->node_id);
  }
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
  for (const PlfOp& sub : subplan.ops()) run_plan_op(sub, /*pinning=*/true);
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

void EngineCore::ensure_preorder_tier() {
  if (pre_store_.is_configured()) return;
  pre_.resize(static_cast<std::size_t>(tree_.node_count()));
  pre_readers_.resize(static_cast<std::size_t>(tree_.node_count()));
  // One slot per node, tips included (the branch *above* a tip still needs
  // its gradient).  This tier *always* spills on eviction — an outer
  // partial, unlike a postorder CLA, cannot be recomputed from a subtree —
  // which is what lets the descent run on any CLA budget.  On the full
  // budget every partial stays resident and the spill file is never created.
  memory::ClaStoreConfig pre_config;
  pre_config.slots = tree_.node_count();
  pre_config.resident =
      store_.full_resident()
          ? tree_.node_count()
          : std::min(tree_.node_count(), std::max(4, store_.full_width_buffers()));
  pre_config.values = length_ * block_;
  pre_config.scales = length_;
  pre_config.spill = true;
  pre_config.spill_min_registers = 0;  // rebuild is impossible: always spill
  pre_config.spill_dir = spill_dir_;
  pre_config.node_id_base = 0;  // preorder slots are node ids already
  pre_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  pre_store_.configure(std::move(pre_config));
}

EngineCore::PreorderInputs EngineCore::begin_preorder_op(const TraversalPlan& plan,
                                                         const PlfOp& op) {
  MINIPHI_ASSERT(op.kind == PlfOpKind::kPreorder);
  tree::Slot* toward = op.slot;  // the parent's half-edge toward the node
  PreorderInputs in;
  in.node = op.node_id;
  in.sibling = op.sibling->back;
  MINIPHI_ASSERT(in.node == toward->back->node_id);
  // The node's preorder partial lives in the preorder tier (slot == node
  // id).  Write-acquire and pin it for the whole op: newview fills it and
  // the gradient contraction reads it back.
  pre_store_.acquire(in.node, length_);
  pre_store_.pin(in.node);
  pre_readers_[static_cast<std::size_t>(in.node)] = 2;  // its children's ops
  tree::Slot* root_slot = nullptr;
  if (op.left_op < 0) {
    // Seed op: the left input is the *opposite* endpoint of the root edge,
    // across the root slot — the ring slot that is neither the op's own
    // slot nor the sibling.
    root_slot = (toward->next == op.sibling) ? toward->next->next : toward->next;
    in.opposite = root_slot->back;
    in.left_length = root_slot->length;
  }
  // Ready (pin + reload or rebuild) every postorder input *before* the
  // engine builds any kernel context: under a tight budget ready_child may
  // recompute a dropped CLA through run_newview, which rebuilds through the
  // very table workspaces those contexts point into.
  if (in.opposite != nullptr) ready_child(in.opposite, /*computed_in_plan=*/false);
  ready_child(in.sibling, /*computed_in_plan=*/false);
  if (op.left_op >= 0) {
    in.parent = toward->node_id;
    in.left_length = plan.ops()[static_cast<std::size_t>(op.left_op)].slot->length;
    // The parent's preorder partial may have been evicted to the spill tier
    // since it was computed; pin before the reload so the sibling's own
    // residency work cannot displace it.
    pre_store_.pin(in.parent);
    ClaState& parent = pre_[static_cast<std::size_t>(in.parent)];
    if (pre_store_.ensure_resident(in.parent) == memory::Residency::kReloaded) {
      parent.verified_pass = 0;
    }
    // Unlike postorder CLAs, a preorder buffer is never read on a later
    // pass, so computing it does NOT mark it trusted: the exposure window
    // is precisely compute → first consumption within one descent.
    // Preorder partials are transient (rebuilt every descent), so no
    // committed CLA is implicated: a mismatch heals with the full sweep.
    if (sdc_checks_ && parent.verified_pass != sdc_pass_ && parent.checked_blocks > 0) {
      verify_against(parent, preorder_values(in.parent), preorder_scales(in.parent), -1,
                     "sdc: preorder partial checksum mismatch at node " +
                         std::to_string(in.parent));
    }
  }
  return in;
}

void EngineCore::end_preorder_newview(const PreorderInputs& in) {
  // The newview inputs are consumed; release their pins before the gradient
  // contraction pulls in the node's own postorder side.
  if (in.parent >= 0) pre_store_.unpin(in.parent);
  if (in.opposite != nullptr) unpin(in.opposite->node_id);
  unpin(in.sibling->node_id);
  if (sdc_checks_) {
    ClaState& pre = pre_[static_cast<std::size_t>(in.node)];
    pre.checksum =
        family_.cla_checksum(preorder_values(in.node), preorder_scales(in.node), length_);
    pre.checked_blocks = length_;
    pre.verified_pass = 0;  // trust is earned at consumption, not at compute
  }
}

void EngineCore::ready_preorder_node(tree::Slot* node_slot) {
  ready_child(node_slot, /*computed_in_plan=*/false);
  verify_cla(node_slot);
}

void EngineCore::end_preorder_op(const PreorderInputs& in) {
  unpin(in.node);  // no-op for a tip
  pre_store_.unpin(in.node);
  // A preorder partial is read by its own gradient contraction and by its
  // children's preorder ops, never again in this descent: drop it after
  // its last reader, so a tight budget never spills a dead partial.
  if (in.node < taxa_) pre_store_.drop(in.node);
  if (in.parent >= 0 && --pre_readers_[static_cast<std::size_t>(in.parent)] == 0) {
    pre_store_.drop(in.parent);
  }
}

}  // namespace miniphi::core
