#include "src/core/general/general_engine.hpp"

#include <algorithm>
#include <cmath>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {

GeneralEngine::GeneralEngine(const bio::PatternSet& patterns, const model::GeneralModel& model,
                             tree::Tree& tree, std::vector<std::uint32_t> code_masks,
                             const Config& config)
    : patterns_(patterns),
      model_(model),
      tree_(tree),
      code_masks_(std::move(code_masks)),
      dims_(general_dims(model)),
      ops_(get_general_kernel_ops(config.isa)),
      tuning_(config.tuning),
      use_openmp_(config.use_openmp),
      core_(*this, tree) {
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  MINIPHI_CHECK(npat > 0, "general engine: empty pattern set");
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "general engine: tree and patterns disagree on taxon count");
  MINIPHI_CHECK(!code_masks_.empty(), "general engine: empty code mask table");
  for (const auto& row : patterns.tip_rows) {
    for (const auto code : row) {
      MINIPHI_CHECK(code < code_masks_.size(), "general engine: tip code out of mask range");
    }
  }
  const std::uint32_t all_states =
      (dims_.states >= 32) ? 0xFFFFFFFFu : ((1u << dims_.states) - 1);
  for (const auto mask : code_masks_) {
    MINIPHI_CHECK(mask != 0 && (mask & ~all_states) == 0,
                  "general engine: code mask references invalid states");
  }

  offset_ = config.begin;
  length_ = (config.end < 0 ? npat : config.end) - offset_;
  MINIPHI_CHECK(offset_ >= 0 && length_ > 0 && offset_ + length_ <= npat,
                "general engine: invalid pattern slice");
  core_.configure(config, length_, dims_.block(), "general engine");
  if (core_.metrics()) metric_ids_ = register_engine_metrics(ops_.isa, "general");

  const auto block = static_cast<std::size_t>(dims_.block());
  ptable_left_.resize(gptable_size(dims_));
  ptable_right_.resize(gptable_size(dims_));
  ump_left_.resize(gblock_table_size(dims_, code_masks_.size()));
  ump_right_.resize(gblock_table_size(dims_, code_masks_.size()));
  diag_.resize(block);
  evtab_.resize(gblock_table_size(dims_, code_masks_.size()));
  dtab_.resize(3 * block);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * block);

  set_general_model(model);
}

void GeneralEngine::set_general_model(const model::GeneralModel& model) {
  MINIPHI_CHECK(model.states() == dims_.states && model.gamma_categories() == dims_.rates,
                "general engine: model geometry changed");
  model_ = model;
  tipvec_ = build_general_tipvec(model_, code_masks_);
  wtable_ = build_general_wtable(model_);
  invalidate_all();
}

void GeneralEngine::invalidate_node(int node_id) {
  if (node_id < tree_.taxon_count()) return;
  core_.invalidate_node(node_id);
  sum_prepared_ = false;
}

void GeneralEngine::invalidate_all() {
  core_.invalidate_all();
  sum_prepared_ = false;
}

std::uint64_t GeneralEngine::cla_checksum(const double* values, const std::int32_t* scales,
                                          std::int64_t blocks) {
  return sdc::checksum_cla(values, blocks * dims_.block(), scales, blocks);
}

GChildInput GeneralEngine::make_child_input(tree::Slot* child, std::span<double> ptable,
                                            std::span<double> ump, double branch_length) {
  build_general_ptable(model_, branch_length, ptable);
  GChildInput input;
  input.ptable = ptable.data();
  if (child->is_tip()) {
    build_general_ump(model_, ptable, code_masks_, ump);
    input.codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
    input.ump = ump.data();
  } else {
    core_.resident_input(child);
    input.cla = core_.values(child->node_id);
    input.scale = core_.scales(child->node_id);
  }
  return input;
}

void GeneralEngine::run_newview(tree::Slot* slot) {
  MINIPHI_ASSERT(!slot->is_tip());
  // Write acquisition: the store may evict an unpinned victim, spilling it
  // or (via the on_drop callback) invalidating it — either way cached plans
  // that counted the victim as a resident input stay correct, because a
  // spilled CLA is still logically valid and a dropped one bumps the epoch.
  core_.acquire(slot->node_id, length_);

  GNewviewCtx ctx;
  ctx.parent_cla = core_.values(slot->node_id);
  ctx.parent_scale = core_.scales(slot->node_id);
  ctx.left = make_child_input(slot->child1(), ptable_left_, ump_left_, slot->next->length);
  ctx.right =
      make_child_input(slot->child2(), ptable_right_, ump_right_, slot->next->next->length);
  ctx.wtable = wtable_.data();
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

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
      if (ctx.begin < ctx.end) ops_.newview(ctx);
    }
#else
    ops_.newview(ctx);
#endif
  } else {
    ops_.newview(ctx);
  }
  record_kernel(Kernel::kNewview,
                length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1)),
                timer.seconds());

  core_.commit_cla(slot, length_);
  sum_prepared_ = false;
}

void GeneralEngine::record_kernel(Kernel k, std::int64_t cla_blocks, double seconds) {
  auto& stat = stats_.kernel(k);
  const std::int64_t cla_bytes =
      cla_blocks * dims_.block() * static_cast<std::int64_t>(sizeof(double));
  stat.seconds += seconds;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (core_.metrics()) {
    publish_kernel(metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(k))], length_,
                   length_, cla_bytes, seconds);
  }
}

double GeneralEngine::run_evaluate(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  MINIPHI_ASSERT(q != nullptr);
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");

  GEvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_general_diag(model_, edge->length, diag_);
  if (q->is_tip()) {
    build_general_evtab(dims_, diag_, tipvec_, evtab_);
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.evtab = evtab_.data();
  } else {
    core_.resident_input(q);
    ctx.right_cla = core_.values(q->node_id);
    ctx.right_scale = core_.scales(q->node_id);
    ctx.diag = diag_.data();
  }
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;

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
      if (ctx.begin < ctx.end) result += ops_.evaluate(ctx);
    }
#else
    result = ops_.evaluate(ctx);
#endif
  } else {
    result = ops_.evaluate(ctx);
  }
  record_kernel(Kernel::kEvaluate, length_ * (q->is_tip() ? 1 : 2), timer.seconds());
  return result;
}

double GeneralEngine::log_likelihood(tree::Slot* edge) {
  return core_.log_likelihood(edge, [this](tree::Slot* e) { return run_evaluate(e); });
}

void GeneralEngine::prepare_derivatives(tree::Slot* edge) {
  core_.guarded([&] { run_prepare_derivatives(edge); });
}

void GeneralEngine::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");

  core_.validate_edge(edge);

  GSumCtx ctx;
  ctx.sum = sum_buffer_.data();
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  if (q->is_tip()) {
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.tipvec = tipvec_.data();
  } else {
    core_.resident_input(q);
    ctx.right_cla = core_.values(q->node_id);
  }
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

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
      if (ctx.begin < ctx.end) ops_.derivative_sum(ctx);
    }
#else
    ops_.derivative_sum(ctx);
#endif
  } else {
    ops_.derivative_sum(ctx);
  }
  record_kernel(Kernel::kDerivSum, length_ * (q->is_tip() ? 2 : 3), timer.seconds());
  core_.unpin(p->node_id);
  core_.unpin(q->node_id);
  sum_prepared_ = true;
}

std::pair<double, double> GeneralEngine::derivatives(double z) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  build_general_dtab(model_, z, dtab_);

  GDerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;

  Timer timer;
  double first = 0.0;
  double second = 0.0;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx) reduction(+ : first, second)
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
      }
    }
#else
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
#endif
  } else {
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
  }
  record_kernel(Kernel::kDerivCore, length_, timer.seconds());
  if (core_.sdc_checks() && (!std::isfinite(first) || !std::isfinite(second))) {
    core_.report_corruption(-1, "sdc: non-finite derivative from general derivativeCore");
  }
  return {first, second};
}

double GeneralEngine::optimize_branch(tree::Slot* edge, int max_iterations) {
  return core_.heal_loop([&] { prepare_derivatives(edge); }, [&] {
    double z = edge->length;
    for (int iteration = 0; iteration < max_iterations; ++iteration) {
      const auto [first, second] = derivatives(z);
      const double next = LikelihoodEngine::newton_step(z, first, second);
      const bool converged = std::abs(next - z) < 1e-10;
      z = next;
      if (converged) break;
    }
    tree::Tree::set_length(edge, z);
    invalidate_node(edge->node_id);
    invalidate_node(edge->back->node_id);
    return z;
  });
}

double GeneralEngine::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      core_.check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge, 32);
    }
  }
  return log_likelihood(root_edge);
}

bool GeneralEngine::gradient_all_branches(tree::Slot* root_edge,
                                          std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  core_.guarded([&] { run_gradient_all_branches(root_edge, out); });
  return true;
}

void GeneralEngine::run_gradient_all_branches(tree::Slot* root_edge,
                                              std::vector<BranchGradient>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(tree_.edge_count()));
  core_.ensure_preorder_tier();

  // Postorder pass + root-edge derivative via the classic protocol.  Its
  // validate_edge also orients every postorder CLA toward the root edge —
  // exactly the orientation the descent's sibling inputs need.
  run_prepare_derivatives(root_edge);
  const auto [root_first, root_second] = derivatives(root_edge->length);
  out.push_back({root_edge, root_edge->length, root_first, root_second});

  // Preorder pass, serial in emission order (parents precede children).
  core_.run_preorder_descent(root_edge, [&](const TraversalPlan& plan, const PlfOp& op) {
    run_preorder_op(plan, op, out);
  });
  sum_prepared_ = false;  // sum_buffer_ holds the last preorder edge's sums
}

void GeneralEngine::run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                                    std::vector<BranchGradient>& out) {
  const EngineCore::PreorderInputs in = core_.begin_preorder_op(plan, op);
  tree::Slot* toward = op.slot;       // u's slot pointing down at v
  tree::Slot* v_slot = toward->back;  // v, the node this op's partial points at
  const int v = in.node;

  // Preorder partial of v = newview(parent input across the edge above u,
  // sibling's postorder side across the sibling edge).
  GNewviewCtx ctx;
  ctx.parent_cla = core_.preorder_values(v);
  ctx.parent_scale = core_.preorder_scales(v);
  if (in.parent >= 0) {
    build_general_ptable(model_, in.left_length, ptable_left_);
    ctx.left.ptable = ptable_left_.data();
    ctx.left.cla = core_.preorder_values(in.parent);
    ctx.left.scale = core_.preorder_scales(in.parent);
  } else {
    ctx.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length);
  }
  ctx.right = make_child_input(in.sibling, ptable_right_, ump_right_, op.sibling->length);
  ctx.wtable = wtable_.data();
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.newview(ctx);
  record_kernel(Kernel::kNewview,
                length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1)),
                timer.seconds());
  core_.end_preorder_newview(in);

  // Gradient of the edge (u, v): derivative sums of the preorder partial
  // against v's own postorder side, then the derivative core at toward's
  // length.  Scale factors cancel in the ℓ'/ℓ'' ratios.
  GSumCtx sctx;
  sctx.sum = sum_buffer_.data();
  sctx.left_cla = ctx.parent_cla;
  const bool right_tip = v_slot->is_tip();
  if (right_tip) {
    sctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(v)].data() + offset_;
    sctx.tipvec = tipvec_.data();
  } else {
    // The node's own postorder CLA: reload or rebuild it like any other
    // tight-budget input (pinned until the contraction is done).
    core_.ready_preorder_node(v_slot);
    sctx.right_cla = core_.values(v);
  }
  sctx.dims = dims_;
  sctx.begin = 0;
  sctx.end = length_;
  sctx.tuning = tuning_;
  Timer sum_timer;
  ops_.derivative_sum(sctx);
  record_kernel(Kernel::kDerivSum, length_ * (right_tip ? 2 : 3), sum_timer.seconds());
  // The contraction is done with both CLAs; derivativeCore below reads only
  // the sum buffer.
  core_.end_preorder_op(in);

  build_general_dtab(model_, toward->length, dtab_);
  GDerivCtx dctx;
  dctx.sum = sum_buffer_.data();
  dctx.weights = patterns_.weights.data() + offset_;
  dctx.dtab = dtab_.data();
  dctx.dims = dims_;
  dctx.begin = 0;
  dctx.end = length_;
  Timer core_timer;
  ops_.derivative_core(dctx);
  record_kernel(Kernel::kDerivCore, length_, core_timer.seconds());
  if (core_.sdc_checks() &&
      (!std::isfinite(dctx.out_first) || !std::isfinite(dctx.out_second))) {
    core_.report_corruption(-1, "sdc: non-finite all-branch gradient from general derivativeCore");
  }
  out.push_back({toward, toward->length, dctx.out_first, dctx.out_second});
}

}  // namespace miniphi::core
