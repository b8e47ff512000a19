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
    : EngineFamily(tree),
      patterns_(patterns),
      model_(model),
      code_masks_(std::move(code_masks)),
      dims_(general_dims(model)),
      ops_(get_general_kernel_ops(config.isa)),
      tuning_(config.tuning),
      use_openmp_(config.use_openmp) {
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
  core_.register_kernel_metrics(ops_.isa, "general", "general");

  const auto block = static_cast<std::size_t>(dims_.block());
  ptable_left_.resize(gptable_size(dims_));
  ptable_right_.resize(gptable_size(dims_));
  ump_left_.resize(gblock_table_size(dims_, code_masks_.size()));
  ump_right_.resize(gblock_table_size(dims_, code_masks_.size()));
  diag_.resize(block);
  evtab_.resize(gblock_table_size(dims_, code_masks_.size()));
  dtab_.resize(3 * block);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * block);
  slab_sum_.resize(static_cast<std::size_t>(std::min(length_, kSdcChunkSites)) * block);

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

void GeneralEngine::fold_checksum(sdc::ClaChecksum& sum, const double* values,
                                  const std::int32_t* scales, std::int64_t begin,
                                  std::int64_t end) {
  sum.update(values, scales, begin, end, dims_.block());
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
  core_.account_kernel(Kernel::kNewview, /*preorder=*/false, length_, timer.seconds(),
                       ctx.left.is_tip(), ctx.right.is_tip());

  core_.commit_cla(slot, length_);
}

double GeneralEngine::run_evaluate(tree::Slot* p, tree::Slot* q, double length) {
  GEvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_general_diag(model_, length, diag_);
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
  core_.account_kernel(Kernel::kEvaluate, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
  return result;
}

void GeneralEngine::run_derivative_sum(tree::Slot* p, tree::Slot* q) {
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
  core_.account_kernel(Kernel::kDerivSum, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
}

std::pair<double, double> GeneralEngine::run_derivative_core(double z, bool want_lnl,
                                                             double& lnl_out) {
  build_general_dtab(model_, z, dtab_);

  GDerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.dims = dims_;
  ctx.begin = 0;
  ctx.end = length_;
  ctx.want_lnl = want_lnl;

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
  core_.account_kernel(Kernel::kDerivCore, /*preorder=*/false, length_, timer.seconds());
  lnl_out = lnl;
  return {first, second};
}

void GeneralEngine::begin_descent_op(const PreorderInputs& in) {
  // Preorder partial of v = newview(parent input across the edge above u,
  // sibling's postorder side across the sibling edge).
  GNewviewCtx& nv = descent_newview_;
  nv = GNewviewCtx{};
  nv.parent_cla = core_.preorder_values(in.buffer);
  nv.parent_scale = core_.preorder_scales(in.buffer);
  if (in.parent_buffer >= 0) {
    build_general_ptable(model_, in.left_length, ptable_left_);
    nv.left.ptable = ptable_left_.data();
    nv.left.cla = core_.preorder_values(in.parent_buffer);
    nv.left.scale = core_.preorder_scales(in.parent_buffer);
  } else {
    nv.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length);
  }
  nv.right = make_child_input(in.sibling, ptable_right_, ump_right_, in.sibling->length);
  nv.wtable = wtable_.data();
  nv.dims = dims_;
  nv.tuning = tuning_;

  // Scale factors cancel in the ℓ′/ℓ″ ratios, so the contraction ignores
  // them.
  GSumCtx& sum = descent_sum_;
  sum = GSumCtx{};
  sum.left_cla = core_.preorder_values(in.buffer);
  if (in.own->is_tip()) {
    sum.right_codes = patterns_.tip_rows[static_cast<std::size_t>(in.node)].data() + offset_;
    sum.tipvec = tipvec_.data();
  } else {
    sum.right_cla = core_.values(in.node);
  }
  sum.dims = dims_;
  sum.tuning = tuning_;

  build_general_dtab(model_, in.own->length, dtab_);
  descent_core_ = GDerivCtx{};
  descent_core_.dtab = dtab_.data();
  descent_core_.dims = dims_;
}

void GeneralEngine::run_preorder_newview(std::int64_t begin, std::int64_t end) {
  descent_newview_.begin = begin;
  descent_newview_.end = end;
  ops_.newview(descent_newview_);
}

void GeneralEngine::run_preorder_sum(std::int64_t begin, std::int64_t end) {
  // The slab runs as sites [0, end - begin) of inputs rebased to `begin`,
  // so the kernel's site-indexed stores fill the slab scratch.
  GSumCtx ctx = descent_sum_;
  ctx.sum = slab_sum_.data();
  ctx.begin = 0;
  ctx.end = end - begin;
  ctx.left_cla += begin * dims_.block();
  if (ctx.right_codes != nullptr) {
    ctx.right_codes += begin;
  } else {
    ctx.right_cla += begin * dims_.block();
  }
  ops_.derivative_sum(ctx);
}

std::pair<double, double> GeneralEngine::run_descent_core(std::int64_t begin,
                                                          std::int64_t end) {
  descent_core_.sum = slab_sum_.data();
  descent_core_.weights = patterns_.weights.data() + offset_ + begin;
  descent_core_.begin = 0;
  descent_core_.end = end - begin;
  ops_.derivative_core(descent_core_);
  return {descent_core_.out_first, descent_core_.out_second};
}

}  // namespace miniphi::core
