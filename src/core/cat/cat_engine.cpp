#include "src/core/cat/cat_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>

#include "src/model/gamma.hpp"
#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {
namespace {

constexpr int kS = kCatSiteBlock;

/// Eigenspace tip vector for a DNA code: tv[k] = Σ_{j∈code} W(k,j).
void tip_vector(const model::GtrModel& model, int code, double out[kS]) {
  const auto& w = model.eigen_w();
  const int effective = (code == 0) ? 0xF : code;
  for (int k = 0; k < kS; ++k) {
    double acc = 0.0;
    for (int j = 0; j < kS; ++j) {
      if (effective & (1 << j)) acc += w[static_cast<std::size_t>(k * kS + j)];
    }
    out[k] = acc;
  }
}

}  // namespace

CatEngine::CatEngine(const bio::PatternSet& patterns, const model::GtrModel& model,
                     tree::Tree& tree, int categories, const Config& config)
    : patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_cat_kernel_ops(config.isa)),
      tuning_(config.tuning),
      core_(*this, tree) {
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  MINIPHI_CHECK(npat > 0, "cat engine: empty pattern set");
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "cat engine: tree and patterns disagree on taxon count");
  MINIPHI_CHECK(categories >= 1 && categories <= kMaxCatCategories,
                "cat engine: category count out of range");
  offset_ = config.begin;
  length_ = (config.end < 0 ? npat : config.end) - offset_;
  MINIPHI_CHECK(offset_ >= 0 && length_ > 0 && offset_ + length_ <= npat,
                "cat engine: invalid pattern slice");
  core_.configure(config, length_, kS, "cat engine");
  if (core_.metrics()) metric_ids_ = register_engine_metrics(ops_.isa, "cat");
  ptable_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16);
  ptable_right_.resize(ptable_left_.size());
  ump_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  ump_right_.resize(ump_left_.size());
  diag_.resize(static_cast<std::size_t>(kMaxCatCategories) * kS);
  evtab_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  dtab_.resize(3 * static_cast<std::size_t>(kMaxCatCategories) * kS);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * kS);
  tipvec_.resize(16 * kS);
  wtable_.resize(16);

  // Branch-independent tables.
  const auto& w = model_.eigen_w();
  for (int i = 0; i < kS; ++i) {
    for (int k = 0; k < kS; ++k) {
      wtable_[static_cast<std::size_t>(i * kS + k)] = w[static_cast<std::size_t>(k * kS + i)];
    }
  }
  for (int code = 0; code < 16; ++code) {
    tip_vector(model_, code, tipvec_.data() + code * kS);
  }

  // Initial categories: the discrete-Γ(α=0.5) grid gives a well-spread,
  // unit-mean starting set; every site starts in the category closest to 1.
  std::vector<double> rates = model::discrete_gamma_rates(0.5, categories);
  std::uint8_t middle = 0;
  for (std::size_t c = 1; c < rates.size(); ++c) {
    if (std::abs(rates[c] - 1.0) < std::abs(rates[middle] - 1.0)) {
      middle = static_cast<std::uint8_t>(c);
    }
  }
  set_categories(std::move(rates),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(length_), middle));
}

void CatEngine::set_categories(std::vector<double> rates,
                               std::vector<std::uint8_t> assignment) {
  MINIPHI_CHECK(!rates.empty() && rates.size() <= kMaxCatCategories,
                "cat engine: bad category count");
  for (const double rate : rates) {
    MINIPHI_CHECK(rate > 0.0, "cat engine: category rates must be positive");
  }
  MINIPHI_CHECK(assignment.size() == static_cast<std::size_t>(length_),
                "cat engine: assignment size mismatch");
  for (const auto category : assignment) {
    MINIPHI_CHECK(category < rates.size(), "cat engine: assignment references bad category");
  }
  category_rates_ = std::move(rates);
  site_categories_ = std::move(assignment);
  invalidate_all();
}

void CatEngine::build_ptable(double z, std::span<double> out) const {
  const auto& u = model_.eigen_u();
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      const double e = std::exp(lambda[static_cast<std::size_t>(k)] * category_rates_[cat] * z);
      for (int i = 0; i < kS; ++i) {
        out[cat * 16 + static_cast<std::size_t>(k * kS + i)] =
            u[static_cast<std::size_t>(i * kS + k)] * e;
      }
    }
  }
}

void CatEngine::build_ump(std::span<const double> ptable, std::span<double> out) const {
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int code = 0; code < 16; ++code) {
      const double* tv = tipvec_.data() + code * kS;
      double* row = out.data() + (cat * 16 + static_cast<std::size_t>(code)) * kS;
      for (int i = 0; i < kS; ++i) {
        double acc = 0.0;
        for (int k = 0; k < kS; ++k) {
          acc += ptable[cat * 16 + static_cast<std::size_t>(k * kS + i)] * tv[k];
        }
        row[i] = acc;
      }
    }
  }
}

void CatEngine::build_diag(double z, std::span<double> out) const {
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      out[cat * kS + static_cast<std::size_t>(k)] =
          std::exp(lambda[static_cast<std::size_t>(k)] * category_rates_[cat] * z);
    }
  }
}

void CatEngine::build_dtab(double z, std::span<double> out) const {
  constexpr std::size_t kStride = static_cast<std::size_t>(kMaxCatCategories) * kS;
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      const double lr = lambda[static_cast<std::size_t>(k)] * category_rates_[cat];
      const double e = std::exp(lr * z);
      const std::size_t index = cat * kS + static_cast<std::size_t>(k);
      out[index] = e;
      out[kStride + index] = lr * e;
      out[2 * kStride + index] = lr * lr * e;
    }
  }
}

void CatEngine::invalidate_node(int node_id) {
  if (node_id < tree_.taxon_count()) return;
  core_.invalidate_node(node_id);
  sum_prepared_ = false;
}

void CatEngine::invalidate_all() {
  core_.invalidate_all();
  sum_prepared_ = false;
}

std::uint64_t CatEngine::cla_checksum(const double* values, const std::int32_t* scales,
                                      std::int64_t blocks) {
  return sdc::checksum_cla(values, blocks * kS, scales, blocks);
}

void CatEngine::set_alpha(double) {
  throw Error(
      "CAT engine: the CAT model has no gamma shape parameter; "
      "use optimize_site_rates() instead");
}

double CatEngine::alpha() const {
  throw Error("CAT engine: the CAT model has no gamma shape parameter");
}

CatChildInput CatEngine::make_child_input(tree::Slot* child, std::span<double> ptable,
                                          std::span<double> ump, double branch_length) {
  build_ptable(branch_length, ptable);
  CatChildInput input;
  input.ptable = ptable.data();
  if (child->is_tip()) {
    build_ump(ptable, ump);
    input.codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
    input.ump = ump.data();
  } else {
    core_.resident_input(child);
    input.cla = core_.values(child->node_id);
    input.scale = core_.scales(child->node_id);
  }
  return input;
}

void CatEngine::run_newview(tree::Slot* slot) {
  // Write acquisition: the store may evict an unpinned victim, spilling it
  // or (via the on_drop callback) invalidating it — either way cached plans
  // that counted the victim as a resident input stay correct, because a
  // spilled CLA is still logically valid and a dropped one bumps the epoch.
  core_.acquire(slot->node_id, length_);
  CatNewviewCtx ctx;
  ctx.parent_cla = core_.values(slot->node_id);
  ctx.parent_scale = core_.scales(slot->node_id);
  ctx.left = make_child_input(slot->child1(), ptable_left_, ump_left_, slot->next->length);
  ctx.right =
      make_child_input(slot->child2(), ptable_right_, ump_right_, slot->next->next->length);
  ctx.wtable = wtable_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.newview(ctx);
  record_kernel(Kernel::kNewview,
                length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1)),
                timer.seconds());

  core_.commit_cla(slot, length_);
  sum_prepared_ = false;
}

void CatEngine::record_kernel(Kernel k, std::int64_t cla_blocks, double seconds) {
  auto& stat = stats_.kernel(k);
  const std::int64_t cla_bytes =
      cla_blocks * kCatSiteBlock * static_cast<std::int64_t>(sizeof(double));
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

double CatEngine::run_evaluate(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");

  CatEvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_diag(edge->length, diag_);
  if (q->is_tip()) {
    for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
      for (int code = 0; code < 16; ++code) {
        for (int k = 0; k < kS; ++k) {
          evtab_[(cat * 16 + static_cast<std::size_t>(code)) * kS + static_cast<std::size_t>(k)] =
              diag_[cat * kS + static_cast<std::size_t>(k)] *
              tipvec_[static_cast<std::size_t>(code * kS + k)];
        }
      }
    }
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.evtab = evtab_.data();
  } else {
    core_.resident_input(q);
    ctx.right_cla = core_.values(q->node_id);
    ctx.right_scale = core_.scales(q->node_id);
  }
  ctx.diag = diag_.data();
  ctx.site_categories = site_categories_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.begin = 0;
  ctx.end = length_;

  Timer timer;
  const double result = ops_.evaluate(ctx);
  record_kernel(Kernel::kEvaluate, length_ * (q->is_tip() ? 1 : 2), timer.seconds());
  return result;
}

double CatEngine::log_likelihood(tree::Slot* edge) {
  return core_.log_likelihood(edge, [this](tree::Slot* e) { return run_evaluate(e); });
}

void CatEngine::prepare_derivatives(tree::Slot* edge) {
  core_.guarded([&] { run_prepare_derivatives(edge); });
}

void CatEngine::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");

  core_.validate_edge(edge);

  CatSumCtx ctx;
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
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.derivative_sum(ctx);
  record_kernel(Kernel::kDerivSum, length_ * (q->is_tip() ? 2 : 3), timer.seconds());
  core_.unpin(p->node_id);
  core_.unpin(q->node_id);
  sum_prepared_ = true;
}

std::pair<double, double> CatEngine::derivatives(double z) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  build_dtab(z, dtab_);
  CatDerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;

  Timer timer;
  ops_.derivative_core(ctx);
  record_kernel(Kernel::kDerivCore, length_, timer.seconds());
  if (core_.sdc_checks() && (!std::isfinite(ctx.out_first) || !std::isfinite(ctx.out_second))) {
    core_.report_corruption(-1, "sdc: non-finite derivative from CAT derivativeCore");
  }
  return {ctx.out_first, ctx.out_second};
}

double CatEngine::optimize_branch(tree::Slot* edge, int max_iterations) {
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

double CatEngine::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      core_.check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge, 32);
    }
  }
  return log_likelihood(root_edge);
}

bool CatEngine::gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  core_.guarded([&] { run_gradient_all_branches(root_edge, out); });
  return true;
}

void CatEngine::run_gradient_all_branches(tree::Slot* root_edge,
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

  // Preorder pass, serial in emission order: parents precede children by
  // construction, and keeping it serial makes the result independent of the
  // postorder dispatch schedule.
  core_.run_preorder_descent(root_edge, [&](const TraversalPlan& plan, const PlfOp& op) {
    run_preorder_op(plan, op, out);
  });
  sum_prepared_ = false;  // sum_buffer_ holds the last preorder edge's sums
}

void CatEngine::run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                                std::vector<BranchGradient>& out) {
  const EngineCore::PreorderInputs in = core_.begin_preorder_op(plan, op);
  tree::Slot* toward = op.slot;       // u's slot pointing down at v
  tree::Slot* v_slot = toward->back;  // v, the node this partial points at
  const int v = in.node;

  // Preorder partial of v = newview(parent input across the edge above u,
  // sibling's postorder CLA across the sibling edge).
  CatNewviewCtx ctx;
  ctx.parent_cla = core_.preorder_values(v);
  ctx.parent_scale = core_.preorder_scales(v);
  if (in.parent >= 0) {
    build_ptable(in.left_length, ptable_left_);
    ctx.left.ptable = ptable_left_.data();
    ctx.left.cla = core_.preorder_values(in.parent);
    ctx.left.scale = core_.preorder_scales(in.parent);
  } else {
    ctx.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length);
  }
  ctx.right = make_child_input(in.sibling, ptable_right_, ump_right_, op.sibling->length);
  ctx.wtable = wtable_.data();
  ctx.site_categories = site_categories_.data();
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
  CatSumCtx sctx;
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
  sctx.begin = 0;
  sctx.end = length_;
  sctx.tuning = tuning_;
  Timer sum_timer;
  ops_.derivative_sum(sctx);
  record_kernel(Kernel::kDerivSum, length_ * (right_tip ? 2 : 3), sum_timer.seconds());
  // The contraction is done with both CLAs; derivativeCore below reads only
  // the sum buffer.
  core_.end_preorder_op(in);

  build_dtab(toward->length, dtab_);
  CatDerivCtx dctx;
  dctx.sum = sum_buffer_.data();
  dctx.weights = patterns_.weights.data() + offset_;
  dctx.dtab = dtab_.data();
  dctx.site_categories = site_categories_.data();
  dctx.begin = 0;
  dctx.end = length_;
  Timer core_timer;
  ops_.derivative_core(dctx);
  record_kernel(Kernel::kDerivCore, length_, core_timer.seconds());
  if (core_.sdc_checks() &&
      (!std::isfinite(dctx.out_first) || !std::isfinite(dctx.out_second))) {
    core_.report_corruption(-1, "sdc: non-finite all-branch gradient from CAT derivativeCore");
  }
  out.push_back({toward, toward->length, dctx.out_first, dctx.out_second});
}

std::vector<double> CatEngine::single_rate_site_log_likelihoods(tree::Slot* root_edge,
                                                                double rate) {
  // Per-site log-likelihood with `rate` applied on EVERY branch — the
  // analogue of RAxML's evaluatePartial machinery used to score candidate
  // per-site rates.  One probability-space pruning pass with per-site
  // log-scaling; O(nodes × patterns) per call, called once per grid point.
  const std::size_t npat = static_cast<std::size_t>(length_);
  struct Cond {
    std::vector<double> values;       // [npat * 4]
    std::vector<double> log_scale;    // [npat]
  };

  const std::function<Cond(const tree::Slot*)> down = [&](const tree::Slot* slot) -> Cond {
    Cond out;
    out.values.assign(npat * kS, 0.0);
    out.log_scale.assign(npat, 0.0);
    if (slot->is_tip()) {
      const auto* codes =
          patterns_.tip_rows[static_cast<std::size_t>(slot->node_id)].data() + offset_;
      for (std::size_t s = 0; s < npat; ++s) {
        for (int i = 0; i < kS; ++i) {
          out.values[s * kS + static_cast<std::size_t>(i)] = (codes[s] & (1 << i)) ? 1.0 : 0.0;
        }
      }
      return out;
    }
    const Cond left = down(slot->child1());
    const Cond right = down(slot->child2());
    const auto p1 = model_.transition_matrix(slot->next->length, rate);
    const auto p2 = model_.transition_matrix(slot->next->next->length, rate);
    for (std::size_t s = 0; s < npat; ++s) {
      double max_value = 0.0;
      for (int i = 0; i < kS; ++i) {
        double a = 0.0;
        double b = 0.0;
        for (int j = 0; j < kS; ++j) {
          a += p1[static_cast<std::size_t>(i * kS + j)] * left.values[s * kS + static_cast<std::size_t>(j)];
          b += p2[static_cast<std::size_t>(i * kS + j)] * right.values[s * kS + static_cast<std::size_t>(j)];
        }
        const double value = a * b;
        out.values[s * kS + static_cast<std::size_t>(i)] = value;
        max_value = std::max(max_value, value);
      }
      out.log_scale[s] = left.log_scale[s] + right.log_scale[s];
      if (max_value > 0.0 && max_value < 1e-100) {
        for (int i = 0; i < kS; ++i) out.values[s * kS + static_cast<std::size_t>(i)] *= 1e100;
        out.log_scale[s] -= std::log(1e100);
      }
    }
    return out;
  };

  tree::Slot* p = root_edge;
  tree::Slot* q = root_edge->back;
  if (p->is_tip()) std::swap(p, q);
  const Cond below_p = down(p);
  const Cond below_q = down(q);
  const auto pr = model_.transition_matrix(root_edge->length, rate);
  const auto& pi = model_.frequencies();

  std::vector<double> out(npat);
  for (std::size_t s = 0; s < npat; ++s) {
    double site = 0.0;
    for (int i = 0; i < kS; ++i) {
      double inner = 0.0;
      for (int j = 0; j < kS; ++j) {
        inner += pr[static_cast<std::size_t>(i * kS + j)] *
                 below_q.values[s * kS + static_cast<std::size_t>(j)];
      }
      site += pi[static_cast<std::size_t>(i)] *
              below_p.values[s * kS + static_cast<std::size_t>(i)] * inner;
    }
    out[s] = std::log(std::max(site, 1e-300)) + below_p.log_scale[s] + below_q.log_scale[s];
  }
  return out;
}

double CatEngine::optimize_site_rates(tree::Slot* root_edge, int iterations) {
  const int ncat = category_count();

  // Log-spaced trial grid (RAxML uses per-site Brent; a fixed grid scan is
  // the equivalent, simpler policy at these costs).
  constexpr int kGridSize = 32;
  constexpr double kMinRate = 1e-3;
  constexpr double kMaxRate = 32.0;
  std::array<double, kGridSize> grid{};
  for (int g = 0; g < kGridSize; ++g) {
    grid[static_cast<std::size_t>(g)] =
        kMinRate * std::pow(kMaxRate / kMinRate, static_cast<double>(g) / (kGridSize - 1));
  }

  double lnl = log_likelihood(root_edge);
  for (int iteration = 0; iteration < iterations; ++iteration) {
    // Per-site best whole-tree rate over the grid.
    std::vector<double> best_rate(static_cast<std::size_t>(length_), 1.0);
    std::vector<double> best_value(static_cast<std::size_t>(length_), -1e300);
    for (const double rate : grid) {
      const auto site_lnl = single_rate_site_log_likelihoods(root_edge, rate);
      for (std::int64_t s = 0; s < length_; ++s) {
        if (site_lnl[static_cast<std::size_t>(s)] > best_value[static_cast<std::size_t>(s)]) {
          best_value[static_cast<std::size_t>(s)] = site_lnl[static_cast<std::size_t>(s)];
          best_rate[static_cast<std::size_t>(s)] = rate;
        }
      }
    }

    // Cluster per-site rates into ncat equal-weight categories (sorted by
    // rate, split by cumulative pattern weight), rate = weighted mean.
    std::vector<std::int64_t> order(static_cast<std::size_t>(length_));
    std::iota(order.begin(), order.end(), std::int64_t{0});
    std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
      return best_rate[static_cast<std::size_t>(a)] < best_rate[static_cast<std::size_t>(b)];
    });
    double total_weight = 0.0;
    for (std::int64_t s = 0; s < length_; ++s) {
      total_weight += patterns_.weights[static_cast<std::size_t>(offset_ + s)];
    }

    std::vector<double> new_rates(static_cast<std::size_t>(ncat), 0.0);
    std::vector<double> bucket_weight(static_cast<std::size_t>(ncat), 0.0);
    std::vector<std::uint8_t> assignment(static_cast<std::size_t>(length_), 0);
    double cumulative = 0.0;
    for (const std::int64_t s : order) {
      const double w = patterns_.weights[static_cast<std::size_t>(offset_ + s)];
      int bucket = static_cast<int>(cumulative / total_weight * ncat);
      bucket = std::min(bucket, ncat - 1);
      assignment[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(bucket);
      new_rates[static_cast<std::size_t>(bucket)] +=
          w * best_rate[static_cast<std::size_t>(s)];
      bucket_weight[static_cast<std::size_t>(bucket)] += w;
      cumulative += w;
    }
    for (int c = 0; c < ncat; ++c) {
      new_rates[static_cast<std::size_t>(c)] =
          (bucket_weight[static_cast<std::size_t>(c)] > 0.0)
              ? new_rates[static_cast<std::size_t>(c)] /
                    bucket_weight[static_cast<std::size_t>(c)]
              : grid[kGridSize / 2];
    }

    // Renormalize to unit weighted mean rate and rescale every branch by
    // the same factor so that r·z products — and hence the likelihood —
    // are invariant under the normalization (as in RAxML; this keeps
    // branch lengths in expected-substitutions-per-site units).
    double mean = 0.0;
    for (std::int64_t s = 0; s < length_; ++s) {
      mean += patterns_.weights[static_cast<std::size_t>(offset_ + s)] *
              new_rates[assignment[static_cast<std::size_t>(s)]];
    }
    mean /= total_weight;
    for (auto& rate : new_rates) rate /= mean;
    for (tree::Slot* edge : tree_.edges()) {
      tree::Tree::set_length(edge, std::clamp(edge->length * mean, kMinBranchLength,
                                              kMaxBranchLength));
    }

    set_categories(std::move(new_rates), std::move(assignment));
    const double updated = log_likelihood(root_edge);
    if (updated < lnl - 1e-9 && iteration > 0) break;  // no further gain
    lnl = updated;
  }
  return lnl;
}

}  // namespace miniphi::core
