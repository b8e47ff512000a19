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
    : EngineFamily(tree),
      patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_cat_kernel_ops(config.isa)),
      tuning_(config.tuning) {
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
  core_.register_kernel_metrics(ops_.isa, "cat", "cat");
  ptable_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16);
  ptable_right_.resize(ptable_left_.size());
  ump_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  ump_right_.resize(ump_left_.size());
  diag_.resize(static_cast<std::size_t>(kMaxCatCategories) * kS);
  evtab_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  dtab_.resize(3 * static_cast<std::size_t>(kMaxCatCategories) * kS);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * kS);
  slab_sum_.resize(static_cast<std::size_t>(std::min(length_, kSdcChunkSites)) * kS);
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

void CatEngine::fold_checksum(sdc::ClaChecksum& sum, const double* values,
                              const std::int32_t* scales, std::int64_t begin, std::int64_t end) {
  sum.update(values, scales, begin, end, kS);
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
  // Write acquisition: the store may evict an unpinned victim, dropping it
  // and (via the on_drop callback) invalidating it; the drop bumps the
  // epoch, so cached plans that counted the victim as an input replan.
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
  core_.account_kernel(Kernel::kNewview, /*preorder=*/false, length_, timer.seconds(),
                       ctx.left.is_tip(), ctx.right.is_tip());

  core_.commit_cla(slot, length_);
}

double CatEngine::run_evaluate(tree::Slot* p, tree::Slot* q, double length) {
  CatEvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_diag(length, diag_);
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
  core_.account_kernel(Kernel::kEvaluate, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
  return result;
}

void CatEngine::run_derivative_sum(tree::Slot* p, tree::Slot* q) {
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
  core_.account_kernel(Kernel::kDerivSum, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
}

std::pair<double, double> CatEngine::run_derivative_core(double z, bool want_lnl, double& lnl) {
  build_dtab(z, dtab_);
  CatDerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.want_lnl = want_lnl;

  Timer timer;
  ops_.derivative_core(ctx);
  core_.account_kernel(Kernel::kDerivCore, /*preorder=*/false, length_, timer.seconds());
  lnl = ctx.out_lnl;
  return {ctx.out_first, ctx.out_second};
}

void CatEngine::begin_descent_op(const PreorderInputs& in) {
  // Preorder partial of v = newview(parent input across the edge above u,
  // sibling's postorder CLA across the sibling edge).
  CatNewviewCtx& nv = descent_newview_;
  nv = CatNewviewCtx{};
  nv.parent_cla = core_.preorder_values(in.buffer);
  nv.parent_scale = core_.preorder_scales(in.buffer);
  if (in.parent_buffer >= 0) {
    build_ptable(in.left_length, ptable_left_);
    nv.left.ptable = ptable_left_.data();
    nv.left.cla = core_.preorder_values(in.parent_buffer);
    nv.left.scale = core_.preorder_scales(in.parent_buffer);
  } else {
    nv.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length);
  }
  nv.right = make_child_input(in.sibling, ptable_right_, ump_right_, in.sibling->length);
  nv.wtable = wtable_.data();
  nv.site_categories = site_categories_.data();
  nv.tuning = tuning_;

  // Scale factors cancel in the ℓ′/ℓ″ ratios, so the contraction ignores
  // them.
  CatSumCtx& sum = descent_sum_;
  sum = CatSumCtx{};
  sum.left_cla = core_.preorder_values(in.buffer);
  if (in.own->is_tip()) {
    sum.right_codes = patterns_.tip_rows[static_cast<std::size_t>(in.node)].data() + offset_;
    sum.tipvec = tipvec_.data();
  } else {
    sum.right_cla = core_.values(in.node);
  }
  sum.tuning = tuning_;

  build_dtab(in.own->length, dtab_);
  descent_core_ = CatDerivCtx{};
  descent_core_.dtab = dtab_.data();
}

void CatEngine::run_preorder_newview(std::int64_t begin, std::int64_t end) {
  descent_newview_.begin = begin;
  descent_newview_.end = end;
  ops_.newview(descent_newview_);
}

void CatEngine::run_preorder_sum(std::int64_t begin, std::int64_t end) {
  // The slab runs as sites [0, end - begin) of inputs rebased to `begin`,
  // so the kernel's site-indexed stores fill the slab scratch.
  CatSumCtx ctx = descent_sum_;
  ctx.sum = slab_sum_.data();
  ctx.begin = 0;
  ctx.end = end - begin;
  ctx.left_cla += begin * kS;
  if (ctx.right_codes != nullptr) {
    ctx.right_codes += begin;
  } else {
    ctx.right_cla += begin * kS;
  }
  ops_.derivative_sum(ctx);
}

std::pair<double, double> CatEngine::run_descent_core(std::int64_t begin, std::int64_t end) {
  descent_core_.sum = slab_sum_.data();
  descent_core_.weights = patterns_.weights.data() + offset_ + begin;
  descent_core_.site_categories = site_categories_.data() + begin;
  descent_core_.begin = 0;
  descent_core_.end = end - begin;
  ops_.derivative_core(descent_core_);
  return {descent_core_.out_first, descent_core_.out_second};
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
