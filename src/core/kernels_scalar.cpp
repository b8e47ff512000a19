// Portable scalar reference implementation of the four PLF kernels.
//
// This back-end defines the semantics; the vectorized back-ends must agree
// with it to tight numerical tolerance (enforced by parameterized tests).
// Loops are written in the same structure the paper vectorizes so that the
// correspondence is auditable side by side.
//
// Each kernel with a site-repeats variant is a template on a compile-time
// flag: <false> is the dense per-site loop (no indirection), <true> indexes
// CLA blocks through the repeat-class maps (newview additionally iterates
// over parent classes instead of sites).  Both instantiations share one
// body so dense and repeat semantics cannot drift apart.
#include <algorithm>
#include <cmath>

#include "src/core/kernels.hpp"

namespace miniphi::core {
namespace {

/// Smallest per-site likelihood admitted before the log (guards underflow
/// and pathological round-off; scaling keeps real values far above this).
constexpr double kLikelihoodFloor = 1e-300;

/// kRepeats = false: s is a site, children are indexed by s.
/// kRepeats = true:  s is a parent repeat class, children are indexed by
///                   ChildInput::gather[s] (a block index or a tip code).
template <bool kRepeats>
void newview_scalar(NewviewCtx& ctx) {
  const double* wtable = ctx.wtable;
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    // a = U e^{Λz₁} y₁ for the left child (table lookup when it is a tip).
    double a_buf[kSiteBlock];
    double b_buf[kSiteBlock];
    const double* a;
    const double* b;

    const std::int64_t ls = kRepeats ? ctx.left.gather[s] : s;
    if (ctx.left.is_tip()) {
      const std::int64_t code = kRepeats ? ls : ctx.left.codes[s];
      a = ctx.left.ump + code * kSiteBlock;
    } else {
      const double* y1 = ctx.left.cla + ls * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) {
        const int c4 = (l / kStates) * kStates;
        double acc = 0.0;
        for (int k = 0; k < kStates; ++k) {
          acc += ctx.left.ptable[k * kSiteBlock + l] * y1[c4 + k];
        }
        a_buf[l] = acc;
      }
      a = a_buf;
    }

    const std::int64_t rs = kRepeats ? ctx.right.gather[s] : s;
    if (ctx.right.is_tip()) {
      const std::int64_t code = kRepeats ? rs : ctx.right.codes[s];
      b = ctx.right.ump + code * kSiteBlock;
    } else {
      const double* y2 = ctx.right.cla + rs * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) {
        const int c4 = (l / kStates) * kStates;
        double acc = 0.0;
        for (int k = 0; k < kStates; ++k) {
          acc += ctx.right.ptable[k * kSiteBlock + l] * y2[c4 + k];
        }
        b_buf[l] = acc;
      }
      b = b_buf;
    }

    // x₃ = a ∘ b (probability space), then y₃ = W x₃ back to eigenspace.
    double x3[kSiteBlock];
    for (int l = 0; l < kSiteBlock; ++l) x3[l] = a[l] * b[l];

    double* y3 = ctx.parent_cla + s * kSiteBlock;
    double max_abs = 0.0;
    for (int l = 0; l < kSiteBlock; ++l) {
      const int c4 = (l / kStates) * kStates;
      double acc = 0.0;
      for (int i = 0; i < kStates; ++i) {
        acc += wtable[i * kSiteBlock + l] * x3[c4 + i];
      }
      y3[l] = acc;
      max_abs = std::max(max_abs, std::abs(acc));
    }

    // Numerical scaling (paper Section V-A context; RAxML twotothe256).
    std::int32_t increment = 0;
    if (max_abs < kScaleThreshold) {
      for (int l = 0; l < kSiteBlock; ++l) y3[l] *= kScaleFactor;
      increment = 1;
    }
    const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[ls];
    const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[rs];
    ctx.parent_scale[s] = left_scale + right_scale + increment;
  }
}

/// kGather = true: CLA blocks are fetched through the per-site class maps
/// (left_gather always set; right_gather set iff the right side is inner).
template <bool kGather>
double evaluate_scalar(const EvaluateCtx& ctx) {
  double total = 0.0;
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const std::int64_t ls = kGather ? ctx.left_gather[s] : s;
    const double* yp = ctx.left_cla + ls * kSiteBlock;
    double site = 0.0;
    std::int32_t scales = ctx.left_scale ? ctx.left_scale[ls] : 0;
    if (ctx.right_codes != nullptr) {
      const double* tab = ctx.evtab + ctx.right_codes[s] * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) site += yp[l] * tab[l];
    } else {
      const std::int64_t rs = kGather ? ctx.right_gather[s] : s;
      const double* yq = ctx.right_cla + rs * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) site += yp[l] * yq[l] * ctx.diag[l];
      scales += ctx.right_scale ? ctx.right_scale[rs] : 0;
    }
    site = std::max(site, kLikelihoodFloor);
    total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
  }
  return total;
}

template <bool kGather>
void derivative_sum_scalar(SumCtx& ctx) {
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const std::int64_t ls = kGather ? ctx.left_gather[s] : s;
    const double* yp = ctx.left_cla + ls * kSiteBlock;
    double* out = ctx.sum + s * kSiteBlock;
    if (ctx.right_codes != nullptr) {
      const double* tv = ctx.tipvec16 + ctx.right_codes[s] * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) out[l] = yp[l] * tv[l];
    } else {
      const std::int64_t rs = kGather ? ctx.right_gather[s] : s;
      const double* yq = ctx.right_cla + rs * kSiteBlock;
      for (int l = 0; l < kSiteBlock; ++l) out[l] = yp[l] * yq[l];
    }
  }
}

void derivative_core_scalar(DerivCtx& ctx) {
  const double* d0 = ctx.dtab;
  const double* d1 = ctx.dtab + kSiteBlock;
  const double* d2 = ctx.dtab + 2 * kSiteBlock;
  double first = ctx.carry.first;
  double second = ctx.carry.second;
  double lnl = ctx.carry.lnl;
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const double* sb = ctx.sum + s * kSiteBlock;
    double l0 = 0.0, l1 = 0.0, l2 = 0.0;
    for (int l = 0; l < kSiteBlock; ++l) {
      l0 += sb[l] * d0[l];
      l1 += sb[l] * d1[l];
      l2 += sb[l] * d2[l];
    }
    l0 = std::max(l0, kLikelihoodFloor);
    const double inv = 1.0 / l0;
    const double t1 = l1 * inv;
    const double t2 = l2 * inv;
    const double w = ctx.weights[s];
    first += w * t1;
    second += w * (t2 - t1 * t1);
    if (ctx.want_lnl) lnl += w * std::log(l0);
  }
  ctx.carry.first = ctx.out_first = first;
  ctx.carry.second = ctx.out_second = second;
  ctx.carry.lnl = ctx.out_lnl = lnl;
}

void cla_checksum_scalar(sdc::ClaChecksum& sum, const double* cla, const std::int32_t* scale,
                         std::int64_t begin, std::int64_t end) {
  sum.update(cla, scale, begin, end);
}

}  // namespace

KernelOps scalar_kernel_ops() {
  KernelOps ops;
  ops.newview = &newview_scalar<false>;
  ops.evaluate = &evaluate_scalar<false>;
  ops.derivative_sum = &derivative_sum_scalar<false>;
  ops.derivative_core = &derivative_core_scalar;
  ops.newview_repeats = &newview_scalar<true>;
  ops.evaluate_gather = &evaluate_scalar<true>;
  ops.derivative_sum_gather = &derivative_sum_scalar<true>;
  ops.cla_checksum = &cla_checksum_scalar;
  ops.isa = simd::Isa::kScalar;
  return ops;
}

}  // namespace miniphi::core
