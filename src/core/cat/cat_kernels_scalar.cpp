// Portable scalar reference implementation of the CAT-model kernels; the
// semantics the vectorized back-ends are tested against.
#include <algorithm>
#include <cmath>

#include "src/core/cat/cat_kernels.hpp"

namespace miniphi::core {
namespace {

constexpr double kLikelihoodFloor = 1e-300;
constexpr int kS = kCatSiteBlock;  // 4

void cat_newview_scalar(CatNewviewCtx& ctx) {
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const int cat = ctx.site_categories[s];
    double a_buf[kS];
    double b_buf[kS];
    const double* a;
    const double* b;

    if (ctx.left.is_tip()) {
      a = ctx.left.ump + (cat * 16 + ctx.left.codes[s]) * kS;
    } else {
      const double* y1 = ctx.left.cla + s * kS;
      const double* table = ctx.left.ptable + cat * 16;
      for (int i = 0; i < kS; ++i) {
        double acc = 0.0;
        for (int k = 0; k < kS; ++k) acc += table[k * kS + i] * y1[k];
        a_buf[i] = acc;
      }
      a = a_buf;
    }
    if (ctx.right.is_tip()) {
      b = ctx.right.ump + (cat * 16 + ctx.right.codes[s]) * kS;
    } else {
      const double* y2 = ctx.right.cla + s * kS;
      const double* table = ctx.right.ptable + cat * 16;
      for (int i = 0; i < kS; ++i) {
        double acc = 0.0;
        for (int k = 0; k < kS; ++k) acc += table[k * kS + i] * y2[k];
        b_buf[i] = acc;
      }
      b = b_buf;
    }

    double x3[kS];
    for (int i = 0; i < kS; ++i) x3[i] = a[i] * b[i];

    double* y3 = ctx.parent_cla + s * kS;
    double max_abs = 0.0;
    for (int k = 0; k < kS; ++k) {
      double acc = 0.0;
      for (int i = 0; i < kS; ++i) acc += ctx.wtable[i * kS + k] * x3[i];
      y3[k] = acc;
      max_abs = std::max(max_abs, std::abs(acc));
    }

    std::int32_t increment = 0;
    if (max_abs < kScaleThreshold) {
      for (int k = 0; k < kS; ++k) y3[k] *= kScaleFactor;
      increment = 1;
    }
    const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[s];
    const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[s];
    ctx.parent_scale[s] = left_scale + right_scale + increment;
  }
}

double cat_evaluate_scalar(const CatEvaluateCtx& ctx) {
  double total = 0.0;
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const int cat = ctx.site_categories[s];
    const double* yp = ctx.left_cla + s * kS;
    double site = 0.0;
    if (ctx.right_codes != nullptr) {
      const double* tab = ctx.evtab + (cat * 16 + ctx.right_codes[s]) * kS;
      for (int k = 0; k < kS; ++k) site += yp[k] * tab[k];
    } else {
      const double* yq = ctx.right_cla + s * kS;
      const double* diag = ctx.diag + cat * kS;
      for (int k = 0; k < kS; ++k) site += yp[k] * yq[k] * diag[k];
    }
    const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[s] : 0) +
                                (ctx.right_scale ? ctx.right_scale[s] : 0);
    site = std::max(site, kLikelihoodFloor);
    total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
  }
  return total;
}

void cat_derivative_sum_scalar(CatSumCtx& ctx) {
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const double* yp = ctx.left_cla + s * kS;
    double* out = ctx.sum + s * kS;
    if (ctx.right_codes != nullptr) {
      const double* tv = ctx.tipvec + ctx.right_codes[s] * kS;
      for (int k = 0; k < kS; ++k) out[k] = yp[k] * tv[k];
    } else {
      const double* yq = ctx.right_cla + s * kS;
      for (int k = 0; k < kS; ++k) out[k] = yp[k] * yq[k];
    }
  }
}

void cat_derivative_core_scalar(CatDerivCtx& ctx) {
  constexpr int kStride = kMaxCatCategories * kS;
  double first = ctx.carry.first;
  double second = ctx.carry.second;
  double lnl = ctx.carry.lnl;
  for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
    const int cat = ctx.site_categories[s];
    const double* sb = ctx.sum + s * kS;
    const double* d0 = ctx.dtab + cat * kS;
    const double* d1 = ctx.dtab + kStride + cat * kS;
    const double* d2 = ctx.dtab + 2 * kStride + cat * kS;
    double l0 = 0.0, l1 = 0.0, l2 = 0.0;
    for (int k = 0; k < kS; ++k) {
      l0 += sb[k] * d0[k];
      l1 += sb[k] * d1[k];
      l2 += sb[k] * d2[k];
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

}  // namespace

CatKernelOps cat_scalar_kernel_ops() {
  CatKernelOps ops;
  ops.newview = &cat_newview_scalar;
  ops.evaluate = &cat_evaluate_scalar;
  ops.derivative_sum = &cat_derivative_sum_scalar;
  ops.derivative_core = &cat_derivative_core_scalar;
  ops.isa = simd::Isa::kScalar;
  return ops;
}

}  // namespace miniphi::core
