// Shared implementation of the general-state-count kernels, templated on
// the SIMD pack width (W = 1 gives the scalar reference; W = 4 / 8 are
// instantiated in translation units compiled with the matching -m flags).
//
// The inner loops are AXPY-style over the padded per-rate rows, which are
// contiguous and 64-byte aligned; Pack<1> degenerates to clean scalar code,
// so one implementation serves as both reference and vectorized version
// (they are compared against each other in tests anyway, with W=1 compiled
// without any vector flags).
#pragma once

#include <algorithm>
#include <cmath>

#include "src/core/general/general_kernels.hpp"
#include "src/simd/pack.hpp"

namespace miniphi::core {

template <int W>
struct GeneralSimdKernels {
  using P = simd::Pack<W>;
  static_assert(kMaxPaddedStates % W == 0);

  /// acc[0..padded) += coef * row[0..padded)
  static inline void axpy(double coef, const double* row, double* acc, int padded) {
    const P coefficient = P::broadcast(coef);
    for (int i = 0; i < padded; i += W) {
      P::fma(coefficient, P::load(row + i), P::load(acc + i)).store(acc + i);
    }
  }

  /// One child transform for one rate: out[i] = Σ_k y[k] · ptable[k-row][i].
  static inline void transform_rate(const double* ptable_rate, const double* y, double* out,
                                    int states, int padded) {
    for (int i = 0; i < padded; i += W) P::zero().store(out + i);
    for (int k = 0; k < states; ++k) {
      const double coef = y[k];
      if (coef != 0.0) axpy(coef, ptable_rate + static_cast<std::ptrdiff_t>(k) * padded, out, padded);
    }
  }

  static void newview(GNewviewCtx& ctx) {
    const GeneralDims dims = ctx.dims;
    const int padded = dims.padded;
    const int states = dims.states;
    const int block = dims.block();
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;

    alignas(64) double a[kMaxPaddedStates];
    alignas(64) double b[kMaxPaddedStates];
    alignas(64) double x3[kMaxPaddedStates];
    alignas(64) double y3[kMaxPaddedStates];

    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        if (!ctx.left.is_tip()) simd::prefetch_read(ctx.left.cla + (s + dist) * block);
        if (!ctx.right.is_tip()) simd::prefetch_read(ctx.right.cla + (s + dist) * block);
      }

      double max_abs = 0.0;
      double* out = ctx.parent_cla + s * block;
      for (int c = 0; c < dims.rates; ++c) {
        const double* av;
        const double* bv;
        if (ctx.left.is_tip()) {
          av = ctx.left.ump +
               (static_cast<std::ptrdiff_t>(ctx.left.codes[s]) * dims.rates + c) * padded;
        } else {
          transform_rate(ctx.left.ptable + static_cast<std::ptrdiff_t>(c) * states * padded,
                         ctx.left.cla + s * block + static_cast<std::ptrdiff_t>(c) * padded, a,
                         states, padded);
          av = a;
        }
        if (ctx.right.is_tip()) {
          bv = ctx.right.ump +
               (static_cast<std::ptrdiff_t>(ctx.right.codes[s]) * dims.rates + c) * padded;
        } else {
          transform_rate(ctx.right.ptable + static_cast<std::ptrdiff_t>(c) * states * padded,
                         ctx.right.cla + s * block + static_cast<std::ptrdiff_t>(c) * padded, b,
                         states, padded);
          bv = b;
        }

        for (int i = 0; i < padded; i += W) {
          (P::load(av + i) * P::load(bv + i)).store(x3 + i);
        }

        // y3 = W x3 (AXPY over eigen rows; padding lanes of wtable are 0).
        for (int k = 0; k < padded; k += W) P::zero().store(y3 + k);
        for (int i = 0; i < states; ++i) {
          const double coef = x3[i];
          if (coef != 0.0) {
            axpy(coef, ctx.wtable + static_cast<std::ptrdiff_t>(i) * padded, y3, padded);
          }
        }

        P vmax = P::abs(P::load(y3));
        for (int k = W; k < padded; k += W) vmax = P::max(vmax, P::abs(P::load(y3 + k)));
        max_abs = std::max(max_abs, vmax.horizontal_max());

        double* out_rate = out + static_cast<std::ptrdiff_t>(c) * padded;
        if (stream) {
          for (int k = 0; k < padded; k += W) P::load(y3 + k).stream(out_rate + k);
        } else {
          for (int k = 0; k < padded; k += W) P::load(y3 + k).store(out_rate + k);
        }
      }

      std::int32_t increment = 0;
      if (max_abs < kScaleThreshold) {
        // Rare: rescale the freshly written block in place.
        const P factor = P::broadcast(kScaleFactor);
        for (int k = 0; k < block; k += W) (P::load(out + k) * factor).store(out + k);
        increment = 1;
      }
      const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[s];
      const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[s];
      ctx.parent_scale[s] = left_scale + right_scale + increment;
    }
    if (stream) simd::stream_fence();
  }

  static double evaluate(const GEvaluateCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    double total = 0.0;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const double* yp = ctx.left_cla + s * block;
      P acc = P::zero();
      if (ctx.right_codes != nullptr) {
        const double* tab =
            ctx.evtab + static_cast<std::ptrdiff_t>(ctx.right_codes[s]) * block;
        for (int k = 0; k < block; k += W) {
          acc = P::fma(P::load(yp + k), P::load(tab + k), acc);
        }
      } else {
        const double* yq = ctx.right_cla + s * block;
        for (int k = 0; k < block; k += W) {
          acc = P::fma(P::load(yp + k) * P::load(yq + k), P::load(ctx.diag + k), acc);
        }
      }
      double site = std::max(acc.horizontal_sum(), kLikelihoodFloor);
      const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[s] : 0) +
                                  (ctx.right_scale ? ctx.right_scale[s] : 0);
      total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
    }
    return total;
  }

  static void derivative_sum(GSumCtx& ctx) {
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        simd::prefetch_read(ctx.left_cla + (s + dist) * block);
        if (ctx.right_cla != nullptr) simd::prefetch_read(ctx.right_cla + (s + dist) * block);
      }
      const double* yp = ctx.left_cla + s * block;
      const double* yq = (ctx.right_codes != nullptr)
                             ? ctx.tipvec + static_cast<std::ptrdiff_t>(ctx.right_codes[s]) * block
                             : ctx.right_cla + s * block;
      double* out = ctx.sum + s * block;
      for (int k = 0; k < block; k += W) {
        const P prod = P::load(yp + k) * P::load(yq + k);
        if (stream) {
          prod.stream(out + k);
        } else {
          prod.store(out + k);
        }
      }
    }
    if (stream) simd::stream_fence();
  }

  static void derivative_core(GDerivCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    const GeneralDims dims = ctx.dims;
    const int block = dims.block();
    const double* d0 = ctx.dtab;
    const double* d1 = ctx.dtab + block;
    const double* d2 = ctx.dtab + 2 * block;
    double first = ctx.carry.first;
    double second = ctx.carry.second;
    double lnl = ctx.carry.lnl;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const double* sb = ctx.sum + s * block;
      P a0 = P::zero();
      P a1 = P::zero();
      P a2 = P::zero();
      for (int k = 0; k < block; k += W) {
        const P v = P::load(sb + k);
        a0 = P::fma(v, P::load(d0 + k), a0);
        a1 = P::fma(v, P::load(d1 + k), a1);
        a2 = P::fma(v, P::load(d2 + k), a2);
      }
      const double l0 = std::max(a0.horizontal_sum(), kLikelihoodFloor);
      const double inv = 1.0 / l0;
      const double t1 = a1.horizontal_sum() * inv;
      const double t2 = a2.horizontal_sum() * inv;
      const double w = ctx.weights[s];
      first += w * t1;
      second += w * (t2 - t1 * t1);
      if (ctx.want_lnl) lnl += w * std::log(l0);
    }
    ctx.carry.first = ctx.out_first = first;
    ctx.carry.second = ctx.out_second = second;
    ctx.carry.lnl = ctx.out_lnl = lnl;
  }

  static GeneralKernelOps ops(simd::Isa isa) {
    GeneralKernelOps out;
    out.newview = &newview;
    out.evaluate = &evaluate;
    out.derivative_sum = &derivative_sum;
    out.derivative_core = &derivative_core;
    out.isa = isa;
    return out;
  }
};

}  // namespace miniphi::core
