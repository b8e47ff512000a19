// Vectorized CAT kernels.
//
// W = 4: one 32-byte site block per 256-bit register; every access is
// naturally aligned.  W = 8: two sites per 512-bit register — the per-site
// transform tables are assembled from two independently addressed 256-bit
// halves (Pack<8>::concat), which is the "special care ... to keep accesses
// aligned" the paper describes for CAT in Section V-B2.  Odd leading /
// trailing sites take the one-site path.
#pragma once

#include <algorithm>
#include <cmath>

#include "src/core/cat/cat_kernels.hpp"
#include "src/simd/pack.hpp"

namespace miniphi::core {

#if defined(__AVX2__)
/// One-site CAT operations on 256-bit packs (used by both the AVX2 back-end
/// and the odd-site path of the AVX-512 back-end).
struct CatSite4 {
  using P4 = simd::Pack<4>;

  /// a = U e^{Λ r_cat z} y  for one site (table = ptable + cat*16).
  static inline P4 transform(const double* table, P4 y) {
    P4 acc = P4::load(table + 0) * P4::template quad_broadcast<0>(y);
    acc = P4::fma(P4::load(table + 4), P4::template quad_broadcast<1>(y), acc);
    acc = P4::fma(P4::load(table + 8), P4::template quad_broadcast<2>(y), acc);
    acc = P4::fma(P4::load(table + 12), P4::template quad_broadcast<3>(y), acc);
    return acc;
  }

  static inline void newview_site(CatNewviewCtx& ctx, std::int64_t s) {
    const int cat = ctx.site_categories[s];
    P4 a;
    P4 b;
    if (ctx.left.is_tip()) {
      a = P4::load(ctx.left.ump + (cat * 16 + ctx.left.codes[s]) * kCatSiteBlock);
    } else {
      a = transform(ctx.left.ptable + cat * 16, P4::load(ctx.left.cla + s * kCatSiteBlock));
    }
    if (ctx.right.is_tip()) {
      b = P4::load(ctx.right.ump + (cat * 16 + ctx.right.codes[s]) * kCatSiteBlock);
    } else {
      b = transform(ctx.right.ptable + cat * 16, P4::load(ctx.right.cla + s * kCatSiteBlock));
    }
    const P4 x3 = a * b;
    P4 y3 = P4::load(ctx.wtable + 0) * P4::template quad_broadcast<0>(x3);
    y3 = P4::fma(P4::load(ctx.wtable + 4), P4::template quad_broadcast<1>(x3), y3);
    y3 = P4::fma(P4::load(ctx.wtable + 8), P4::template quad_broadcast<2>(x3), y3);
    y3 = P4::fma(P4::load(ctx.wtable + 12), P4::template quad_broadcast<3>(x3), y3);

    double* out = ctx.parent_cla + s * kCatSiteBlock;
    std::int32_t increment = 0;
    if (P4::abs(y3).horizontal_max() < kScaleThreshold) {
      y3 = y3 * P4::broadcast(kScaleFactor);
      increment = 1;
    }
    y3.store(out);
    const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[s];
    const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[s];
    ctx.parent_scale[s] = left_scale + right_scale + increment;
  }

  static inline double evaluate_site(const CatEvaluateCtx& ctx, std::int64_t s) {
    const int cat = ctx.site_categories[s];
    const P4 yp = P4::load(ctx.left_cla + s * kCatSiteBlock);
    P4 prod;
    if (ctx.right_codes != nullptr) {
      prod = yp * P4::load(ctx.evtab + (cat * 16 + ctx.right_codes[s]) * kCatSiteBlock);
    } else {
      prod = yp * P4::load(ctx.right_cla + s * kCatSiteBlock) *
             P4::load(ctx.diag + cat * kCatSiteBlock);
    }
    return prod.horizontal_sum();
  }
};

/// Full kernel set for W = 4 (AVX2) — one site per vector operation.
struct CatKernels4 {
  static void newview(CatNewviewCtx& ctx) {
    const std::int64_t dist = ctx.tuning.prefetch_distance;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        if (!ctx.left.is_tip()) simd::prefetch_read(ctx.left.cla + (s + dist) * kCatSiteBlock);
        if (!ctx.right.is_tip()) {
          simd::prefetch_read(ctx.right.cla + (s + dist) * kCatSiteBlock);
        }
      }
      CatSite4::newview_site(ctx, s);
    }
  }

  static double evaluate(const CatEvaluateCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    double total = 0.0;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const double site = std::max(CatSite4::evaluate_site(ctx, s), kLikelihoodFloor);
      const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[s] : 0) +
                                  (ctx.right_scale ? ctx.right_scale[s] : 0);
      total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
    }
    return total;
  }

  static void derivative_sum(CatSumCtx& ctx) {
    using P4 = simd::Pack<4>;
    const bool stream = ctx.tuning.streaming_stores;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const P4 yp = P4::load(ctx.left_cla + s * kCatSiteBlock);
      const P4 yq = (ctx.right_codes != nullptr)
                        ? P4::load(ctx.tipvec + ctx.right_codes[s] * kCatSiteBlock)
                        : P4::load(ctx.right_cla + s * kCatSiteBlock);
      const P4 prod = yp * yq;
      if (stream) {
        prod.stream(ctx.sum + s * kCatSiteBlock);
      } else {
        prod.store(ctx.sum + s * kCatSiteBlock);
      }
    }
    if (stream) simd::stream_fence();
  }

  static void derivative_core(CatDerivCtx& ctx) {
    using P4 = simd::Pack<4>;
    constexpr double kLikelihoodFloor = 1e-300;
    constexpr int kStride = kMaxCatCategories * kCatSiteBlock;
    double first = ctx.carry.first;
    double second = ctx.carry.second;
    double lnl = ctx.carry.lnl;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      const int cat = ctx.site_categories[s];
      const P4 sb = P4::load(ctx.sum + s * kCatSiteBlock);
      const double l0 = std::max((sb * P4::load(ctx.dtab + cat * kCatSiteBlock)).horizontal_sum(),
                                 kLikelihoodFloor);
      const double l1 =
          (sb * P4::load(ctx.dtab + kStride + cat * kCatSiteBlock)).horizontal_sum();
      const double l2 =
          (sb * P4::load(ctx.dtab + 2 * kStride + cat * kCatSiteBlock)).horizontal_sum();
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

  static CatKernelOps ops() {
    CatKernelOps out;
    out.newview = &newview;
    out.evaluate = &evaluate;
    out.derivative_sum = &derivative_sum;
    out.derivative_core = &derivative_core;
    out.isa = simd::Isa::kAvx2;
    return out;
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__)
/// Full kernel set for W = 8 (AVX-512) — two sites per vector operation,
/// per-site tables concatenated from aligned 256-bit halves.
struct CatKernels8 {
  using P8 = simd::Pack<8>;
  using P4 = simd::Pack<4>;

  /// Two-site transform: y holds sites (s, s+1); tables may differ per site.
  static inline P8 transform_pair(const double* table_lo, const double* table_hi, P8 y) {
    P8 acc = P8::concat(table_lo + 0, table_hi + 0) * P8::template quad_broadcast<0>(y);
    acc = P8::fma(P8::concat(table_lo + 4, table_hi + 4), P8::template quad_broadcast<1>(y), acc);
    acc = P8::fma(P8::concat(table_lo + 8, table_hi + 8), P8::template quad_broadcast<2>(y), acc);
    acc =
        P8::fma(P8::concat(table_lo + 12, table_hi + 12), P8::template quad_broadcast<3>(y), acc);
    return acc;
  }

  static void newview(CatNewviewCtx& ctx) {
    std::int64_t s = ctx.begin;
    // Align to an even site index so paired 512-bit loads are 64-B aligned.
    if ((s & 1) != 0 && s < ctx.end) {
      CatSite4::newview_site(ctx, s);
      ++s;
    }
    const std::int64_t dist = ctx.tuning.prefetch_distance;
    for (; s + 1 < ctx.end; s += 2) {
      if (dist > 0 && s + dist < ctx.end) {
        if (!ctx.left.is_tip()) simd::prefetch_read(ctx.left.cla + (s + dist) * kCatSiteBlock);
        if (!ctx.right.is_tip()) {
          simd::prefetch_read(ctx.right.cla + (s + dist) * kCatSiteBlock);
        }
      }
      const int cat0 = ctx.site_categories[s];
      const int cat1 = ctx.site_categories[s + 1];
      P8 a;
      P8 b;
      if (ctx.left.is_tip()) {
        a = P8::concat(ctx.left.ump + (cat0 * 16 + ctx.left.codes[s]) * kCatSiteBlock,
                       ctx.left.ump + (cat1 * 16 + ctx.left.codes[s + 1]) * kCatSiteBlock);
      } else {
        a = transform_pair(ctx.left.ptable + cat0 * 16, ctx.left.ptable + cat1 * 16,
                           P8::load(ctx.left.cla + s * kCatSiteBlock));
      }
      if (ctx.right.is_tip()) {
        b = P8::concat(ctx.right.ump + (cat0 * 16 + ctx.right.codes[s]) * kCatSiteBlock,
                       ctx.right.ump + (cat1 * 16 + ctx.right.codes[s + 1]) * kCatSiteBlock);
      } else {
        b = transform_pair(ctx.right.ptable + cat0 * 16, ctx.right.ptable + cat1 * 16,
                           P8::load(ctx.right.cla + s * kCatSiteBlock));
      }
      const P8 x3 = a * b;
      // W transform is category-independent: same 16-double table both halves.
      P8 y3 = P8::concat(ctx.wtable + 0, ctx.wtable + 0) * P8::template quad_broadcast<0>(x3);
      y3 = P8::fma(P8::concat(ctx.wtable + 4, ctx.wtable + 4),
                   P8::template quad_broadcast<1>(x3), y3);
      y3 = P8::fma(P8::concat(ctx.wtable + 8, ctx.wtable + 8),
                   P8::template quad_broadcast<2>(x3), y3);
      y3 = P8::fma(P8::concat(ctx.wtable + 12, ctx.wtable + 12),
                   P8::template quad_broadcast<3>(x3), y3);

      // Per-SITE scaling decision (halves are distinct sites).
      const double max_lo = P4::abs(y3.lower_half()).horizontal_max();
      const double max_hi = P4::abs(y3.upper_half()).horizontal_max();
      double* out = ctx.parent_cla + s * kCatSiteBlock;
      if (max_lo >= kScaleThreshold && max_hi >= kScaleThreshold) {
        if (ctx.tuning.streaming_stores) {
          y3.stream(out);
        } else {
          y3.store(out);
        }
        const std::int32_t l0 = ctx.left.is_tip() ? 0 : ctx.left.scale[s];
        const std::int32_t r0 = ctx.right.is_tip() ? 0 : ctx.right.scale[s];
        const std::int32_t l1 = ctx.left.is_tip() ? 0 : ctx.left.scale[s + 1];
        const std::int32_t r1 = ctx.right.is_tip() ? 0 : ctx.right.scale[s + 1];
        ctx.parent_scale[s] = l0 + r0;
        ctx.parent_scale[s + 1] = l1 + r1;
      } else {
        // Rare underflow path: rescale the affected site(s) individually.
        P4 lo = y3.lower_half();
        P4 hi = y3.upper_half();
        std::int32_t inc0 = 0;
        std::int32_t inc1 = 0;
        if (max_lo < kScaleThreshold) {
          lo = lo * P4::broadcast(kScaleFactor);
          inc0 = 1;
        }
        if (max_hi < kScaleThreshold) {
          hi = hi * P4::broadcast(kScaleFactor);
          inc1 = 1;
        }
        lo.store(out);
        hi.store(out + kCatSiteBlock);
        ctx.parent_scale[s] =
            (ctx.left.is_tip() ? 0 : ctx.left.scale[s]) +
            (ctx.right.is_tip() ? 0 : ctx.right.scale[s]) + inc0;
        ctx.parent_scale[s + 1] =
            (ctx.left.is_tip() ? 0 : ctx.left.scale[s + 1]) +
            (ctx.right.is_tip() ? 0 : ctx.right.scale[s + 1]) + inc1;
      }
    }
    if (s < ctx.end) CatSite4::newview_site(ctx, s);
    if (ctx.tuning.streaming_stores) simd::stream_fence();
  }

  static double evaluate(const CatEvaluateCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    double total = 0.0;
    std::int64_t s = ctx.begin;
    const auto accumulate_site = [&](std::int64_t site_index, double site_value) {
      const double site = std::max(site_value, kLikelihoodFloor);
      const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[site_index] : 0) +
                                  (ctx.right_scale ? ctx.right_scale[site_index] : 0);
      total += ctx.weights[site_index] * (std::log(site) + scales * kLogScaleThreshold);
    };
    if ((s & 1) != 0 && s < ctx.end) {
      accumulate_site(s, CatSite4::evaluate_site(ctx, s));
      ++s;
    }
    for (; s + 1 < ctx.end; s += 2) {
      const int cat0 = ctx.site_categories[s];
      const int cat1 = ctx.site_categories[s + 1];
      const P8 yp = P8::load(ctx.left_cla + s * kCatSiteBlock);
      P8 prod;
      if (ctx.right_codes != nullptr) {
        prod = yp * P8::concat(ctx.evtab + (cat0 * 16 + ctx.right_codes[s]) * kCatSiteBlock,
                               ctx.evtab + (cat1 * 16 + ctx.right_codes[s + 1]) * kCatSiteBlock);
      } else {
        prod = yp * P8::load(ctx.right_cla + s * kCatSiteBlock) *
               P8::concat(ctx.diag + cat0 * kCatSiteBlock, ctx.diag + cat1 * kCatSiteBlock);
      }
      accumulate_site(s, prod.lower_half().horizontal_sum());
      accumulate_site(s + 1, prod.upper_half().horizontal_sum());
    }
    if (s < ctx.end) accumulate_site(s, CatSite4::evaluate_site(ctx, s));
    return total;
  }

  static void derivative_sum(CatSumCtx& ctx) {
    // Pure element-wise product; tips need per-site table lookups, inner
    // children stream straight through two sites at a time.
    const bool stream = ctx.tuning.streaming_stores;
    std::int64_t s = ctx.begin;
    if ((s & 1) != 0 && s < ctx.end) {
      const P4 yp = P4::load(ctx.left_cla + s * kCatSiteBlock);
      const P4 yq = (ctx.right_codes != nullptr)
                        ? P4::load(ctx.tipvec + ctx.right_codes[s] * kCatSiteBlock)
                        : P4::load(ctx.right_cla + s * kCatSiteBlock);
      (yp * yq).store(ctx.sum + s * kCatSiteBlock);
      ++s;
    }
    for (; s + 1 < ctx.end; s += 2) {
      const P8 yp = P8::load(ctx.left_cla + s * kCatSiteBlock);
      const P8 yq =
          (ctx.right_codes != nullptr)
              ? P8::concat(ctx.tipvec + ctx.right_codes[s] * kCatSiteBlock,
                           ctx.tipvec + ctx.right_codes[s + 1] * kCatSiteBlock)
              : P8::load(ctx.right_cla + s * kCatSiteBlock);
      const P8 prod = yp * yq;
      if (stream) {
        prod.stream(ctx.sum + s * kCatSiteBlock);
      } else {
        prod.store(ctx.sum + s * kCatSiteBlock);
      }
    }
    if (s < ctx.end) {
      const P4 yp = P4::load(ctx.left_cla + s * kCatSiteBlock);
      const P4 yq = (ctx.right_codes != nullptr)
                        ? P4::load(ctx.tipvec + ctx.right_codes[s] * kCatSiteBlock)
                        : P4::load(ctx.right_cla + s * kCatSiteBlock);
      (yp * yq).store(ctx.sum + s * kCatSiteBlock);
    }
    if (stream) simd::stream_fence();
  }

  static void derivative_core(CatDerivCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    constexpr int kStride = kMaxCatCategories * kCatSiteBlock;
    double first = ctx.carry.first;
    double second = ctx.carry.second;
    double lnl = ctx.carry.lnl;
    const auto site_epilogue = [&](std::int64_t site_index, double l0, double l1, double l2) {
      l0 = std::max(l0, kLikelihoodFloor);
      const double inv = 1.0 / l0;
      const double t1 = l1 * inv;
      const double t2 = l2 * inv;
      const double w = ctx.weights[site_index];
      first += w * t1;
      second += w * (t2 - t1 * t1);
      if (ctx.want_lnl) lnl += w * std::log(l0);
    };
    const auto scalar_site = [&](std::int64_t site_index) {
      const int cat = ctx.site_categories[site_index];
      const P4 sb = P4::load(ctx.sum + site_index * kCatSiteBlock);
      site_epilogue(
          site_index, (sb * P4::load(ctx.dtab + cat * kCatSiteBlock)).horizontal_sum(),
          (sb * P4::load(ctx.dtab + kStride + cat * kCatSiteBlock)).horizontal_sum(),
          (sb * P4::load(ctx.dtab + 2 * kStride + cat * kCatSiteBlock)).horizontal_sum());
    };
    std::int64_t s = ctx.begin;
    if ((s & 1) != 0 && s < ctx.end) {
      scalar_site(s);
      ++s;
    }
    for (; s + 1 < ctx.end; s += 2) {
      const int cat0 = ctx.site_categories[s];
      const int cat1 = ctx.site_categories[s + 1];
      const P8 sb = P8::load(ctx.sum + s * kCatSiteBlock);
      const P8 p0 = sb * P8::concat(ctx.dtab + cat0 * kCatSiteBlock,
                                    ctx.dtab + cat1 * kCatSiteBlock);
      const P8 p1 = sb * P8::concat(ctx.dtab + kStride + cat0 * kCatSiteBlock,
                                    ctx.dtab + kStride + cat1 * kCatSiteBlock);
      const P8 p2 = sb * P8::concat(ctx.dtab + 2 * kStride + cat0 * kCatSiteBlock,
                                    ctx.dtab + 2 * kStride + cat1 * kCatSiteBlock);
      site_epilogue(s, p0.lower_half().horizontal_sum(), p1.lower_half().horizontal_sum(),
                    p2.lower_half().horizontal_sum());
      site_epilogue(s + 1, p0.upper_half().horizontal_sum(), p1.upper_half().horizontal_sum(),
                    p2.upper_half().horizontal_sum());
    }
    for (; s < ctx.end; ++s) scalar_site(s);
    ctx.carry.first = ctx.out_first = first;
    ctx.carry.second = ctx.out_second = second;
    ctx.carry.lnl = ctx.out_lnl = lnl;
  }

  static CatKernelOps ops() {
    CatKernelOps out;
    out.newview = &newview;
    out.evaluate = &evaluate;
    out.derivative_sum = &derivative_sum;
    out.derivative_core = &derivative_core;
    out.isa = simd::Isa::kAvx512;
    return out;
  }
};
#endif  // __AVX512F__

}  // namespace miniphi::core
