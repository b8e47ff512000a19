// Shared vectorized implementation of the four PLF kernels, templated on
// the SIMD pack width.  Instantiated once per ISA translation unit
// (kernels_avx2.cpp with W=4, kernels_avx512.cpp with W=8) so each copy is
// compiled with the matching -m flags — one algorithm, per-ISA inner loops,
// exactly the structure the paper describes in Section V-B.
//
// Optimizations mapped to the paper:
//   V-B2  all loads/stores are aligned (CLA blocks are 128 B on a 64 B base)
//   V-B3  the 1×4·4×4 products for all 4 Γ rates run as one 16-lane loop:
//         4 quad-broadcast + FMA steps per child
//   V-B4  derivativeCore processes sites in blocks of 8 so the per-site
//         scalar epilogue (division, accumulation) becomes vector ops
//   V-B5  parent CLA and sum buffer can be written with streaming stores
//         (KernelTuning::streaming_stores; off by default on the host)
//   V-B6  software prefetch with a tunable distance on the streaming reads
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "src/core/kernels.hpp"
#include "src/simd/pack.hpp"

namespace miniphi::core {

template <int W>
struct SimdKernels {
  using P = simd::Pack<W>;
  static constexpr int kBlocks = kSiteBlock / W;  ///< vectors per site block
  static_assert(kSiteBlock % W == 0);

  /// a = U e^{Λz} y for one site: 4 quad-broadcast/FMA steps per vector.
  static inline void transform(const double* table, const double* y, P (&out)[kBlocks]) {
    for (int b = 0; b < kBlocks; ++b) {
      const P yv = P::load(y + b * W);
      P acc = P::load(table + 0 * kSiteBlock + b * W) * P::template quad_broadcast<0>(yv);
      acc = P::fma(P::load(table + 1 * kSiteBlock + b * W), P::template quad_broadcast<1>(yv), acc);
      acc = P::fma(P::load(table + 2 * kSiteBlock + b * W), P::template quad_broadcast<2>(yv), acc);
      acc = P::fma(P::load(table + 3 * kSiteBlock + b * W), P::template quad_broadcast<3>(yv), acc);
      out[b] = acc;
    }
  }

  /// kRepeats = false: s is a site, children indexed by s.
  /// kRepeats = true:  s is a parent repeat class, children indexed through
  ///                   ChildInput::gather (block index / tip code).
  template <bool kRepeats>
  static void newview(NewviewCtx& ctx) {
    const double* wtable = ctx.wtable;
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;

    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        if (!ctx.left.is_tip()) {
          const std::int64_t ahead = kRepeats ? ctx.left.gather[s + dist] : s + dist;
          simd::prefetch_read(ctx.left.cla + ahead * kSiteBlock);
        }
        if (!ctx.right.is_tip()) {
          const std::int64_t ahead = kRepeats ? ctx.right.gather[s + dist] : s + dist;
          simd::prefetch_read(ctx.right.cla + ahead * kSiteBlock);
        }
      }

      const std::int64_t ls = kRepeats ? ctx.left.gather[s] : s;
      const std::int64_t rs = kRepeats ? ctx.right.gather[s] : s;
      P a[kBlocks];
      P b[kBlocks];
      if (ctx.left.is_tip()) {
        const std::int64_t code = kRepeats ? ls : ctx.left.codes[s];
        const double* tab = ctx.left.ump + code * kSiteBlock;
        for (int blk = 0; blk < kBlocks; ++blk) a[blk] = P::load(tab + blk * W);
      } else {
        transform(ctx.left.ptable, ctx.left.cla + ls * kSiteBlock, a);
      }
      if (ctx.right.is_tip()) {
        const std::int64_t code = kRepeats ? rs : ctx.right.codes[s];
        const double* tab = ctx.right.ump + code * kSiteBlock;
        for (int blk = 0; blk < kBlocks; ++blk) b[blk] = P::load(tab + blk * W);
      } else {
        transform(ctx.right.ptable, ctx.right.cla + rs * kSiteBlock, b);
      }

      // x₃ = a ∘ b, then y₃ = W x₃ with the same quad-broadcast scheme.
      alignas(64) double x3[kSiteBlock];
      for (int blk = 0; blk < kBlocks; ++blk) (a[blk] * b[blk]).store(x3 + blk * W);

      P y3[kBlocks];
      transform(wtable, x3, y3);

      P vmax = P::abs(y3[0]);
      for (int blk = 1; blk < kBlocks; ++blk) vmax = P::max(vmax, P::abs(y3[blk]));
      const double max_abs = vmax.horizontal_max();

      double* out = ctx.parent_cla + s * kSiteBlock;
      std::int32_t increment = 0;
      if (max_abs < kScaleThreshold) {
        const P factor = P::broadcast(kScaleFactor);
        for (int blk = 0; blk < kBlocks; ++blk) y3[blk] = y3[blk] * factor;
        increment = 1;
      }
      if (stream) {
        for (int blk = 0; blk < kBlocks; ++blk) y3[blk].stream(out + blk * W);
      } else {
        for (int blk = 0; blk < kBlocks; ++blk) y3[blk].store(out + blk * W);
      }

      const std::int32_t left_scale = ctx.left.is_tip() ? 0 : ctx.left.scale[ls];
      const std::int32_t right_scale = ctx.right.is_tip() ? 0 : ctx.right.scale[rs];
      ctx.parent_scale[s] = left_scale + right_scale + increment;
    }
    if (stream) simd::stream_fence();
  }

  /// kGather = true: CLA blocks fetched through the per-site class maps
  /// (left_gather always set; right_gather set iff the right side is inner).
  template <bool kGather>
  static double evaluate(const EvaluateCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    double total = 0.0;
    if (ctx.right_codes != nullptr) {
      for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
        const std::int64_t lb = kGather ? ctx.left_gather[s] : s;
        const double* yp = ctx.left_cla + lb * kSiteBlock;
        const double* tab = ctx.evtab + ctx.right_codes[s] * kSiteBlock;
        P acc = P::load(yp) * P::load(tab);
        for (int blk = 1; blk < kBlocks; ++blk) {
          acc = P::fma(P::load(yp + blk * W), P::load(tab + blk * W), acc);
        }
        double site = std::max(acc.horizontal_sum(), kLikelihoodFloor);
        const std::int32_t scales = ctx.left_scale ? ctx.left_scale[lb] : 0;
        total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
      }
    } else {
      for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
        const std::int64_t lb = kGather ? ctx.left_gather[s] : s;
        const std::int64_t rb = kGather ? ctx.right_gather[s] : s;
        const double* yp = ctx.left_cla + lb * kSiteBlock;
        const double* yq = ctx.right_cla + rb * kSiteBlock;
        P acc = P::zero();
        for (int blk = 0; blk < kBlocks; ++blk) {
          const P prod = P::load(yp + blk * W) * P::load(yq + blk * W);
          acc = P::fma(prod, P::load(ctx.diag + blk * W), acc);
        }
        double site = std::max(acc.horizontal_sum(), kLikelihoodFloor);
        const std::int32_t scales = (ctx.left_scale ? ctx.left_scale[lb] : 0) +
                                    (ctx.right_scale ? ctx.right_scale[rb] : 0);
        total += ctx.weights[s] * (std::log(site) + scales * kLogScaleThreshold);
      }
    }
    return total;
  }

  template <bool kGather>
  static void derivative_sum(SumCtx& ctx) {
    // The paper's Figure 2 loop: a pure element-wise product over 16 lanes,
    // optionally written with streaming stores (Section V-B5).
    const bool stream = ctx.tuning.streaming_stores;
    const std::int64_t dist = ctx.tuning.prefetch_distance;
    for (std::int64_t s = ctx.begin; s < ctx.end; ++s) {
      if (dist > 0 && s + dist < ctx.end) {
        const std::int64_t la = kGather ? ctx.left_gather[s + dist] : s + dist;
        simd::prefetch_read(ctx.left_cla + la * kSiteBlock);
        if (ctx.right_cla != nullptr) {
          const std::int64_t ra =
              (kGather && ctx.right_gather != nullptr) ? ctx.right_gather[s + dist] : s + dist;
          simd::prefetch_read(ctx.right_cla + ra * kSiteBlock);
        }
      }
      const std::int64_t lb = kGather ? ctx.left_gather[s] : s;
      const double* yp = ctx.left_cla + lb * kSiteBlock;
      const double* yq =
          (ctx.right_codes != nullptr)
              ? ctx.tipvec16 + ctx.right_codes[s] * kSiteBlock
              : ctx.right_cla + (kGather ? ctx.right_gather[s] : s) * kSiteBlock;
      double* out = ctx.sum + s * kSiteBlock;
      for (int blk = 0; blk < kBlocks; ++blk) {
        const P prod = P::load(yp + blk * W) * P::load(yq + blk * W);
        if (stream) {
          prod.stream(out + blk * W);
        } else {
          prod.store(out + blk * W);
        }
      }
    }
    if (stream) simd::stream_fence();
  }

  static void derivative_core(DerivCtx& ctx) {
    constexpr double kLikelihoodFloor = 1e-300;
    constexpr int kSiteGroup = kDerivSiteGroup;  // paper Section V-B4: blocks of 8 sites
    static_assert(W <= kSiteGroup);
    const double* d0 = ctx.dtab;
    const double* d1 = ctx.dtab + kSiteBlock;
    const double* d2 = ctx.dtab + 2 * kSiteBlock;

    // Continue from the carry (DerivCarry): the group sums live in their
    // vector lanes, the tail and the projection in their scalar chains.
    P first_acc = P::load(ctx.carry.first_lanes);
    P second_acc = P::load(ctx.carry.second_lanes);
    double first_tail = ctx.carry.first;
    double second_tail = ctx.carry.second;
    double lnl = ctx.carry.lnl;

    std::int64_t s = ctx.begin;
    for (; s + kSiteGroup <= ctx.end; s += kSiteGroup) {
      // Phase 1 (vector): three 16-lane dot products per site.
      alignas(64) double l0[kSiteGroup];
      alignas(64) double l1[kSiteGroup];
      alignas(64) double l2[kSiteGroup];
      alignas(64) double wd[kSiteGroup];
      for (int j = 0; j < kSiteGroup; ++j) {
        const double* sb = ctx.sum + (s + j) * kSiteBlock;
        P a0 = P::load(sb) * P::load(d0);
        P a1 = P::load(sb) * P::load(d1);
        P a2 = P::load(sb) * P::load(d2);
        for (int blk = 1; blk < kBlocks; ++blk) {
          const P v = P::load(sb + blk * W);
          a0 = P::fma(v, P::load(d0 + blk * W), a0);
          a1 = P::fma(v, P::load(d1 + blk * W), a1);
          a2 = P::fma(v, P::load(d2 + blk * W), a2);
        }
        l0[j] = std::max(a0.horizontal_sum(), kLikelihoodFloor);
        l1[j] = a1.horizontal_sum();
        l2[j] = a2.horizontal_sum();
        wd[j] = static_cast<double>(ctx.weights[s + j]);
      }
      // Phase 2 (vector): the formerly scalar per-site epilogue, now one
      // vector division + FMAs over the group of 8 sites.
      for (int j = 0; j < kSiteGroup; j += W) {
        const P inv = P::broadcast(1.0) / P::load(l0 + j);
        const P t1 = P::load(l1 + j) * inv;
        const P t2 = P::load(l2 + j) * inv;
        const P w = P::load(wd + j);
        first_acc = P::fma(w, t1, first_acc);
        second_acc = P::fma(w, t2 - t1 * t1, second_acc);
      }
      // The lnL projection accumulates in its own scalar chain: log() has no
      // pack form here, and keeping it separate leaves first/second
      // bit-identical whether or not the projection is requested.
      if (ctx.want_lnl) {
        for (int j = 0; j < kSiteGroup; ++j) lnl += wd[j] * std::log(l0[j]);
      }
    }
    // Scalar tail for ranges not divisible by the site group.
    for (; s < ctx.end; ++s) {
      const double* sb = ctx.sum + s * kSiteBlock;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0;
      for (int l = 0; l < kSiteBlock; ++l) {
        a0 += sb[l] * d0[l];
        a1 += sb[l] * d1[l];
        a2 += sb[l] * d2[l];
      }
      a0 = std::max(a0, kLikelihoodFloor);
      const double inv = 1.0 / a0;
      const double t1 = a1 * inv;
      const double t2 = a2 * inv;
      const double w = static_cast<double>(ctx.weights[s]);
      first_tail += w * t1;
      second_tail += w * (t2 - t1 * t1);
      if (ctx.want_lnl) lnl += w * std::log(a0);
    }
    first_acc.store(ctx.carry.first_lanes);
    second_acc.store(ctx.carry.second_lanes);
    ctx.carry.first = first_tail;
    ctx.carry.second = second_tail;
    ctx.carry.lnl = lnl;
    ctx.out_first = first_acc.horizontal_sum() + first_tail;
    ctx.out_second = second_acc.horizontal_sum() + second_tail;
    ctx.out_lnl = lnl;
  }

  /// Vectorized lane-structured CLA checksum (sdc_checksum.hpp): the 16
  /// value lanes advance one rol+xor per register per site, the 8 scale
  /// lanes one widen+rol+xor per 8-site group.  Must be bit-identical to
  /// the scalar ClaChecksum::update reference (cross-ISA test in sdc_test);
  /// scalar head/tail loops keep arbitrary [begin, end) ranges exact.
  static void cla_checksum(sdc::ClaChecksum& sum, const double* cla, const std::int32_t* scale,
                           std::int64_t begin, std::int64_t end) {
    // Align to an 8-site group so scale-lane ownership (site mod 8) matches
    // the vector groups below.
    std::int64_t s = begin;
    if ((s & 7) != 0) {
      const std::int64_t head = std::min<std::int64_t>(end, (s + 7) & ~std::int64_t{7});
      sum.update(cla, scale, s, head);
      s = head;
    }
    if constexpr (W == 8) {
      __m512i v0 = _mm512_loadu_si512(sum.value);
      __m512i v1 = _mm512_loadu_si512(sum.value + 8);
      __m512i sc = _mm512_loadu_si512(sum.scale);
      for (; s + 8 <= end; s += 8) {
        for (int j = 0; j < 8; ++j) {
          const double* block = cla + (s + j) * kSiteBlock;
          v0 = _mm512_xor_si512(_mm512_rol_epi64(v0, 9),
                                _mm512_loadu_si512(reinterpret_cast<const void*>(block)));
          v1 = _mm512_xor_si512(_mm512_rol_epi64(v1, 9),
                                _mm512_loadu_si512(reinterpret_cast<const void*>(block + 8)));
        }
        const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(scale + s));
        sc = _mm512_xor_si512(_mm512_rol_epi64(sc, 9), _mm512_cvtepu32_epi64(raw));
      }
      _mm512_storeu_si512(sum.value, v0);
      _mm512_storeu_si512(sum.value + 8, v1);
      _mm512_storeu_si512(sum.scale, sc);
    } else {
      static_assert(W == 4);
      const auto rol9 = [](__m256i v) {
        return _mm256_or_si256(_mm256_slli_epi64(v, 9), _mm256_srli_epi64(v, 55));
      };
      __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.value));
      __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.value + 4));
      __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.value + 8));
      __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.value + 12));
      __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.scale));
      __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sum.scale + 4));
      for (; s + 8 <= end; s += 8) {
        for (int j = 0; j < 8; ++j) {
          const auto* block = reinterpret_cast<const __m256i*>(cla + (s + j) * kSiteBlock);
          v0 = _mm256_xor_si256(rol9(v0), _mm256_loadu_si256(block + 0));
          v1 = _mm256_xor_si256(rol9(v1), _mm256_loadu_si256(block + 1));
          v2 = _mm256_xor_si256(rol9(v2), _mm256_loadu_si256(block + 2));
          v3 = _mm256_xor_si256(rol9(v3), _mm256_loadu_si256(block + 3));
        }
        const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(scale + s));
        const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(scale + s + 4));
        s0 = _mm256_xor_si256(rol9(s0), _mm256_cvtepu32_epi64(lo));
        s1 = _mm256_xor_si256(rol9(s1), _mm256_cvtepu32_epi64(hi));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.value), v0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.value + 4), v1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.value + 8), v2);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.value + 12), v3);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.scale), s0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sum.scale + 4), s1);
    }
    if (s < end) sum.update(cla, scale, s, end);
  }

  static KernelOps ops(simd::Isa isa) {
    KernelOps out;
    out.newview = &newview<false>;
    out.evaluate = &evaluate<false>;
    out.derivative_sum = &derivative_sum<false>;
    out.derivative_core = &derivative_core;
    out.newview_repeats = &newview<true>;
    out.evaluate_gather = &evaluate<true>;
    out.derivative_sum_gather = &derivative_sum<true>;
    out.cla_checksum = &cla_checksum;
    out.isa = isa;
    return out;
  }
};

}  // namespace miniphi::core
