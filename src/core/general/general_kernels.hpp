// General-state-count PLF kernels (protein support, paper Section VII).
//
// Same mathematics as the DNA fast path (eigenspace CLAs, see
// src/core/kernels.hpp) generalized to S states: per site, each of the 4 Γ
// rates carries `padded` doubles, where padded rounds S up to a multiple of
// 8 so that every per-rate row is vector-aligned (the alignment discipline
// of paper Section V-B2, which calls out that non-16-lane layouts need
// "special care to keep accesses aligned").  Padding lanes are zero
// throughout: the table builders zero them, and every kernel operation is
// linear, so zeros propagate.
//
// Tip characters are dense codes resolved through a caller-provided
// state-set mask table (20 amino acids + B/Z/X classes; the DNA masks allow
// running DNA data through this path for cross-validation).
#pragma once

#include <cstdint>

#include "src/core/kernels.hpp"  // KernelTuning, scaling constants
#include "src/simd/dispatch.hpp"

namespace miniphi::core {

/// Upper bound on padded state count (64 covers DNA, proteins, and codon
/// models); kernel stack workspaces are sized with this.
inline constexpr int kMaxPaddedStates = 64;

/// Geometry of one general CLA.
struct GeneralDims {
  int states = 0;  ///< S
  int padded = 0;  ///< S rounded up to a multiple of 8
  int rates = 4;   ///< Γ categories

  [[nodiscard]] int block() const { return padded * rates; }
};

/// One child of a general newview call.
struct GChildInput {
  const double* cla = nullptr;
  const std::int32_t* scale = nullptr;
  const std::uint8_t* codes = nullptr;  ///< dense tip codes; null for inner
  /// ptable[(c*S + k)*padded + i] = U(i,k) · exp(λ_k r_c z); rows over i.
  const double* ptable = nullptr;
  /// ump[(code*rates + c)*padded + i]: per-code transformed tip vectors.
  const double* ump = nullptr;

  [[nodiscard]] bool is_tip() const { return codes != nullptr; }
};

struct GNewviewCtx {
  double* parent_cla = nullptr;
  std::int32_t* parent_scale = nullptr;
  GChildInput left;
  GChildInput right;
  /// wtable[i*padded + k] = W(k,i); rows over k.
  const double* wtable = nullptr;
  GeneralDims dims;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  KernelTuning tuning;
};

struct GEvaluateCtx {
  const double* left_cla = nullptr;
  const std::int32_t* left_scale = nullptr;
  const double* right_cla = nullptr;
  const std::int32_t* right_scale = nullptr;
  const std::uint8_t* right_codes = nullptr;
  /// diag[c*padded + k] = (1/C) exp(λ_k r_c z); padding zero.
  const double* diag = nullptr;
  /// evtab[(code*rates + c)*padded + k] = diag[c,k] · tipvec(code, k).
  const double* evtab = nullptr;
  const std::uint32_t* weights = nullptr;
  GeneralDims dims;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

struct GSumCtx {
  double* sum = nullptr;
  const double* left_cla = nullptr;
  const double* right_cla = nullptr;
  const std::uint8_t* right_codes = nullptr;
  /// tipvec[(code*rates + c)*padded + k]: eigenspace tip vectors.
  const double* tipvec = nullptr;
  GeneralDims dims;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  KernelTuning tuning;
};

struct GDerivCtx {
  const double* sum = nullptr;
  const std::uint32_t* weights = nullptr;
  /// dtab[n*block + c*padded + k] = (λ_k r_c)ⁿ (1/C) e^{λ_k r_c z}, n = 0,1,2.
  const double* dtab = nullptr;
  GeneralDims dims;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  /// Running sums (DerivCarry's contract; only the scalar chains, which
  /// accumulate site by site, so any slab split is exact).
  DerivCarry carry;
  double out_first = 0.0;
  double out_second = 0.0;
  /// Optional projected log-likelihood Σ_s w_s log(ℓ_s) at the dtab's
  /// branch length (see DerivCtx::want_lnl), in its own accumulator so
  /// out_first/out_second are the same bits either way.
  bool want_lnl = false;
  double out_lnl = 0.0;
};

struct GeneralKernelOps {
  void (*newview)(GNewviewCtx&) = nullptr;
  double (*evaluate)(const GEvaluateCtx&) = nullptr;
  void (*derivative_sum)(GSumCtx&) = nullptr;
  void (*derivative_core)(GDerivCtx&) = nullptr;
  simd::Isa isa = simd::Isa::kScalar;
};

GeneralKernelOps get_general_kernel_ops(simd::Isa isa);
GeneralKernelOps general_scalar_kernel_ops();
GeneralKernelOps general_avx2_kernel_ops();
GeneralKernelOps general_avx512_kernel_ops();

}  // namespace miniphi::core
