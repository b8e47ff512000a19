// PLF kernels for the CAT model of rate heterogeneity (Stamatakis 2006),
// which the paper lists as unsupported (Section V-A) and plans as future
// work (Section VII).
//
// Under CAT every site carries a single rate (one of a small set of
// per-site rate categories) instead of the Γ model's four.  The per-site
// CLA block is therefore 4 doubles = 32 bytes — and this is precisely the
// case the paper's Section V-B2 warns about: "under the CAT model of rate
// heterogeneity which only has one rate per site, special care must be
// taken to keep accesses aligned."  Concretely:
//   * a 256-bit vector holds exactly one site (always 32-byte aligned);
//   * a 512-bit vector holds TWO sites, whose rate categories may differ,
//     so the per-site transform tables are assembled from two 256-bit
//     halves per register (Pack<8>::concat) — the "special care";
//   * odd trailing sites fall back to the one-site path.
//
// Mathematics matches the Γ kernels with the category sum replaced by the
// per-site category lookup; see src/core/kernels.hpp for the eigenspace
// conventions.
#pragma once

#include <cstdint>

#include "src/core/kernels.hpp"  // KernelTuning, scaling constants
#include "src/simd/dispatch.hpp"

namespace miniphi::core {

/// Doubles per site under CAT (4 states, one rate).
inline constexpr int kCatSiteBlock = 4;

/// Maximum number of per-site rate categories (RAxML default is 25).
inline constexpr int kMaxCatCategories = 32;

struct CatChildInput {
  const double* cla = nullptr;
  const std::int32_t* scale = nullptr;
  const std::uint8_t* codes = nullptr;  ///< tip codes (DNA 4-bit); null for inner
  /// ptable[cat*16 + k*4 + i] = U(i,k) · exp(λ_k r_cat z).
  const double* ptable = nullptr;
  /// ump[(cat*16 + code)*4 + i]: per-(category, code) transformed tips.
  const double* ump = nullptr;

  [[nodiscard]] bool is_tip() const { return codes != nullptr; }
};

struct CatNewviewCtx {
  double* parent_cla = nullptr;
  std::int32_t* parent_scale = nullptr;
  CatChildInput left;
  CatChildInput right;
  /// wtable[i*4 + k] = W(k,i).
  const double* wtable = nullptr;
  /// Per-site rate category indices.
  const std::uint8_t* site_categories = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  KernelTuning tuning;
};

struct CatEvaluateCtx {
  const double* left_cla = nullptr;
  const std::int32_t* left_scale = nullptr;
  const double* right_cla = nullptr;
  const std::int32_t* right_scale = nullptr;
  const std::uint8_t* right_codes = nullptr;
  /// diag[cat*4 + k] = exp(λ_k r_cat z)  (no category-weight factor: CAT
  /// assigns exactly one rate per site).
  const double* diag = nullptr;
  /// evtab[(cat*16 + code)*4 + k] = diag[cat,k] · tipvec(code, k).
  const double* evtab = nullptr;
  const std::uint8_t* site_categories = nullptr;
  const std::uint32_t* weights = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

struct CatSumCtx {
  double* sum = nullptr;
  const double* left_cla = nullptr;
  const double* right_cla = nullptr;
  const std::uint8_t* right_codes = nullptr;
  /// tipvec[code*4 + k] (rate-independent).
  const double* tipvec = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  KernelTuning tuning;
};

struct CatDerivCtx {
  const double* sum = nullptr;
  const std::uint32_t* weights = nullptr;
  /// dtab[n*kMaxCatCategories*4 + cat*4 + k] = (λ_k r_cat)ⁿ e^{λ_k r_cat z}.
  const double* dtab = nullptr;
  const std::uint8_t* site_categories = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  /// Running sums (DerivCarry's contract; CAT uses only the scalar
  /// chains, which accumulate site by site, so any slab split is exact).
  DerivCarry carry;
  double out_first = 0.0;
  double out_second = 0.0;
  /// Optional projected log-likelihood Σ_s w_s log(ℓ_s) at the dtab's
  /// branch length (see DerivCtx::want_lnl), in its own accumulator so
  /// out_first/out_second are the same bits either way.
  bool want_lnl = false;
  double out_lnl = 0.0;
};

struct CatKernelOps {
  void (*newview)(CatNewviewCtx&) = nullptr;
  double (*evaluate)(const CatEvaluateCtx&) = nullptr;
  void (*derivative_sum)(CatSumCtx&) = nullptr;
  void (*derivative_core)(CatDerivCtx&) = nullptr;
  simd::Isa isa = simd::Isa::kScalar;
};

CatKernelOps get_cat_kernel_ops(simd::Isa isa);
CatKernelOps cat_scalar_kernel_ops();
CatKernelOps cat_avx2_kernel_ops();
CatKernelOps cat_avx512_kernel_ops();

}  // namespace miniphi::core
