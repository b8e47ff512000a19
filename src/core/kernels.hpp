// The four PLF kernels (paper Section IV) and their dispatch table.
//
// Mathematical convention (identical to RAxML/ExaML): conditional likelihood
// arrays (CLAs) are stored in the *eigenspace* of the reversible rate matrix.
// With Q/μ = U Λ W (U = D^{-1/2}V, W = VᵀD^{1/2}, V orthonormal), a
// probability-space conditional vector x is stored as y = W x.  Consequences:
//
//  * newview:   x₃ = (U e^{Λ r_c z₁} y₁) ∘ (U e^{Λ r_c z₂} y₂),  y₃ = W x₃.
//    The contraction with U e^{Λz} is the 1×4 · 4×4 product the paper
//    reorganizes into a single 16-iteration loop over all 4 Γ rates
//    (Section V-B3); the final W transform has the same shape.
//  * evaluate:  per site  ℓ = Σ_c (1/C) Σ_k  y_p[c,k] e^{λ_k r_c z} y_q[c,k]
//    — the frequency weighting Σ_i π_i · is absorbed by orthonormality.
//  * derivativeSum: the sum buffer  s[c,k] = y_p[c,k] · y_q[c,k]  is a pure
//    element-wise product (the paper's Figure 2 loop) that stays constant
//    across Newton–Raphson iterations.
//  * derivativeCore: ℓ(z) = Σ s·d₀(z), ℓ' = Σ s·d₁, ℓ'' = Σ s·d₂ with
//    d_n[c,k] = (λ_k r_c)ⁿ e^{λ_k r_c z}, then per-site scalar combination —
//    vectorized by processing sites in blocks of 8 (Section V-B4).
//
// Per-site CLA block: 4 rates × 4 states = 16 doubles, rate-major
// (lane l = c*4 + k), 128 bytes — every block is 64-byte aligned once the
// base pointer is (Section V-B2).
//
// Tips never store CLAs.  A 16-entry lookup table maps each 4-bit DNA code
// to its eigenspace tip vector; branch-dependent per-code tables (umpX in
// RAxML) are precomputed per kernel call by the P-table builder.
#pragma once

#include <cstdint>

#include "src/bio/dna.hpp"
#include "src/core/sdc_checksum.hpp"
#include "src/simd/dispatch.hpp"

namespace miniphi::core {

/// Doubles per site in a CLA (4 states × 4 Γ rates).
inline constexpr int kSiteBlock = 16;

/// Number of Γ rate categories supported by the kernels.
inline constexpr int kRates = 4;

/// Number of states (DNA).
inline constexpr int kStates = 4;

/// Scaling threshold and multiplier (RAxML's minlikelihood / twotothe256):
/// when all 16 entries of a freshly computed site block are below the
/// threshold in magnitude, the block is multiplied by 2^256 and the site's
/// scale counter is incremented; evaluate() undoes this in log space.
inline constexpr double kScaleThreshold = 0x1.0p-256;
inline constexpr double kScaleFactor = 0x1.0p+256;
inline constexpr double kLogScaleThreshold = -177.445678223345993274;  // ln(2^-256)

/// Tuning knobs mirroring the paper's optimizations; the ablation bench
/// toggles them individually (Sections V-B5, V-B6).
struct KernelTuning {
  /// Non-temporal stores for the parent CLA / sum buffer (Section V-B5).
  /// Off on the host: every freshly computed CLA is read again almost at
  /// once (parent newview, evaluate, derivativeCore), and a multi-MiB L2
  /// plus a shared L3 keep it cached, while streaming pushes it to DRAM
  /// first.  KNC (512 KB private L2, no shared cache) is where streaming
  /// pays; the platform model prices it for PlatformKind::kMic only.  Both
  /// settings give bit-identical results.
  bool streaming_stores = false;
  int prefetch_distance = 8;  ///< sites ahead to software-prefetch (0 = off)
};

/// One child of a newview call: either an inner CLA or a tip code row.
struct ChildInput {
  const double* cla = nullptr;          ///< eigenspace CLA, [npat * 16]; null for tips
  const std::int32_t* scale = nullptr;  ///< per-site scale counts; null for tips
  const bio::DnaCode* codes = nullptr;  ///< tip codes, [npat]; null for inner nodes
  /// P-table, transposed for the quad-broadcast scheme:
  /// ptable[k*16 + (c*4+i)] = U[i,k] · exp(λ_k r_c z), k = eigen index.
  const double* ptable = nullptr;
  /// Per-code lookup (tips only): ump[code*16 + (c*4+i)] = (U e^{Λz} tip)[c,i].
  const double* ump = nullptr;
  /// Site-repeats path only (KernelOps::newview_repeats): per *parent class*
  /// child index — a CLA/scale block index for inner children, a tip code
  /// for tips.  Null on the dense path.
  const std::uint32_t* gather = nullptr;

  [[nodiscard]] bool is_tip() const { return codes != nullptr; }
};

/// Arguments for newview(): compute the parent CLA from two children.
struct NewviewCtx {
  double* parent_cla = nullptr;
  std::int32_t* parent_scale = nullptr;
  ChildInput left;
  ChildInput right;
  /// W transform, transposed: wtable[i*16 + (c*4+k)] = W[k,i].
  const double* wtable = nullptr;
  std::int64_t begin = 0;  ///< first pattern index (inclusive)
  std::int64_t end = 0;    ///< last pattern index (exclusive)
  KernelTuning tuning;
};

/// Arguments for evaluate(): per-site likelihoods → weighted log-likelihood.
struct EvaluateCtx {
  const double* left_cla = nullptr;          ///< inner side (always a CLA)
  const std::int32_t* left_scale = nullptr;  ///< may be null (all zero)
  const double* right_cla = nullptr;         ///< null if right side is a tip
  const std::int32_t* right_scale = nullptr;
  const bio::DnaCode* right_codes = nullptr;  ///< tip codes if right is a tip
  /// diag[c*4+k] = (1/C) · exp(λ_k r_c z); for the tip case pre-multiplied
  /// per code: evtab[code*16 + (c*4+k)] = diag[c,k] · tipvec[code][k].
  const double* diag = nullptr;
  const double* evtab = nullptr;
  const std::uint32_t* weights = nullptr;  ///< pattern weights
  /// Site-repeats path only (KernelOps::evaluate_gather): per-site CLA block
  /// index maps — block of site s is left_gather[s] instead of s.  Tip codes
  /// stay per-site, so right_gather is only set for an inner right child.
  const std::uint32_t* left_gather = nullptr;
  const std::uint32_t* right_gather = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Arguments for derivativeSum(): fill the per-site sum buffer.
struct SumCtx {
  double* sum = nullptr;  ///< [npat * 16], 64-byte aligned
  const double* left_cla = nullptr;
  const double* right_cla = nullptr;           ///< null if right side is a tip
  const bio::DnaCode* right_codes = nullptr;   ///< tip codes if right is a tip
  /// tipvec16[code*16 + (c*4+k)] = eigenspace tip vector replicated per rate.
  const double* tipvec16 = nullptr;
  /// Site-repeats path only (KernelOps::derivative_sum_gather): per-site CLA
  /// block index maps, as in EvaluateCtx.  The sum buffer stays site-indexed.
  const std::uint32_t* left_gather = nullptr;
  const std::uint32_t* right_gather = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  KernelTuning tuning;
};

/// Sites per group of the vectorized derivativeCore (paper Section V-B4):
/// the unit of the carry contract below.
inline constexpr int kDerivSiteGroup = 8;

/// derivativeCore's running sums: the carry/finish contract every
/// derivative context (DerivCtx, CatDerivCtx, GDerivCtx) shares on every
/// back-end.  A call starts from the carry it finds, leaves its own sums
/// behind, and finishes them into out_first/out_second/out_lnl, so those
/// always hold the totals of every range carried so far.  Running [b, e)
/// as consecutive slabs [b, m₁), [m₁, m₂), …, [m_k, e) with one carry —
/// every slab but the last a multiple of kDerivSiteGroup sites — gives the
/// same bits as one call over [b, e): each site group lands in the same
/// lane of the same accumulator in the same order, and only the last slab
/// has a tail.  A default (zero) carry starts a fresh range.
struct DerivCarry {
  /// Per-lane site-group accumulators of the dense vector back-ends (the
  /// first W lanes are live); unused by the scalar chains.
  alignas(64) double first_lanes[kDerivSiteGroup] = {};
  alignas(64) double second_lanes[kDerivSiteGroup] = {};
  double first = 0.0;  ///< scalar chain: the dense tail, every site for CAT/general
  double second = 0.0;
  double lnl = 0.0;    ///< the want_lnl projection's chain
};

/// Arguments for derivativeCore(): first and second log-likelihood
/// derivatives with respect to the branch length.
struct DerivCtx {
  const double* sum = nullptr;             ///< buffer filled by derivativeSum
  const std::uint32_t* weights = nullptr;  ///< pattern weights
  /// dtab[n*16 + (c*4+k)] = (λ_k r_c)ⁿ · exp(λ_k r_c z), n = 0,1,2.
  const double* dtab = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  DerivCarry carry;         ///< see DerivCarry; zero for a one-call range
  double out_first = 0.0;   ///< Σ_s w_s ℓ'_s/ℓ_s
  double out_second = 0.0;  ///< Σ_s w_s (ℓ''_s/ℓ_s − (ℓ'_s/ℓ_s)²)
  /// Optional projected log-likelihood at the dtab's branch length:
  /// out_lnl = Σ_s w_s log(ℓ_s).  Scale counts are constant while the sum
  /// buffer is prepared, so two projections at different z are comparable
  /// up to the same additive scaling constant — enough to order candidate
  /// branch lengths within one prepare_derivatives() window.  Accumulated
  /// in a separate register chain so first/second stay bit-identical
  /// whether or not the projection is requested.
  bool want_lnl = false;
  double out_lnl = 0.0;
};

/// One kernel back-end (one ISA).  All functions are thread-safe and operate
/// only on the pattern range [begin, end) — callers partition patterns
/// across threads/ranks exactly as RAxML-Light and ExaML do.
struct KernelOps {
  void (*newview)(NewviewCtx&) = nullptr;
  double (*evaluate)(const EvaluateCtx&) = nullptr;  ///< returns weighted log-likelihood
  void (*derivative_sum)(SumCtx&) = nullptr;
  void (*derivative_core)(DerivCtx&) = nullptr;
  // Site-repeats variants (LvD / BEAGLE 4.1 style).  newview_repeats
  // iterates [begin, end) over *parent repeat classes* and indexes each
  // child through ChildInput::gather; the gather evaluate/derivativeSum
  // variants iterate sites but fetch CLA blocks through the per-site class
  // maps.  The dense entry points above ignore the gather fields entirely so
  // their hot loops carry no extra indirection.
  void (*newview_repeats)(NewviewCtx&) = nullptr;
  double (*evaluate_gather)(const EvaluateCtx&) = nullptr;
  void (*derivative_sum_gather)(SumCtx&) = nullptr;
  // SDC defense (DESIGN.md §10): accumulate the lane-structured checksum of
  // dense CLA site blocks [begin, end) plus their scale counts into `sum`.
  // Bit-identical across back-ends; the vector back-ends run one rol+xor per
  // register so the engine can fuse it into chunked kernel execution at
  // cache speed instead of paying a separate DRAM sweep.
  void (*cla_checksum)(sdc::ClaChecksum& sum, const double* cla, const std::int32_t* scale,
                       std::int64_t begin, std::int64_t end) = nullptr;
  simd::Isa isa = simd::Isa::kScalar;
};

/// Back-end registry.  Throws miniphi::Error if `isa` was not compiled in or
/// is not supported by the running CPU.
KernelOps get_kernel_ops(simd::Isa isa);

/// The scalar reference back-end (always available).
KernelOps scalar_kernel_ops();

// Implemented in per-ISA translation units compiled with matching -m flags.
KernelOps avx2_kernel_ops();    // defined iff compiler supports -mavx2 -mfma
KernelOps avx512_kernel_ops();  // defined iff compiler supports -mavx512f

}  // namespace miniphi::core
