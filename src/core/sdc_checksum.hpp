// Lane-structured CLA checksum of every engine family (the dense 16
// doubles/site blocks, and any block width through the `block` overload).
//
// The whole-buffer word checksum (sdc.hpp, which guards spill records) walks
// words in a 4-way rotate-xor chain — fine for a cold
// standalone sweep, but far too slow to sit next to the AVX-512 PLF kernels:
// on the branch-optimization workload the separate DRAM sweeps cost tens of
// percent.  This variant restructures the same rotate-xor chains so the state
// advances with pure vertical SIMD ops and can be accumulated *chunk by
// chunk*, interleaved with kernel execution while the data is still cache
// resident (engine.cpp's fused SDC path):
//
//  * 16 value lanes — one per double of the site block.  Lane l folds the
//    l-th double of every site: lane[l] = rotl(lane[l], 9) ^ bits.  One
//    site block is exactly one rol+xor per vector register (2 zmm / 4 ymm).
//  * 8 scale lanes — lane (s mod 8) folds site s's scale count, so a group
//    of 8 consecutive scale words is again one widen+rol+xor.
//  * finish() folds all lanes with distinct rotations.
//
// Detection guarantee: a single flipped bit in any value word or scale count
// changes exactly one lane chain (rotate-xor steps are bijective in the
// lane state), and exactly one term of the finish() fold, hence the final
// value.  Each lane's step sequence depends only on the site indices it owns,
// so accumulating [0,a) then [a,b) is bit-identical to [0,b) for any split —
// the property the fused chunked path relies on — and the scalar reference
// below defines the semantics every vector back-end must reproduce exactly
// (enforced by a cross-ISA test in sdc_test.cpp).
#pragma once

#include <cstdint>
#include <cstring>

namespace miniphi::core::sdc {

namespace detail {
inline std::uint64_t rotl(std::uint64_t v, int s) {
  return s == 0 ? v : (v << s) | (v >> (64 - s));
}
}  // namespace detail

/// Streaming checksum state over a dense CLA region: site blocks of 16
/// doubles plus the per-site scale counts.  Accumulate ranges in ascending
/// site order via update() (or a vectorized KernelOps::cla_checksum), then
/// compare finish() values.
struct ClaChecksum {
  static constexpr int kValueLanes = 16;  ///< == core::kSiteBlock
  static constexpr int kScaleLanes = 8;

  std::uint64_t value[kValueLanes];
  std::uint64_t scale[kScaleLanes];

  ClaChecksum() { reset(); }

  void reset() {
    // Distinct nonzero lane seeds keep an all-zero buffer from fixing the
    // state and make lane swaps visible in finish().
    constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
    for (int l = 0; l < kValueLanes; ++l) value[l] = detail::rotl(kSeed, (l * 7 + 1) & 63);
    for (int l = 0; l < kScaleLanes; ++l) scale[l] = detail::rotl(~kSeed, (l * 11 + 3) & 63);
  }

  /// Scalar reference accumulate over site blocks [begin, end).  `begin` is
  /// an absolute site index: scale-lane ownership is (site mod 8), so
  /// split accumulation matches whole-range accumulation exactly.
  void update(const double* cla, const std::int32_t* scales, std::int64_t begin,
              std::int64_t end) {
    for (std::int64_t s = begin; s < end; ++s) {
      const double* block = cla + s * kValueLanes;
      for (int l = 0; l < kValueLanes; ++l) {
        std::uint64_t bits;
        std::memcpy(&bits, block + l, sizeof(bits));
        value[l] = detail::rotl(value[l], 9) ^ bits;
      }
      const int j = static_cast<int>(s & (kScaleLanes - 1));
      scale[j] = detail::rotl(scale[j], 9) ^ static_cast<std::uint32_t>(scales[s]);
    }
  }

  /// The same fold over site blocks of any width `block` (the CAT and
  /// general CLAs): word w = s·block + l of the region folds into value
  /// lane w mod 16, so block == 16 is exactly update() above, and a split
  /// at any site boundary is exact.
  void update(const double* cla, const std::int32_t* scales, std::int64_t begin,
              std::int64_t end, int block) {
    for (std::int64_t s = begin; s < end; ++s) {
      const double* words = cla + s * block;
      const std::int64_t first_word = s * block;
      for (int l = 0; l < block; ++l) {
        std::uint64_t bits;
        std::memcpy(&bits, words + l, sizeof(bits));
        std::uint64_t& lane = value[(first_word + l) & (kValueLanes - 1)];
        lane = detail::rotl(lane, 9) ^ bits;
      }
      const int j = static_cast<int>(s & (kScaleLanes - 1));
      scale[j] = detail::rotl(scale[j], 9) ^ static_cast<std::uint32_t>(scales[s]);
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t h = 0;
    for (int l = 0; l < kValueLanes; ++l) h ^= detail::rotl(value[l], l);
    for (int l = 0; l < kScaleLanes; ++l) h ^= detail::rotl(scale[l], 24 + l);
    return h;
  }
};

}  // namespace miniphi::core::sdc
