// Silent-data-corruption (SDC) defense primitives shared by every engine.
//
// Threat model (DESIGN.md §10): a bit flips in a committed conditional
// likelihood array — DRAM fault, cache line corruption, a stray write — after
// newview stored it and before a later traversal reads it back.  Undetected,
// the flip propagates to the root and yields a plausible-but-wrong lnL that
// checkpointing then persists.  The defense is a cheap word-wise checksum
// computed once at newview commit and re-verified lazily the next time the
// buffer is consumed as an input; a mismatch raises CorruptionDetected, which
// the engines convert into a targeted invalidation + re-execution of just the
// affected subtree through the traversal-plan machinery.
//
// The checksum is deliberately not cryptographic: it must detect any
// single-bit flip (and overwhelmingly likely any burst) at a cost far below
// the kernel that produced the buffer.  Four independent xor-rotate
// accumulators give the compiler a 4-way dependency chain (~1 cycle/word
// sustained); combining them with distinct rotations guarantees a single
// flipped input word always changes the final value.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/sdc_checksum.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/error.hpp"

namespace miniphi::core::sdc {

/// A committed CLA failed checksum verification (or a root kernel produced a
/// non-finite result).  `node_id() >= 0` names the corrupt node — heal by
/// invalidating exactly that node; `node_id() < 0` means the corruption could
/// not be localized (non-finite sentinel) — heal with a full invalidation
/// sweep, which also forces a fresh rescaling pass.
class CorruptionDetected : public Error {
 public:
  CorruptionDetected(int node_id, const std::string& what) : Error(what), node_id_(node_id) {}
  [[nodiscard]] int node_id() const { return node_id_; }

 private:
  int node_id_;
};

/// Retry budget of the in-engine heal loop: how many times one top-level call
/// (log_likelihood / prepare_derivatives / optimize_branch) re-plans and
/// recomputes after a detection before escalating the CorruptionDetected to
/// the caller (whose ladder ends at checkpoint restore, driver.cpp).
inline constexpr int kHealRetryBudget = 3;

// detail::rotl comes from sdc_checksum.hpp, which also defines the
// lane-structured ClaChecksum every engine family folds its CLAs with.  The
// word-stream checksum below guards the spill tier's records.

/// Word-wise checksum over raw 64-bit patterns.  Seeded accumulators keep a
/// buffer of zeros from hashing to zero; the tail (buffers are multiples of
/// 8 bytes on every engine path, but the scale array may leave a 4-byte
/// remainder) is folded in as a final partial word.
inline std::uint64_t checksum_words(const std::uint64_t* words, std::size_t count,
                                    std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
  std::uint64_t h0 = seed;
  std::uint64_t h1 = detail::rotl(seed, 17);
  std::uint64_t h2 = detail::rotl(seed, 31);
  std::uint64_t h3 = detail::rotl(seed, 47);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    h0 = detail::rotl(h0, 9) ^ words[i + 0];
    h1 = detail::rotl(h1, 9) ^ words[i + 1];
    h2 = detail::rotl(h2, 9) ^ words[i + 2];
    h3 = detail::rotl(h3, 9) ^ words[i + 3];
  }
  for (; i < count; ++i) h0 = detail::rotl(h0, 9) ^ words[i];
  return h0 ^ detail::rotl(h1, 1) ^ detail::rotl(h2, 2) ^ detail::rotl(h3, 3);
}

/// Monotonic detection/heal counters, kept per engine so tests can assert on
/// them without the metrics registry (the registry mirrors them as `sdc.*`).
struct Counters {
  std::int64_t checks = 0;       ///< lazy verifications performed
  std::int64_t hits = 0;         ///< mismatches / non-finite sentinels detected
  std::int64_t heals = 0;        ///< targeted recomputes initiated
  std::int64_t escalations = 0;  ///< retry budget exhausted, error rethrown
};

/// Cached `sdc.*` metric ids (shared family — every engine publishes into the
/// same counters, like `plan.*`).
struct MetricIds {
  obs::MetricId checks = 0;
  obs::MetricId hits = 0;
  obs::MetricId heals = 0;
  obs::MetricId escalations = 0;
  obs::MetricId verify_ns = 0;  ///< histogram: wall ns per verification
};

/// Registers (or re-fetches) the `sdc.*` family.
MetricIds register_metrics();

}  // namespace miniphi::core::sdc
