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
// The checksum (ClaChecksum, sdc_checksum.hpp) is deliberately not
// cryptographic: it must detect any single-bit flip (and overwhelmingly
// likely any burst) at a cost far below the kernel that produced the
// buffer.  Independent xor-rotate lanes keep the fold one rotate and one
// xor per word; combining them with distinct rotations guarantees a single
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
