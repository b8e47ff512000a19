// Tests for the tiered CLA store (DESIGN.md §14): ClaStore unit behavior
// (spill/reload byte-exactness, checksummed-reload corruption detection,
// plan-aware eviction order, the monotonic LRU epoch), the tight-budget
// bit-identity matrix across all three engine families, the engine-level
// heal of a corrupted spill record, per-partition budget carving, and
// budget-aware stream packing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/bio/aa.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/cat/cat_engine.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/core/partition_spec.hpp"
#include "src/core/partitioned.hpp"
#include "src/core/kernels.hpp"
#include "src/core/sdc.hpp"
#include "src/memory/cla_store.hpp"
#include "src/model/general.hpp"
#include "src/platform/cost_model.hpp"
#include "src/simd/dispatch.hpp"
#include "src/simulate/simulate.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi {
namespace {

using core::sdc::CorruptionDetected;
using memory::ClaStore;
using memory::ClaStoreConfig;
using memory::Residency;

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas;
  for (const auto isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// --- ClaStore unit tests ---------------------------------------------------

constexpr std::int64_t kValues = 64;
constexpr std::int64_t kScales = 8;

ClaStoreConfig small_config(int slots, int resident, bool spill) {
  ClaStoreConfig config;
  config.slots = slots;
  config.resident = resident;
  config.values = kValues;
  config.scales = kScales;
  config.spill = spill;
  config.spill_min_registers = 0;
  return config;
}

void fill_slot(ClaStore& store, int slot, double seed) {
  double* values = store.values(slot);
  for (std::int64_t i = 0; i < kValues; ++i) values[i] = seed + static_cast<double>(i);
  std::int32_t* scales = store.scales(slot);
  for (std::int64_t i = 0; i < kScales; ++i) {
    scales[i] = static_cast<std::int32_t>(seed) + static_cast<std::int32_t>(i);
  }
}

void expect_slot_bytes(ClaStore& store, int slot, double seed) {
  const double* values = store.values(slot);
  for (std::int64_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(values[i], seed + static_cast<double>(i)) << "value " << i;
  }
  const std::int32_t* scales = store.scales(slot);
  for (std::int64_t i = 0; i < kScales; ++i) {
    ASSERT_EQ(scales[i], static_cast<std::int32_t>(seed) + static_cast<std::int32_t>(i))
        << "scale " << i;
  }
}

/// Acquires slots 0 and 1 with known contents, then forces both out to the
/// spill tier by acquiring 2 and 3.
void spill_first_two(ClaStore& store) {
  store.acquire(0);
  fill_slot(store, 0, 1000.0);
  store.set_rebuild_cost(0, 5);
  store.acquire(1);
  fill_slot(store, 1, 2000.0);
  store.set_rebuild_cost(1, 5);
  store.acquire(2);
  store.acquire(3);
  ASSERT_FALSE(store.resident(0));
  ASSERT_FALSE(store.resident(1));
  ASSERT_TRUE(store.spilled(0));
  ASSERT_TRUE(store.spilled(1));
}

TEST(ClaStore, SpillReloadRoundTripIsByteExact) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_first_two(store);
  EXPECT_EQ(store.counters().evictions, 2);
  EXPECT_EQ(store.counters().spills, 2);
  EXPECT_TRUE(store.has_data(0));

  EXPECT_EQ(store.ensure_resident(0), Residency::kReloaded);
  expect_slot_bytes(store, 0, 1000.0);
  EXPECT_EQ(store.counters().reloads, 1);

  EXPECT_EQ(store.ensure_resident(1), Residency::kReloaded);
  expect_slot_bytes(store, 1, 2000.0);
  EXPECT_EQ(store.counters().reloads, 2);
  EXPECT_GT(store.counters().spill_bytes, 0);

  // Already resident: a second ensure is a no-op.
  EXPECT_EQ(store.ensure_resident(1), Residency::kResident);
  EXPECT_EQ(store.counters().reloads, 2);
}

TEST(ClaStore, PrefetchedReloadIsByteExactAndCounted) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_first_two(store);
  // prefetch() is best-effort: it drops the request while the slot's spill
  // write is still staged.  Reloading slot 1 first blocks until its write
  // lands, and the single FIFO spill worker wrote slot 0 before slot 1, so
  // the prefetch below is deterministically accepted.
  EXPECT_EQ(store.ensure_resident(1), Residency::kReloaded);
  expect_slot_bytes(store, 1, 2000.0);
  store.prefetch(0);
  EXPECT_EQ(store.ensure_resident(0), Residency::kReloaded);
  expect_slot_bytes(store, 0, 1000.0);
  EXPECT_EQ(store.counters().prefetch_hits, 1);
}

TEST(ClaStore, CorruptedSpillRecordThrowsAndSurrendersData) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_first_two(store);
  ASSERT_TRUE(store.corrupt_spill_for_testing(0));
  EXPECT_THROW((void)store.ensure_resident(0), CorruptionDetected);
  // The record is unusable: the slot no longer claims data, so the owner's
  // heal path recomputes instead of rereading garbage.
  EXPECT_FALSE(store.has_data(0));
  // The sibling record is untouched.
  EXPECT_EQ(store.ensure_resident(1), Residency::kReloaded);
  expect_slot_bytes(store, 1, 2000.0);
}

TEST(ClaStore, TruncatedSpillRecordThrowsShortRead) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_first_two(store);
  // Truncating slot 1 (the higher file offset) leaves slot 0's record whole.
  ASSERT_TRUE(store.truncate_spill_for_testing(1));
  EXPECT_THROW((void)store.ensure_resident(1), CorruptionDetected);
  EXPECT_FALSE(store.has_data(1));
  EXPECT_EQ(store.ensure_resident(0), Residency::kReloaded);
  expect_slot_bytes(store, 0, 1000.0);
}

TEST(ClaStore, CorruptionNamesTheOwningNode) {
  ClaStore store;
  auto config = small_config(4, 2, /*spill=*/true);
  config.node_id_base = 10;
  store.configure(std::move(config));
  spill_first_two(store);
  ASSERT_TRUE(store.corrupt_spill_for_testing(1));
  try {
    (void)store.ensure_resident(1);
    FAIL() << "corrupted reload did not throw";
  } catch (const CorruptionDetected& fault) {
    EXPECT_EQ(fault.node_id(), 11);  // slot 1 + node_id_base
  }
}

TEST(ClaStore, EvictionPrefersSlotsWithNoRemainingPlanUse) {
  std::vector<int> drops;
  auto config = small_config(3, 2, /*spill=*/false);
  config.on_drop = [&](int slot) { drops.push_back(slot); };
  ClaStore store;
  store.configure(std::move(config));
  store.acquire(0);
  store.acquire(1);
  // Slot 1 was touched last, but slot 0 is the one the plan still reads:
  // the eviction must take slot 1 anyway.
  store.begin_plan();
  store.plan_next_use(0, 5);
  store.plan_cursor(0);
  store.acquire(2);
  EXPECT_TRUE(store.resident(0));
  EXPECT_FALSE(store.resident(1));
  EXPECT_EQ(drops, std::vector<int>{1});
}

TEST(ClaStore, EvictionTakesFarthestNextUseWhenAllAreNeeded) {
  std::vector<int> drops;
  auto config = small_config(3, 2, /*spill=*/false);
  config.on_drop = [&](int slot) { drops.push_back(slot); };
  ClaStore store;
  store.configure(std::move(config));
  store.acquire(0);
  store.acquire(1);
  store.begin_plan();
  store.plan_next_use(0, 2);
  store.plan_next_use(1, 9);
  store.plan_cursor(0);
  store.acquire(2);
  // Both are needed later; the farthest next use (slot 1 at op 9) goes.
  EXPECT_TRUE(store.resident(0));
  EXPECT_FALSE(store.resident(1));
  EXPECT_EQ(drops, std::vector<int>{1});
}

TEST(ClaStore, TouchEpochIsMonotonicAcrossDrops) {
  ClaStore store;
  store.configure(small_config(3, 3, /*spill=*/false));
  store.acquire(0);
  const std::uint64_t first = store.touch_epoch();
  store.touch(0);
  const std::uint64_t second = store.touch_epoch();
  EXPECT_GT(second, first);
  // A heal-style unwind (drop everything, re-acquire) must not rewind the
  // epoch: recency earned before the unwind stays comparable after it.
  store.drop_all();
  store.reset_pins();
  store.acquire(1);
  EXPECT_GT(store.touch_epoch(), second);
}

TEST(ClaStore, ResidentBytesReportsThePool) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/false));
  // The granted side is the cap: two full-width buffers.  Nothing is held
  // before the first write.
  EXPECT_EQ(store.budget_bytes(),
            2 * (kValues * static_cast<std::int64_t>(sizeof(double)) +
                 kScales * static_cast<std::int64_t>(sizeof(std::int32_t))));
  EXPECT_EQ(store.held_bytes(), 0);
}

TEST(ClaStore, ThrowsWhenEveryBufferIsPinned) {
  ClaStore store;
  store.configure(small_config(3, 2, /*spill=*/false));
  store.acquire(0);
  store.pin(0);
  store.acquire(1);
  store.pin(1);
  EXPECT_THROW(store.acquire(2), Error);
}

// --- Class-sized buffers ------------------------------------------------------
//
// Buffers are allocated on write and sized by the caller's block count; a
// byte cap bounds the capacity held, and spill records carry only the
// blocks a slot holds.

constexpr std::int64_t kBlockDoubles = kValues / kScales;
constexpr std::int64_t kBlockBytes = kBlockDoubles * static_cast<std::int64_t>(sizeof(double)) +
                                     static_cast<std::int64_t>(sizeof(std::int32_t));
constexpr std::int64_t kFullBytes = kScales * kBlockBytes;

ClaStoreConfig byte_config(int slots, std::int64_t budget_bytes, bool spill) {
  ClaStoreConfig config = small_config(slots, /*resident=*/-1, spill);
  config.budget_bytes = budget_bytes;
  return config;
}

void fill_blocks(ClaStore& store, int slot, std::int64_t blocks, double seed) {
  double* values = store.values(slot);
  for (std::int64_t i = 0; i < blocks * kBlockDoubles; ++i) {
    values[i] = seed + static_cast<double>(i);
  }
  std::int32_t* scales = store.scales(slot);
  for (std::int64_t i = 0; i < blocks; ++i) {
    scales[i] = static_cast<std::int32_t>(seed) + static_cast<std::int32_t>(i);
  }
}

void expect_blocks(ClaStore& store, int slot, std::int64_t blocks, double seed) {
  ASSERT_EQ(store.blocks(slot), blocks);
  const double* values = store.values(slot);
  for (std::int64_t i = 0; i < blocks * kBlockDoubles; ++i) {
    ASSERT_EQ(values[i], seed + static_cast<double>(i)) << "slot " << slot << " value " << i;
  }
  const std::int32_t* scales = store.scales(slot);
  for (std::int64_t i = 0; i < blocks; ++i) {
    ASSERT_EQ(scales[i], static_cast<std::int32_t>(seed) + static_cast<std::int32_t>(i))
        << "slot " << slot << " scale " << i;
  }
}

/// Writes class-sized slots 0 (3 blocks) and 1 (5 blocks), then forces both
/// out to the spill tier through the two-buffer count cap.
void spill_class_sized(ClaStore& store) {
  store.acquire(0, 3);
  fill_blocks(store, 0, 3, 1000.0);
  store.acquire(1, 5);
  fill_blocks(store, 1, 5, 2000.0);
  store.acquire(2);
  store.acquire(3);
  ASSERT_TRUE(store.spilled(0));
  ASSERT_TRUE(store.spilled(1));
  ASSERT_FALSE(store.resident(0));
  ASSERT_FALSE(store.resident(1));
}

TEST(ClaStore, AllocatesNothingUntilTheFirstWrite) {
  ClaStore store;
  store.configure(small_config(4, -1, /*spill=*/false));
  EXPECT_EQ(store.held_bytes(), 0);
  EXPECT_TRUE(store.full_resident());
  store.acquire(2, 3);
  EXPECT_EQ(store.held_bytes(), 3 * kBlockBytes);
  EXPECT_EQ(store.blocks(2), 3);
  // Without a cap a buffer only grows: a smaller write reuses it.
  store.acquire(2, 1);
  EXPECT_EQ(store.held_bytes(), 3 * kBlockBytes);
  store.acquire(2, 6);
  EXPECT_EQ(store.held_bytes(), 6 * kBlockBytes);
}

TEST(ClaStore, DroppedBufferIsReusedWithoutAnEviction) {
  ClaStore store;
  store.configure(small_config(3, 1, /*spill=*/false));
  store.acquire(0);
  store.drop(0);
  // The one buffer the count cap allows changes hands: nothing live was
  // displaced, so nothing was evicted.
  store.acquire(1);
  EXPECT_EQ(store.counters().evictions, 0);
  EXPECT_EQ(store.held_bytes(), kFullBytes);
  EXPECT_FALSE(store.has_data(0));
}

TEST(ClaStore, ClassSizedRecordsRoundTripByteForByte) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_class_sized(store);
  // Each payload covers only the slot's blocks, padded to 8 bytes.
  const auto payload = [](std::int64_t blocks) { return (blocks * kBlockBytes + 7) / 8 * 8; };
  EXPECT_EQ(store.counters().spill_bytes, payload(3) + payload(5));
  EXPECT_LT(store.counters().spill_bytes, 2 * payload(kScales));
  EXPECT_EQ(store.blocks(0), 3);
  EXPECT_EQ(store.blocks(1), 5);

  EXPECT_EQ(store.ensure_resident(0), Residency::kReloaded);
  expect_blocks(store, 0, 3, 1000.0);
  EXPECT_EQ(store.ensure_resident(1), Residency::kReloaded);
  expect_blocks(store, 1, 5, 2000.0);
}

TEST(ClaStore, SpillRecordBlockCountMismatchIsCorruption) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_class_sized(store);
  ASSERT_TRUE(store.rewrite_spill_header_for_testing(0, memory::kSpillFormatVersion, 4));
  try {
    (void)store.ensure_resident(0);
    FAIL() << "block-count mismatch was not rejected";
  } catch (const CorruptionDetected& fault) {
    EXPECT_NE(std::string(fault.what()).find("block count"), std::string::npos) << fault.what();
  }
  EXPECT_FALSE(store.has_data(0));
  // The sibling record is untouched.
  EXPECT_EQ(store.ensure_resident(1), Residency::kReloaded);
  expect_blocks(store, 1, 5, 2000.0);
}

TEST(ClaStore, VersionOneSpillRecordIsRejected) {
  ClaStore store;
  store.configure(small_config(4, 2, /*spill=*/true));
  spill_class_sized(store);
  ASSERT_TRUE(store.rewrite_spill_header_for_testing(1, /*version=*/1, 5));
  try {
    (void)store.ensure_resident(1);
    FAIL() << "version-1 record was not rejected";
  } catch (const CorruptionDetected& fault) {
    EXPECT_NE(std::string(fault.what()).find("version"), std::string::npos) << fault.what();
  }
  EXPECT_FALSE(store.has_data(1));
  EXPECT_EQ(store.ensure_resident(0), Residency::kReloaded);
  expect_blocks(store, 0, 3, 1000.0);
}

TEST(ClaStore, PinnedBytesOverflowingTheCapThrowTheWorkingSetError) {
  ClaStore store;
  store.configure(byte_config(4, 3 * kFullBytes, /*spill=*/false));
  EXPECT_FALSE(store.full_resident());
  EXPECT_EQ(store.budget_bytes(), 3 * kFullBytes);
  store.acquire(0);
  store.pin(0);
  store.acquire(1);
  store.pin(1);
  store.acquire(2, kScales / 2);
  store.pin(2);
  const std::int64_t held = store.held_bytes();
  try {
    store.acquire(3);
    FAIL() << "a full-width write past the pinned bytes did not throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("working set"), std::string::npos) << error.what();
  }
  // The failed write changed nothing.
  EXPECT_EQ(store.held_bytes(), held);
  EXPECT_FALSE(store.has_data(3));
  EXPECT_EQ(store.counters().evictions, 0);
  // Half a buffer still fits next to the pins.
  store.acquire(3, kScales / 2);
  EXPECT_LE(store.held_bytes(), store.budget_bytes());
}

/// A seeded random walk over acquire (mixed sizes), reload, prefetch, pin,
/// unpin and drop under a byte cap: held capacity never exceeds the cap,
/// every slot that still claims data reads back exactly what was last
/// written, and a pinned buffer never moves.
void run_mixed_size_walk(bool spill, std::uint64_t seed) {
  // Wider buffers than the other unit tests, so sizes vary enough to
  // fragment the cap's arena and force compactions around the pins.
  constexpr int kSlots = 10;
  constexpr std::int64_t kWalkBlocks = 64;
  std::vector<int> dropped_by_store;
  ClaStoreConfig config = small_config(kSlots, /*resident=*/-1, spill);
  config.values = kWalkBlocks * kBlockDoubles;
  config.scales = kWalkBlocks;
  config.budget_bytes = 7 * kWalkBlocks * kBlockBytes / 2;
  config.on_drop = [&](int slot) { dropped_by_store.push_back(slot); };
  ClaStore store;
  store.configure(std::move(config));

  struct Written {
    std::int64_t blocks = 0;
    double seed = 0.0;
  };
  std::vector<Written> model(kSlots);  // blocks == 0: no data
  std::vector<std::pair<int, const double*>> pinned;  // slot, address when pinned
  Rng rng(seed);
  for (int step = 0; step < 4000; ++step) {
    const int slot = static_cast<int>(rng.below(kSlots));
    const std::uint64_t action = rng.below(10);
    if (action < 4) {
      if (store.pin_count(slot) > 0) continue;  // owners never rewrite a pinned CLA
      const auto blocks = static_cast<std::int64_t>(1 + rng.below(kWalkBlocks));
      store.acquire(slot, blocks);
      const double value_seed = 100.0 * static_cast<double>(step + 1);
      fill_blocks(store, slot, blocks, value_seed);
      model[static_cast<std::size_t>(slot)] = {blocks, value_seed};
    } else if (action < 6) {
      if (model[static_cast<std::size_t>(slot)].blocks > 0) {
        (void)store.ensure_resident(slot);
        const Written& w = model[static_cast<std::size_t>(slot)];
        expect_blocks(store, slot, w.blocks, w.seed);
      }
    } else if (action < 7) {
      // At most two pins: the cap (3.5 full-width buffers) always leaves
      // room for one more full-width write.
      if (pinned.size() < 2 && store.resident(slot)) {
        store.pin(slot);
        pinned.emplace_back(slot, store.values(slot));
      }
    } else if (action < 9) {
      if (!pinned.empty()) {
        store.unpin(pinned.back().first);
        pinned.pop_back();
      }
    } else if (rng.uniform() < 0.5) {
      store.prefetch(slot);  // a no-op unless the slot is spilled
    } else if (store.pin_count(slot) == 0) {
      store.drop(slot);
      model[static_cast<std::size_t>(slot)] = {};
    }
    for (const int gone : dropped_by_store) model[static_cast<std::size_t>(gone)] = {};
    dropped_by_store.clear();
    ASSERT_LE(store.held_bytes(), store.budget_bytes()) << "step " << step;
    ASSERT_GE(store.held_bytes(), 0) << "step " << step;
    for (int s = 0; s < kSlots; ++s) {
      ASSERT_EQ(store.has_data(s), model[static_cast<std::size_t>(s)].blocks > 0)
          << "step " << step << " slot " << s;
    }
    // Compaction moves buffers, but never a pinned one.
    for (const auto& [s, address] : pinned) {
      ASSERT_EQ(store.values(s), address) << "step " << step << " slot " << s;
    }
  }
  EXPECT_GT(store.counters().evictions, 0) << "the walk never pressed the cap";
  if (spill) {
    EXPECT_GT(store.counters().reloads, 0);
    EXPECT_GT(store.counters().prefetch_hits, 0);
  }
}

TEST(ClaStore, MixedSizeWalkKeepsHeldBytesUnderTheCap) {
  run_mixed_size_walk(/*spill=*/false, 401);
  run_mixed_size_walk(/*spill=*/true, 402);
}

// --- Tight-budget bit-identity matrices ------------------------------------
//
// For every engine family: lnL and the full branch-length optimization must
// be bit-identical between the full CLA budget and tight budgets {min,
// min+2}, in both eviction modes (recompute-only and the spill tier), with
// the store's counters proving the tight path actually ran.

constexpr std::int64_t kDenseBytesPerPattern =
    core::kSiteBlock * static_cast<std::int64_t>(sizeof(double)) +
    static_cast<std::int64_t>(sizeof(std::int32_t));

struct RunResult {
  double initial = 0.0;
  double optimized = 0.0;
};

template <typename MakeEngine>
RunResult run_matrix_case(const tree::Tree& base_tree, const MakeEngine& make_engine,
                          int budget, bool spill) {
  tree::Tree tree(base_tree);
  auto engine = make_engine(tree, budget, spill);
  RunResult result;
  result.initial = engine->log_likelihood(tree.tip(0));
  result.optimized = engine->optimize_all_branches(tree.tip(0), 2);
  if (budget > 0) {
    const auto& counters = engine->cla_store().counters();
    EXPECT_GT(counters.evictions, 0) << "tight budget never evicted";
    if (spill) {
      EXPECT_GT(counters.spills, 0) << "spill tier never wrote";
      EXPECT_GT(counters.reloads, 0) << "spill tier never reloaded";
    } else {
      EXPECT_GT(counters.recomputes + counters.evictions, 0);
    }
  }
  return result;
}

/// The smallest cla_buffers this tree shape can run with: the DFS executor
/// floors at 3, but a bushy topology's Sethi–Ullman working set (plus the
/// kernel pins) can need more, so probe upward from the floor.
template <typename MakeEngine>
int minimum_feasible_budget(const tree::Tree& base_tree, const MakeEngine& make_engine) {
  for (int budget = 3; budget < base_tree.inner_count(); ++budget) {
    try {
      tree::Tree tree(base_tree);
      auto engine = make_engine(tree, budget, /*spill=*/false);
      (void)engine->log_likelihood(tree.tip(0));
      (void)engine->optimize_all_branches(tree.tip(0), 2);
      return budget;
    } catch (const Error&) {
      // working set does not fit; try one more buffer
    }
  }
  return base_tree.inner_count();
}

template <typename MakeEngine>
void expect_budget_bit_identity(const tree::Tree& base_tree, const MakeEngine& make_engine,
                                const std::string& context) {
  const RunResult full = run_matrix_case(base_tree, make_engine, -1, false);
  const int minimum = minimum_feasible_budget(base_tree, make_engine);
  ASSERT_LT(minimum + 2, base_tree.inner_count()) << context << ": tree too small";
  for (const int budget : {minimum, minimum + 2}) {
    for (const bool spill : {false, true}) {
      const RunResult tight = run_matrix_case(base_tree, make_engine, budget, spill);
      EXPECT_EQ(tight.initial, full.initial)
          << context << ": budget " << budget << " spill " << spill;
      EXPECT_EQ(tight.optimized, full.optimized)
          << context << ": budget " << budget << " spill " << spill;
    }
  }
}

TEST(TightBudget, DenseBitIdenticalAcrossIsasAndRepeats) {
  Rng rng(31);
  const auto alignment = testutil::random_alignment(10, 160, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const tree::Tree base_tree = tree::Tree::random(10, rng);
  for (const auto isa : supported_isas()) {
    for (const bool repeats : {false, true}) {
      const auto make_engine = [&](tree::Tree& tree, int budget, bool spill) {
        core::LikelihoodEngine::Config config;
        config.isa = isa;
        config.site_repeats = repeats;
        config.cla_buffers = budget;
        config.cla_spill = spill;
        return std::make_unique<core::LikelihoodEngine>(patterns, model, tree, config);
      };
      expect_budget_bit_identity(base_tree, make_engine,
                                 "dense " + simd::to_string(isa) +
                                     (repeats ? " repeats" : " no-repeats"));
    }
  }
}

// Byte budgets cap the bytes the store holds, and a site-repeats slot
// holds only its class count of blocks: the same bytes keep more CLAs
// resident than the equivalent count of full-width buffers.
TEST(TightBudget, DenseRepeatsByteBudgetsBitIdenticalAndEvictLess) {
  Rng rng(39);
  const auto patterns = bio::compress_patterns(simulate::paper_dataset(900, 41, 24));
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const tree::Tree base_tree = tree::Tree::random(24, rng);
  const std::int64_t full_width = static_cast<std::int64_t>(patterns.pattern_count()) *
                                  kDenseBytesPerPattern;
  const std::int64_t full_bytes = base_tree.inner_count() * full_width;
  const int quarter_count = base_tree.inner_count() / 4;

  for (const auto isa : supported_isas()) {
    struct Run {
      double initial = 0.0;
      double optimized = 0.0;
      std::int64_t evictions = 0;
    };
    const auto run = [&](int buffers, std::int64_t bytes, bool spill) {
      tree::Tree tree(base_tree);
      core::LikelihoodEngine::Config config;
      config.isa = isa;
      config.cla_buffers = buffers;
      config.cla_budget_bytes = bytes;
      config.cla_spill = spill;
      core::LikelihoodEngine engine(patterns, model, tree, config);
      Run result;
      result.initial = engine.log_likelihood(tree.tip(0));
      result.optimized = engine.optimize_all_branches(tree.tip(0), 2);
      result.evictions = engine.cla_store().counters().evictions;
      EXPECT_LE(engine.cla_store().held_bytes(), engine.cla_store().budget_bytes());
      if (bytes > 0) {
        EXPECT_EQ(engine.cla_bytes_granted(), std::min(bytes, full_bytes));
      }
      return result;
    };
    const std::string context = "dense repeats " + simd::to_string(isa);
    const Run full = run(-1, 0, false);

    // The smallest byte budget this shape runs with, probed upward from the
    // construction floor of three full-width buffers.
    std::int64_t minimum = 3 * full_width;
    for (;; minimum += full_width) {
      ASSERT_LT(minimum, full_bytes) << context << ": no tight byte budget fits";
      try {
        (void)run(-1, minimum, false);
        break;
      } catch (const Error&) {
        // working set does not fit; try one more full-width buffer
      }
    }
    const std::int64_t quarter = full_bytes / 4;
    ASSERT_LT(minimum, quarter) << context;
    for (const std::int64_t bytes : {minimum, quarter}) {
      for (const bool spill : {false, true}) {
        const Run tight = run(-1, bytes, spill);
        EXPECT_EQ(tight.initial, full.initial) << context << ": bytes " << bytes << " spill " << spill;
        EXPECT_EQ(tight.optimized, full.optimized)
            << context << ": bytes " << bytes << " spill " << spill;
        if (bytes == minimum) {
          EXPECT_GT(tight.evictions, 0) << context << ": minimum byte budget never evicted";
        } else {
          const Run counted = run(quarter_count, 0, spill);
          EXPECT_GT(counted.evictions, 0) << context;
          EXPECT_LT(tight.evictions, counted.evictions) << context << ": spill " << spill;
        }
      }
    }
  }
}

TEST(TightBudget, CatBitIdenticalAcrossIsas) {
  Rng rng(32);
  const auto alignment = testutil::random_alignment(10, 140, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const tree::Tree base_tree = tree::Tree::random(10, rng);
  const int categories = 5;
  std::vector<double> rates;
  for (int c = 0; c < categories; ++c) rates.push_back(rng.uniform(0.05, 4.0));
  std::vector<std::uint8_t> assignment(patterns.pattern_count());
  for (auto& a : assignment) {
    a = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(categories)));
  }
  for (const auto isa : supported_isas()) {
    const auto make_engine = [&](tree::Tree& tree, int budget, bool spill) {
      core::CatEngine::Config config;
      config.isa = isa;
      config.cla_buffers = budget;
      config.cla_spill = spill;
      auto engine =
          std::make_unique<core::CatEngine>(patterns, model, tree, categories, config);
      engine->set_categories(rates, assignment);
      return engine;
    };
    expect_budget_bit_identity(base_tree, make_engine, "cat " + simd::to_string(isa));
  }
}

TEST(TightBudget, GeneralBitIdenticalAcrossIsas) {
  Rng rng(33);
  const auto alignment = testutil::random_alignment(10, 120, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const tree::Tree base_tree = tree::Tree::random(10, rng);
  // A random reversible 4-state model over the DNA codes exercises the
  // general engine's padded-block path without needing protein data.
  std::vector<double> exchangeabilities(6);
  for (auto& rate : exchangeabilities) rate = rng.uniform(0.3, 3.0);
  std::vector<double> freqs{0.3, 0.25, 0.25, 0.2};
  const model::GeneralModel model(4, std::move(exchangeabilities), std::move(freqs), 0.9);
  for (const auto isa : supported_isas()) {
    const auto make_engine = [&](tree::Tree& tree, int budget, bool spill) {
      core::GeneralEngine::Config config;
      config.isa = isa;
      config.cla_buffers = budget;
      config.cla_spill = spill;
      return std::make_unique<core::GeneralEngine>(patterns, model, tree,
                                                   bio::dna_code_masks(), config);
    };
    expect_budget_bit_identity(base_tree, make_engine, "general " + simd::to_string(isa));
  }
}

TEST(TightBudget, MinimumWorkingSetIsEnforced) {
  Rng rng(34);
  const auto alignment = testutil::random_alignment(8, 80, rng);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(8, rng);
  core::LikelihoodEngine::Config config;
  config.cla_buffers = 2;  // below the DFS executor's floor of 3
  EXPECT_THROW(core::LikelihoodEngine(patterns, model, tree, config), Error);
}

// --- Engine-level heal of a corrupted spill record --------------------------

TEST(SpillHeal, DenseReloadCorruptionDetectsAndHeals) {
  Rng rng(35);
  const auto alignment = testutil::random_alignment(10, 120, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  tree::Tree tree = tree::Tree::random(10, rng);
  core::LikelihoodEngine::Config config;
  config.sdc_checks = true;
  config.cla_buffers = 3;
  config.cla_spill = true;
  core::LikelihoodEngine engine(patterns, model, tree, config);
  (void)engine.log_likelihood(tree.tip(0));

  // Pick one spilled slot that is NOT resident (a slot with a clean resident
  // copy satisfies ensure_resident from the pool without touching disk) and
  // corrupt its record.
  auto& store = engine.cla_store_for_testing();
  int corrupted_slot = -1;
  for (int slot = 0; slot < store.slot_count(); ++slot) {
    if (store.spilled(slot) && !store.resident(slot)) {
      corrupted_slot = slot;
      break;
    }
  }
  ASSERT_GE(corrupted_slot, 0) << "tight-budget traversal spilled nothing";
  ASSERT_TRUE(store.corrupt_spill_for_testing(corrupted_slot));

  // Re-root the evaluation on the corrupted node's root-facing edge: its
  // valid (but evicted) CLA becomes a plan root input, so the checksummed
  // reload is forced to run — an invalidation-driven recompute would just
  // discard the bad record unread.  full_traversal lists each inner node's
  // slot oriented toward tip 0, exactly the orientation the first
  // traversal committed.
  tree::Slot* corrupted_edge = nullptr;
  for (tree::Slot* slot : tree.full_traversal(tree.tip(0)->back)) {
    if (slot->node_id == tree.taxon_count() + corrupted_slot) corrupted_edge = slot;
  }
  ASSERT_NE(corrupted_edge, nullptr);

  // Bit-exact reference for that root edge from an uncorrupted full-budget
  // engine (likelihoods at different root edges need not be bit-identical,
  // so the tip-0 value is not the right baseline).
  tree::Tree reference_tree(tree);
  core::LikelihoodEngine reference(patterns, model, reference_tree,
                                   core::LikelihoodEngine::Config{});
  const double expected =
      reference.log_likelihood(reference_tree.slot(corrupted_edge->slot_index));

  const core::sdc::Counters before = engine.sdc_counters();
  const double healed = engine.log_likelihood(corrupted_edge);
  const core::sdc::Counters after = engine.sdc_counters();
  // The corrupt reload surfaces from the store (not the engine's lazy trust
  // pass, which is what counts `hits`) and lands in the heal ladder.
  EXPECT_EQ(after.heals, before.heals + 1);
  EXPECT_EQ(after.escalations, before.escalations);
  // The heal recomputes the corrupted CLA from its (clean) subtree, so the
  // final value is bit-identical to the never-corrupted one.
  EXPECT_EQ(healed, expected);
}

// --- Per-partition budget carving -------------------------------------------

TEST(CarveClaBudgets, FloorsEveryPartitionAtTheMinimumWorkingSet) {
  const std::vector<std::int64_t> lengths{100, 50};
  const std::int64_t need = 3 * 100 * kDenseBytesPerPattern + 3 * 50 * kDenseBytesPerPattern;
  const auto counts = core::carve_cla_budgets(need, lengths, /*inner_count=*/10);
  EXPECT_EQ(counts, (std::vector<int>{3, 3}));
}

TEST(CarveClaBudgets, DealsSlackLargestPartitionFirst) {
  const std::vector<std::int64_t> lengths{100, 50};
  const std::int64_t need = (3 * 100 + 3 * 50) * kDenseBytesPerPattern;
  // Slack for rounds {p0, p1}, {p0}: big partition ends two buffers ahead.
  const std::int64_t slack = (100 + 50 + 100) * kDenseBytesPerPattern;
  const auto counts = core::carve_cla_budgets(need + slack, lengths, /*inner_count=*/10);
  EXPECT_EQ(counts, (std::vector<int>{5, 4}));
}

TEST(CarveClaBudgets, CapsAtTheInnerNodeCount) {
  const std::vector<std::int64_t> lengths{10, 10};
  const auto counts =
      core::carve_cla_budgets(1'000'000'000, lengths, /*inner_count=*/6);
  EXPECT_EQ(counts, (std::vector<int>{6, 6}));
}

TEST(CarveClaBudgets, SmallTreesFloorBelowThree) {
  const std::vector<std::int64_t> lengths{40};
  const auto counts = core::carve_cla_budgets(2 * 40 * kDenseBytesPerPattern, lengths,
                                              /*inner_count=*/2);
  EXPECT_EQ(counts, (std::vector<int>{2}));
}

TEST(CarveClaBudgets, ThrowsNamingTheMinimumWorkingSet) {
  const std::vector<std::int64_t> lengths{100, 50};
  try {
    (void)core::carve_cla_budgets(100, lengths, /*inner_count=*/10);
    FAIL() << "undersized budget did not throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("minimum working set"), std::string::npos);
  }
}

TEST(PartitionedBudget, GlobalBudgetCarvesAndStaysBitIdentical) {
  Rng rng(36);
  const auto alignment = testutil::random_alignment(8, 200, rng, 0.05);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const auto specs = core::even_partitions(alignment.site_count(), 2);
  const tree::Tree base_tree = tree::Tree::random(8, rng);

  tree::Tree full_tree(base_tree);
  core::PartitionedEvaluator full(alignment, specs, model, full_tree);
  const double expected = full.log_likelihood(full_tree.tip(0));

  std::int64_t floors = 0;
  std::int64_t largest = 0;
  for (int p = 0; p < full.partition_count(); ++p) {
    const std::int64_t len = full.partition_patterns(p).pattern_count();
    floors += 3 * len * kDenseBytesPerPattern;
    largest = std::max(largest, len * kDenseBytesPerPattern);
  }

  tree::Tree tight_tree(base_tree);
  core::EngineConfig config;
  config.cla_budget_bytes = floors + largest;  // floors plus one spare buffer
  config.cla_spill = true;
  core::PartitionedEvaluator tight(alignment, specs, model, tight_tree, config);
  for (int p = 0; p < tight.partition_count(); ++p) {
    EXPECT_GE(tight.partition_cla_buffers(p), 3) << "partition " << p;
    EXPECT_LT(tight.partition_cla_buffers(p), tight_tree.inner_count()) << "partition " << p;
  }
  EXPECT_GT(tight.cla_bytes_granted(), 0);
  EXPECT_LE(tight.cla_bytes_granted(), config.cla_budget_bytes);

  EXPECT_EQ(tight.log_likelihood(tight_tree.tip(0)), expected);
  std::int64_t evictions = 0;
  for (int p = 0; p < tight.partition_count(); ++p) {
    evictions += tight.partition_engine(p).cla_store().counters().evictions;
  }
  EXPECT_GT(evictions, 0) << "carved budget never exercised the tight path";
}

TEST(PartitionedBudget, UndersizedGlobalBudgetThrows) {
  Rng rng(37);
  const auto alignment = testutil::random_alignment(8, 120, rng);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const auto specs = core::even_partitions(alignment.site_count(), 2);
  tree::Tree tree = tree::Tree::random(8, rng);
  core::EngineConfig config;
  config.cla_budget_bytes = 100;
  try {
    core::PartitionedEvaluator evaluator(alignment, specs, model, tree, config);
    FAIL() << "undersized budget did not throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("minimum working set"), std::string::npos);
  }
}

// --- Budget-aware stream packing --------------------------------------------

TEST(StreamPacking, TightBudgetPartitionWeighsDouble) {
  const std::vector<std::int64_t> sizes{1000, 1000, 1000};
  // Partition 2 runs at the minimum budget (fraction 0): its modeled cost
  // doubles, so LPT packs it alone and the two full-budget partitions share
  // the other stream.
  const std::vector<double> fractions{1.0, 1.0, 0.0};
  const auto plan =
      platform::plan_partition_streams(sizes, /*stream_count=*/2, simd::Isa::kScalar, fractions);
  ASSERT_EQ(plan.partition_stream.size(), 3u);
  EXPECT_EQ(plan.partition_stream[0], plan.partition_stream[1]);
  EXPECT_NE(plan.partition_stream[0], plan.partition_stream[2]);
}

TEST(StreamPacking, BudgetFractionSizeMismatchThrows) {
  const std::vector<std::int64_t> sizes{1000, 1000, 1000};
  const std::vector<double> fractions{1.0, 0.5};
  EXPECT_THROW(
      (void)platform::plan_partition_streams(sizes, 2, simd::Isa::kScalar, fractions),
      Error);
}

// --- Spill-tier resource hygiene under cancellation --------------------------

/// Open descriptors in this process.  The spill backing file is unlinked at
/// creation, so a leaked fd is the ONLY observable trace of a leaked spill
/// tier — /proc/self/fd is the leak detector.
std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(SpillLifecycle, CancelledJobsLeakNoSpillFileDescriptors) {
  Rng rng(38);
  const auto alignment = testutil::random_alignment(10, 120, rng, 0.05);
  const auto patterns = bio::compress_patterns(alignment);
  const model::GtrModel model(testutil::random_gtr_params(rng));
  const tree::Tree base_tree = tree::Tree::random(10, rng);

  const auto spill_run = [&](const CancelToken* token) {
    tree::Tree tree(base_tree);
    core::LikelihoodEngine::Config config;
    config.cla_buffers = 3;  // minimum working set: every traversal spills
    config.cla_spill = true;
    config.cancel = token;
    core::LikelihoodEngine engine(patterns, model, tree, config);
    (void)engine.log_likelihood(tree.tip(0));
  };

  // Warm-up absorbs lazily-opened descriptors (locale, /proc itself, …) so
  // the baseline measures steady state, not first-use initialisation.
  spill_run(nullptr);
  const std::size_t baseline = open_fd_count();

  // Each cancelled run opens its own spill backing file and must close it
  // while unwinding through CancelledError mid-traversal.
  for (int round = 0; round < 5; ++round) {
    CancelToken token;
    token.arm_trip_after(5);
    EXPECT_THROW(spill_run(&token), CancelledError) << "round " << round;
    EXPECT_EQ(open_fd_count(), baseline) << "round " << round;
  }

  // And a clean run after the cancelled ones still completes and stays flat.
  spill_run(nullptr);
  EXPECT_EQ(open_fd_count(), baseline);
}

}  // namespace
}  // namespace miniphi
