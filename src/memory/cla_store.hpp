// Conditional-likelihood storage shared by every engine family.
//
// The paper's central memory/compute trade-off (Section V-A, citing
// Izquierdo-Carrasco et al.) used to live as a private pin/evict DFS path
// inside the dense engine; CAT and general simply demanded the full CLA
// budget.  ClaStore extracts buffer ownership and the pin/LRU/eviction
// discipline into one subsystem (DESIGN.md §14) so the engines hold plan
// caches and kernels, not memory policy:
//
//  * Buffers: one aligned value/scale buffer per slot, allocated on the
//    slot's first write-acquire and sized to the blocks the writer asks
//    for (a site-repeats slot holds its class count, not the alignment
//    width).  Without a cap a buffer is regrown only when a write needs
//    more than it holds; under a cap it is also resized when it holds more
//    than an eighth beyond the write, so slack never costs an eviction.
//    One cap bounds what the slots hold together: the bytes of their held
//    capacity (the engines' cla_budget_bytes).  Under the cap, buffers are
//    carved from one arena of the cap's size, compacted when fragmentation
//    leaves no hole, so the constant resizing never grows the process
//    heap.  Pins protect in-flight kernel inputs (a pinned buffer is never
//    moved); touch stamps come from one monotonic epoch that never resets
//    (so a heal-retry loop cannot thrash a hot CLA back to cold).
//  * Eviction drops: when a buffer does not fit, a victim's contents are
//    discarded and the owner, told through on_drop, invalidates the CLA
//    and recomputes it when it is next read.  A valid CLA is therefore
//    always resident.  Victims not needed later in the current traversal
//    plan go first (cheapest Sethi–Ullman rebuild first, LRU among equal
//    costs); otherwise the CLA whose next use is farthest in the plan
//    goes, exactly the register-allocation heuristic the planner's
//    `registers` numbering was built for.  Victims are taken until the new
//    buffer fits the cap.
//
// Layering: miniphi_memory links only miniphi_util and miniphi_obs, so core
// can link memory without a cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/obs/metrics.hpp"

namespace miniphi::memory {

class Arena;

struct ClaStoreConfig {
  int slots = 0;  ///< logical CLAs (one per inner node, typically)
  /// Cap on the bytes of buffer capacity held at once (values + scales);
  /// 0 = no byte cap.  Must fit at least one full-width buffer.
  std::int64_t budget_bytes = 0;
  /// Full-width geometry: doubles and int32 scales of a buffer covering
  /// every site.  A block is one site's (or class's) values, so `scales` is
  /// the full-width block count and values / scales the doubles per block.
  std::int64_t values = 0;
  std::int64_t scales = 0;
  obs::MetricsMode metrics = obs::MetricsMode::kOff;
  /// Called once per eviction, which drops the CLA; the owner must mark
  /// the slot invalid so a later read recomputes it.
  std::function<void(int)> on_drop;
};

struct ClaStoreCounters {
  std::int64_t evictions = 0;   ///< CLAs dropped to make room
  std::int64_t recomputes = 0;  ///< dropped CLAs the owner rebuilt
};

class ClaStore {
 public:
  ClaStore();
  ~ClaStore();
  ClaStore(const ClaStore&) = delete;
  ClaStore& operator=(const ClaStore&) = delete;

  /// One-shot setup (engines configure from their constructor once buffer
  /// geometry is known).  Allocates nothing: buffers come with the first
  /// write-acquire of each slot.
  void configure(ClaStoreConfig config);

  [[nodiscard]] int slot_count() const { return static_cast<int>(slots_.size()); }
  /// True when the cap can hold a full-width buffer for every slot, so
  /// nothing is ever evicted.
  [[nodiscard]] bool full_resident() const {
    return byte_cap_ >= static_cast<std::int64_t>(slot_count()) * full_width_bytes();
  }
  /// The byte cap (every slot at full width without one) — the granted side
  /// of the C-API resource negotiation (miniphi_resource_grant).
  [[nodiscard]] std::int64_t budget_bytes() const { return byte_cap_; }
  /// Bytes of buffer capacity held right now (never above budget_bytes()).
  [[nodiscard]] std::int64_t held_bytes() const { return held_bytes_; }

  /// True when the slot holds contents (written and not dropped since).
  [[nodiscard]] bool resident(int slot) const { return slots_[at(slot)].live; }
  /// Blocks the slot's contents cover; 0 without contents.
  [[nodiscard]] std::int64_t blocks(int slot) const {
    return resident(slot) ? slots_[at(slot)].blocks : 0;
  }

  /// Accessors; the slot must be resident.  Valid for blocks(slot) blocks,
  /// while the slot is pinned or until the next acquire(): that may evict
  /// an unpinned slot or, under a cap, move its buffer.
  [[nodiscard]] double* values(int slot);
  [[nodiscard]] std::int32_t* scales(int slot);

  /// Write acquisition: make the slot resident with room for `blocks`
  /// blocks (-1 = full width) and undefined contents (the caller is about
  /// to overwrite them).  May evict unpinned victims until the buffer fits
  /// the cap.
  void acquire(int slot, std::int64_t blocks = -1);

  /// Discard the slot's contents and forget its rebuild cost.  Owners call
  /// this on invalidation.  The buffer stays with the slot for its next
  /// write; a later acquire of another slot reclaims it first, without
  /// counting an eviction.  Does not fire on_drop.
  void drop(int slot);
  void drop_all();

  /// LRU stamp from the store-wide monotonic epoch (never reset).
  void touch(int slot);
  [[nodiscard]] std::uint64_t touch_epoch() const { return touch_epoch_; }

  void pin(int slot);
  void unpin(int slot);
  [[nodiscard]] int pin_count(int slot) const { return slots_[at(slot)].pins; }
  /// Drops every pin (heal paths unwind mid-traversal).
  void reset_pins();

  /// Sethi–Ullman `registers` number of the subtree that rebuilds this CLA;
  /// eviction drops the cheapest of the CLAs the plan no longer needs
  /// first.
  void set_rebuild_cost(int slot, int registers);

  /// Plan-aware eviction hints: begin_plan() opens a plan window,
  /// plan_next_use() records that `slot` is read at op index `position`,
  /// plan_cursor() advances execution past `position`.  Victims with no
  /// remaining use in the window are evicted first; otherwise the farthest
  /// next use goes.
  void begin_plan();
  void plan_next_use(int slot, std::int64_t position);
  void plan_cursor(std::int64_t position);

  /// Owner notification: a dropped CLA was rebuilt by re-running kernels.
  void note_recompute();

  [[nodiscard]] const ClaStoreCounters& counters() const { return counters_; }

 private:
  struct Slot {
    /// `capacity` blocks of values followed by `capacity` scales, one
    /// 64-byte-aligned allocation, uninitialized until written.
    unsigned char* buffer = nullptr;
    std::int64_t capacity = 0;        ///< blocks the buffer holds (0 = none)
    std::int64_t blocks = 0;          ///< blocks the current contents cover
    bool live = false;                ///< `buffer` holds current contents
    int pins = 0;
    int rebuild_cost = kUnknownCost;  ///< SU registers; unknown = assume expensive
    std::uint64_t last_touch = 0;
    std::uint64_t plan_stamp = 0;     ///< which plan window `uses` belongs to
    std::vector<std::int64_t> uses;   ///< op indices reading this slot (ascending)
  };
  static constexpr int kUnknownCost = 1 << 30;

  [[nodiscard]] int at(int slot) const;
  /// Blocks of a full-width buffer, and its bytes (values + scales).
  [[nodiscard]] std::int64_t full_blocks() const { return config_.scales; }
  [[nodiscard]] std::int64_t full_width_bytes() const { return bytes_for(config_.scales); }
  [[nodiscard]] std::int64_t block_doubles() const { return config_.values / config_.scales; }
  [[nodiscard]] std::int64_t bytes_for(std::int64_t blocks) const {
    return blocks * (block_doubles() * static_cast<std::int64_t>(sizeof(double)) +
                     static_cast<std::int64_t>(sizeof(std::int32_t)));
  }
  /// Next op index >= cursor that reads the slot, or -1.
  [[nodiscard]] std::int64_t next_use(const Slot& s) const;
  /// Whether a buffer of `capacity` blocks may hold `blocks` blocks.
  [[nodiscard]] bool fits(std::int64_t capacity, std::int64_t blocks) const;
  /// Gives `slot` a buffer that fits `blocks` blocks: its own, a buffer
  /// without contents that fits, or a new one once freeing buffers without
  /// contents and then evicting victims makes room under the cap.
  void reserve(int slot, std::int64_t blocks);
  /// Frees the slot's buffer (back to the arena when it came from there).
  void release(Slot& s);
  /// Defragments the arena: frees buffers without contents and slides
  /// every unpinned buffer down to the lowest free address.
  void compact();
  /// An unpinned slot other than `for_slot` holding a buffer without
  /// contents — the best fit for `blocks`, or the largest when `blocks` is
  /// 0 — or -1.
  [[nodiscard]] int pick_empty(int for_slot, std::int64_t blocks) const;
  [[nodiscard]] int pick_victim(int for_slot) const;
  void evict(int victim);
  void bump(obs::MetricId id, std::int64_t delta) const;

  ClaStoreConfig config_;
  bool configured_ = false;
  std::vector<Slot> slots_;
  std::int64_t held_bytes_ = 0;  ///< their summed capacity in bytes
  std::int64_t byte_cap_ = 0;   ///< effective byte cap (no cap = slots at full width)
  std::uint64_t touch_epoch_ = 0;
  std::uint64_t plan_stamp_ = 0;
  std::int64_t plan_cursor_ = 0;
  ClaStoreCounters counters_;
  std::unique_ptr<Arena> arena_;  ///< buffer placement under a cap; null without one

  struct MetricIds {
    obs::MetricId evictions = 0;
    obs::MetricId recomputes = 0;
  } ids_;
  bool metrics_on_ = false;
};

}  // namespace miniphi::memory
