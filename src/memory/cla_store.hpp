// Tiered conditional-likelihood storage shared by every engine family.
//
// The paper's central memory/compute trade-off (Section V-A, citing
// Izquierdo-Carrasco et al.) used to live as a private pin/evict DFS path
// inside the dense engine; CAT and general simply demanded the full CLA
// budget.  ClaStore extracts buffer ownership, the pin/LRU/eviction
// discipline, and the recompute-vs-reload policy into one subsystem
// (DESIGN.md §14) so the engines hold plan caches and kernels, not memory
// policy:
//
//  * Resident tier: one aligned value/scale buffer per slot, allocated on
//    the slot's first write-acquire and sized to the blocks the writer asks
//    for (a site-repeats slot holds its class count, not the alignment
//    width).  Without a cap a buffer is regrown only when a write needs
//    more than it holds; under a cap it is also resized when it holds more
//    than an eighth beyond the write, so slack never costs an eviction.
//    Two caps bound what the slots hold together: a buffer count (the
//    engines' cla_buffers) and a byte cap on held capacity (their
//    cla_budget_bytes).  Under a cap, buffers are carved from one arena of
//    the cap's size, compacted when fragmentation leaves no hole, so the
//    constant resizing never grows the process heap.  Pins protect
//    in-flight kernel inputs (a pinned buffer is never moved); touch stamps
//    come from one monotonic epoch that never resets (so a heal-retry loop
//    cannot thrash a hot CLA back to cold).
//  * Eviction score: when a buffer does not fit, victims not needed later
//    in the current traversal plan go first (LRU among them, cheapest
//    Sethi–Ullman rebuild first when spilling is off); otherwise the CLA
//    whose next use is farthest in the plan goes, exactly the
//    register-allocation heuristic the planner's `registers` numbering was
//    built for.  Victims are taken until the new buffer fits both caps.
//  * Spill tier: evicted CLAs whose subtree is expensive to rebuild
//    (registers > spill_min_registers) are written to an anonymous temp file
//    asynchronously — the caller only pays a memcpy into one of two staging
//    buffers; checksumming and pwrite happen on a background thread,
//    overlapped with kernel execution.  A record covers only the blocks the
//    slot holds and names its block count (format version 2).  Reloads
//    verify the count and the stored checksum and surface mismatches as
//    sdc::CorruptionDetected with the owning node id, so spilled state goes
//    through the same trust-pass / heal protocol as resident state.  The
//    backing file is unlinked at creation: the OS reclaims it even on
//    abnormal exit.
//
// Layering: miniphi_memory links only miniphi_util and miniphi_obs.  The
// implementation includes core/sdc.hpp strictly for its header-only pieces
// (checksum_words, CorruptionDetected); it never calls into miniphi_core, so
// core can link memory without a cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace miniphi::memory {

/// On-disk spill record format version (DESIGN.md §14).  Bumped whenever the
/// header or payload layout changes; reloads reject records whose version
/// does not match the running build.  Version 2: records are class-sized
/// and the header carries the block count.
inline constexpr std::uint32_t kSpillFormatVersion = 2;

class Arena;
class SpillFile;

struct ClaStoreConfig {
  int slots = 0;  ///< logical CLAs (one per inner node, typically)
  /// Cap on the buffers held at once; -1 = one per slot.
  int resident = -1;
  /// Cap on the bytes of buffer capacity held at once (values + scales);
  /// 0 = no byte cap.  Must fit at least one full-width buffer.
  std::int64_t budget_bytes = 0;
  /// Full-width geometry: doubles and int32 scales of a buffer covering
  /// every site.  A block is one site's (or class's) values, so `scales` is
  /// the full-width block count and values / scales the doubles per block.
  std::int64_t values = 0;
  std::int64_t scales = 0;
  /// Enables the spill tier.  Off, every eviction drops the CLA and the
  /// owner recomputes it (the PR-4 recompute-only discipline).
  bool spill = false;
  /// Spill directory; empty honors $TMPDIR and falls back to /tmp.
  std::string spill_dir;
  /// Evictees whose Sethi–Ullman rebuild cost is at or below this are
  /// dropped (recomputing them is cheaper than disk); above it they spill.
  /// 0 (the measured default): never drop — a drop invalidates the CLA and
  /// under tight budgets the rebuild cascade costs far more than a memcpy
  /// reload (EngineConfig::cla_spill_min_registers documents the curve).
  int spill_min_registers = 0;
  /// Added to the slot index to name the owning tree node in
  /// CorruptionDetected (engines use taxon_count so slot 0 = first inner).
  int node_id_base = 0;
  obs::MetricsMode metrics = obs::MetricsMode::kOff;
  /// Called when an eviction drops a CLA without spilling it; the owner
  /// must mark the slot invalid so a later read recomputes it.
  std::function<void(int)> on_drop;
};

struct ClaStoreCounters {
  std::int64_t evictions = 0;      ///< buffers reclaimed from a victim
  std::int64_t spills = 0;         ///< evictions that wrote a spill record
  std::int64_t reloads = 0;        ///< spilled CLAs read back
  std::int64_t recomputes = 0;     ///< dropped CLAs the owner rebuilt
  std::int64_t spill_bytes = 0;    ///< payload bytes written to disk
  std::int64_t prefetch_hits = 0;  ///< reloads served from the prefetch ring
};

/// What ensure_resident() had to do to satisfy the read.
enum class Residency {
  kResident,  ///< already in memory
  kReloaded,  ///< read back from the spill tier (checksum verified; the
              ///< owner must restart its lazy trust pass)
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
  [[nodiscard]] bool is_configured() const { return configured_; }

  [[nodiscard]] int slot_count() const { return static_cast<int>(slots_.size()); }
  /// True when the caps can hold a full-width buffer for every slot, so
  /// nothing is ever evicted.
  [[nodiscard]] bool full_resident() const {
    return budget_bytes() >= static_cast<std::int64_t>(slot_count()) * full_width_bytes();
  }
  /// The bytes the caps let the store hold: the byte cap, or the buffer
  /// cap at full width, whichever is smaller — the granted side of the
  /// C-API resource negotiation (miniphi_resource_grant).
  [[nodiscard]] std::int64_t budget_bytes() const;
  /// Full-width buffers that fit under the caps.
  [[nodiscard]] int full_width_buffers() const {
    return static_cast<int>(budget_bytes() / full_width_bytes());
  }
  /// Bytes of buffer capacity held right now (never above budget_bytes()).
  [[nodiscard]] std::int64_t held_bytes() const { return held_bytes_; }

  [[nodiscard]] bool resident(int slot) const { return slots_[at(slot)].live; }
  [[nodiscard]] bool spilled(int slot) const { return slots_[at(slot)].on_disk; }
  /// True when the slot's contents exist somewhere (resident or spilled).
  [[nodiscard]] bool has_data(int slot) const {
    const Slot& s = slots_[at(slot)];
    return s.live || s.on_disk;
  }
  /// Blocks the slot's contents cover (resident or spilled); 0 without data.
  [[nodiscard]] std::int64_t blocks(int slot) const {
    return has_data(slot) ? slots_[at(slot)].blocks : 0;
  }

  /// Resident accessors; the slot must be resident.  Valid for blocks(slot)
  /// blocks, while the slot is pinned or until the next acquire() or
  /// ensure_resident(): those may evict an unpinned slot or, under a cap,
  /// move its buffer.
  [[nodiscard]] double* values(int slot);
  [[nodiscard]] std::int32_t* scales(int slot);

  /// Write acquisition: make the slot resident with room for `blocks`
  /// blocks (-1 = full width) and undefined contents (the caller is about
  /// to overwrite them).  Any stale spill copy is discarded.  May evict
  /// unpinned victims until the buffer fits the caps.
  void acquire(int slot, std::int64_t blocks = -1);

  /// Read acquisition: make the slot's *existing* contents resident,
  /// reloading from the spill tier when necessary.  Throws
  /// sdc::CorruptionDetected when the spill record fails verification.
  Residency ensure_resident(int slot);

  /// Discard the slot's contents everywhere (resident contents and spill
  /// record).  Owners call this on invalidation so eviction never wastes a
  /// disk write on a dead CLA.  The buffer stays with the slot for its next
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
  /// drives the recompute-vs-spill decision at eviction time.
  void set_rebuild_cost(int slot, int registers);

  /// Plan-aware eviction hints: begin_plan() opens a plan window,
  /// plan_next_use() records that `slot` is read at op index `position`,
  /// plan_cursor() advances execution past `position`.  Victims with no
  /// remaining use in the window are evicted first; otherwise the farthest
  /// next use goes.
  void begin_plan();
  void plan_next_use(int slot, std::int64_t position);
  void plan_cursor(std::int64_t position);

  /// Asynchronous read-ahead of a spilled slot into the prefetch ring; a
  /// later ensure_resident() completes without blocking on the disk read.
  void prefetch(int slot);

  /// Owner notification: a dropped CLA was rebuilt by re-running kernels.
  void note_recompute();

  [[nodiscard]] const ClaStoreCounters& counters() const { return counters_; }

  /// Test hooks: flip one payload bit / truncate the record / overwrite the
  /// header's version and block count of a spilled slot.  Return false when
  /// the slot has no spill record.
  bool corrupt_spill_for_testing(int slot);
  bool truncate_spill_for_testing(int slot);
  bool rewrite_spill_header_for_testing(int slot, std::uint32_t version, std::int64_t blocks);

 private:
  struct Slot {
    /// `capacity` blocks of values followed by `capacity` scales, one
    /// 64-byte-aligned allocation, uninitialized until written.
    unsigned char* buffer = nullptr;
    std::int64_t capacity = 0;        ///< blocks the buffer holds (0 = none)
    std::int64_t blocks = 0;          ///< blocks the current contents cover
    bool live = false;                ///< contents are resident in `buffer`
    bool on_disk = false;             ///< a current spill record exists
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
  /// contents and then evicting victims makes room under the caps.
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
  SpillFile& spill_file();

  ClaStoreConfig config_;
  bool configured_ = false;
  std::vector<Slot> slots_;
  int held_count_ = 0;          ///< slots holding a buffer
  std::int64_t held_bytes_ = 0;  ///< their summed capacity in bytes
  std::int64_t byte_cap_ = 0;   ///< effective byte cap (no cap = slots at full width)
  std::uint64_t touch_epoch_ = 0;
  std::uint64_t plan_stamp_ = 0;
  std::int64_t plan_cursor_ = 0;
  ClaStoreCounters counters_;
  std::unique_ptr<Arena> arena_;  ///< buffer placement under a cap; null without one
  std::unique_ptr<SpillFile> spill_;

  struct MetricIds {
    obs::MetricId evictions = 0;
    obs::MetricId spills = 0;
    obs::MetricId reloads = 0;
    obs::MetricId recomputes = 0;
    obs::MetricId spill_bytes = 0;
    obs::MetricId prefetch_hits = 0;
  } ids_;
  bool metrics_on_ = false;
};

}  // namespace miniphi::memory
