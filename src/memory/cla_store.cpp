#include "src/memory/cla_store.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <new>
#include <utility>

#include "src/util/aligned.hpp"
#include "src/util/error.hpp"

namespace miniphi::memory {
namespace {

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

}  // namespace

/// Placement for a capped store's buffers: one region the size of the cap
/// plus one full-width buffer of slack, carved best fit from coalescing free
/// extents.  A capped store resizes a buffer on almost every eviction and
/// every change of class count; carving one region keeps that churn from
/// fragmenting the process heap (whose growth would show as resident
/// memory), and its pages are touched once.  When no hole is large enough
/// the owner compacts the region (ClaStore::compact) and, failing that,
/// falls back to the general allocator.
class Arena {
 public:
  explicit Arena(std::size_t bytes)
      : base_(static_cast<unsigned char*>(
            ::operator new(bytes, std::align_val_t(kVectorAlignment)))),
        size_(bytes) {
    free_.emplace(0, bytes);
  }
  ~Arena() { ::operator delete(base_, std::align_val_t(kVectorAlignment)); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  [[nodiscard]] unsigned char* base() const { return base_; }
  /// Whether `p` lies in the region (compared as addresses: a buffer from
  /// the general allocator is a different object).
  [[nodiscard]] bool owns(const unsigned char* p) const {
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    const auto base = reinterpret_cast<std::uintptr_t>(base_);
    return at >= base && at - base < size_;
  }

  /// The start of the smallest free extent that holds `bytes`, or nullptr.
  unsigned char* allocate(std::size_t bytes) {
    bytes = round_up(bytes, kVectorAlignment);
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= bytes && (best == free_.end() || it->second < best->second)) best = it;
    }
    if (best == free_.end()) return nullptr;
    const std::size_t offset = best->first;
    const std::size_t rest = best->second - bytes;
    free_.erase(best);
    if (rest > 0) free_.emplace(offset + bytes, rest);
    return base_ + offset;
  }

  void release(const unsigned char* p, std::size_t bytes) {
    std::size_t offset = static_cast<std::size_t>(p - base_);
    bytes = round_up(bytes, kVectorAlignment);
    const auto next = free_.lower_bound(offset);
    if (next != free_.begin()) {
      const auto prev = std::prev(next);
      if (prev->first + prev->second == offset) {
        offset = prev->first;
        bytes += prev->second;
        free_.erase(prev);
      }
    }
    if (next != free_.end() && offset + bytes == next->first) {
      bytes += next->second;
      free_.erase(next);
    }
    free_.emplace(offset, bytes);
  }

  /// Re-derives the free extents after a compaction: `used` lists every
  /// allocation as (offset, bytes), ascending.
  void set_used(const std::vector<std::pair<std::size_t, std::size_t>>& used) {
    free_.clear();
    std::size_t cursor = 0;
    for (const auto& [offset, bytes] : used) {
      if (offset > cursor) free_.emplace(cursor, offset - cursor);
      cursor = offset + round_up(bytes, kVectorAlignment);
    }
    if (cursor < size_) free_.emplace(cursor, size_ - cursor);
  }

 private:
  unsigned char* base_;
  std::size_t size_;
  std::map<std::size_t, std::size_t> free_;  ///< offset -> length, coalesced
};

ClaStore::ClaStore() = default;

ClaStore::~ClaStore() {
  for (Slot& s : slots_) release(s);
}

void ClaStore::configure(ClaStoreConfig config) {
  MINIPHI_ASSERT(!configured_);
  MINIPHI_ASSERT(config.slots > 0 && config.scales > 0 && config.values > 0 &&
                 config.values % config.scales == 0);
  config_ = std::move(config);
  const std::int64_t full = static_cast<std::int64_t>(config_.slots) * full_width_bytes();
  byte_cap_ = config_.budget_bytes > 0 ? std::min(config_.budget_bytes, full) : full;
  MINIPHI_CHECK(byte_cap_ >= full_width_bytes(),
                "ClaStore: byte budget must fit at least one full-width buffer");
  slots_.resize(static_cast<std::size_t>(config_.slots));
  if (!full_resident()) {
    // Per-buffer alignment padding plus one full-width buffer of slack.
    arena_ = std::make_unique<Arena>(static_cast<std::size_t>(
        budget_bytes() + full_width_bytes() +
        static_cast<std::int64_t>(config_.slots) * static_cast<std::int64_t>(kVectorAlignment)));
  }
  metrics_on_ = obs::kMetricsCompiled && config_.metrics == obs::MetricsMode::kOn;
  if (metrics_on_) {
    obs::Registry& registry = obs::Registry::instance();
    ids_.evictions = registry.counter("mem.evictions");
    ids_.recomputes = registry.counter("mem.recomputes");
  }
  configured_ = true;
}

int ClaStore::at(int slot) const {
  MINIPHI_ASSERT(slot >= 0 && slot < static_cast<int>(slots_.size()));
  return slot;
}

double* ClaStore::values(int slot) {
  Slot& s = slots_[at(slot)];
  MINIPHI_ASSERT(s.live);
  return reinterpret_cast<double*>(s.buffer);
}

std::int32_t* ClaStore::scales(int slot) {
  Slot& s = slots_[at(slot)];
  MINIPHI_ASSERT(s.live);
  return reinterpret_cast<std::int32_t*>(
      s.buffer + static_cast<std::size_t>(s.capacity * block_doubles()) * sizeof(double));
}

void ClaStore::acquire(int slot, std::int64_t blocks) {
  if (blocks < 0) blocks = full_blocks();
  MINIPHI_ASSERT(blocks > 0 && blocks <= full_blocks());
  reserve(slot, blocks);
  Slot& s = slots_[at(slot)];
  s.blocks = blocks;
  s.live = true;
  s.last_touch = ++touch_epoch_;
}

void ClaStore::drop(int slot) {
  Slot& s = slots_[at(slot)];
  MINIPHI_ASSERT(s.pins == 0);
  s.live = false;
  s.rebuild_cost = kUnknownCost;
}

void ClaStore::drop_all() {
  for (int slot = 0; slot < slot_count(); ++slot) drop(slot);
}

void ClaStore::touch(int slot) { slots_[at(slot)].last_touch = ++touch_epoch_; }

void ClaStore::pin(int slot) { ++slots_[at(slot)].pins; }

void ClaStore::unpin(int slot) {
  Slot& s = slots_[at(slot)];
  MINIPHI_ASSERT(s.pins > 0);
  --s.pins;
}

void ClaStore::reset_pins() {
  for (Slot& s : slots_) s.pins = 0;
}

void ClaStore::set_rebuild_cost(int slot, int registers) {
  slots_[at(slot)].rebuild_cost = registers;
}

void ClaStore::begin_plan() {
  ++plan_stamp_;
  plan_cursor_ = 0;
}

void ClaStore::plan_next_use(int slot, std::int64_t position) {
  Slot& s = slots_[at(slot)];
  if (s.plan_stamp != plan_stamp_) {
    s.plan_stamp = plan_stamp_;
    s.uses.clear();
  }
  s.uses.push_back(position);
}

void ClaStore::plan_cursor(std::int64_t position) { plan_cursor_ = position; }

void ClaStore::note_recompute() {
  ++counters_.recomputes;
  bump(ids_.recomputes, 1);
}

std::int64_t ClaStore::next_use(const Slot& s) const {
  if (s.plan_stamp != plan_stamp_) return -1;
  const auto it = std::lower_bound(s.uses.begin(), s.uses.end(), plan_cursor_);
  return it == s.uses.end() ? -1 : *it;
}

bool ClaStore::fits(std::int64_t capacity, std::int64_t blocks) const {
  // Without a cap a buffer only grows, so a full-budget search settles with
  // no allocation at all.  Under a cap, slack is budget that could hold
  // another CLA: a buffer more than an eighth larger than its contents is
  // replaced by an exact one.
  return capacity >= blocks && (full_resident() || capacity - blocks <= blocks / 8);
}

void ClaStore::reserve(int slot, std::int64_t blocks) {
  Slot& s = slots_[at(slot)];
  if (fits(s.capacity, blocks)) return;
  for (;;) {
    // Reuse before allocating: a buffer without contents that fits (a
    // dropped CLA's, or a victim's just evicted below) changes hands as is,
    // and the slot's own buffer takes its place.
    const int donor = pick_empty(slot, blocks);
    if (donor >= 0) {
      Slot& d = slots_[static_cast<std::size_t>(donor)];
      std::swap(s.buffer, d.buffer);
      std::swap(s.capacity, d.capacity);
      return;
    }
    // The slot's own buffer is replaced, so room is made as if it were
    // already gone; it is released only once room exists, so a working set
    // that cannot fit throws with the slot untouched.
    const bool room = held_bytes_ - bytes_for(s.capacity) + bytes_for(blocks) <= byte_cap_;
    if (room) break;
    // Buffers without contents cost nothing to take back; only live
    // contents count as an eviction.
    const int empty = pick_empty(slot, 0);
    if (empty >= 0) {
      release(slots_[static_cast<std::size_t>(empty)]);
    } else {
      evict(pick_victim(slot));
    }
  }
  release(s);
  // Uninitialized on purpose: every writer fills the blocks it commits and
  // every reader stays within them.  Under a cap the arena places it (the
  // cap leaves room, so only fragmentation can fail it); the general
  // allocator takes the rest.
  const auto bytes = static_cast<std::size_t>(bytes_for(blocks));
  if (arena_ != nullptr) {
    s.buffer = arena_->allocate(bytes);
    if (s.buffer == nullptr) {
      compact();
      s.buffer = arena_->allocate(bytes);
    }
  }
  if (s.buffer == nullptr) {
    s.buffer =
        static_cast<unsigned char*>(::operator new(bytes, std::align_val_t(kVectorAlignment)));
  }
  s.capacity = blocks;
  held_bytes_ += bytes_for(blocks);
}

void ClaStore::compact() {
  // Buffers without contents go first; then every unpinned buffer slides
  // down to the lowest free address, in address order.  Pinned buffers
  // stay put: kernels in flight hold their addresses.  Nothing else holds
  // the address of an unpinned CLA across a store call (an eviction would
  // hand its buffer to another slot just the same).
  std::vector<Slot*> placed;
  for (Slot& t : slots_) {
    if (!t.live && t.pins == 0) release(t);
    if (t.capacity > 0 && arena_->owns(t.buffer)) placed.push_back(&t);
  }
  std::sort(placed.begin(), placed.end(),
            [](const Slot* a, const Slot* b) { return a->buffer < b->buffer; });
  std::vector<std::pair<std::size_t, std::size_t>> used;
  std::size_t cursor = 0;
  for (Slot* t : placed) {
    const auto offset = static_cast<std::size_t>(t->buffer - arena_->base());
    const auto bytes = static_cast<std::size_t>(bytes_for(t->capacity));
    if (t->pins == 0 && offset > cursor) {
      std::memmove(arena_->base() + cursor, t->buffer, bytes);
      t->buffer = arena_->base() + cursor;
    } else {
      cursor = offset;
    }
    used.emplace_back(cursor, bytes);
    cursor += round_up(bytes, kVectorAlignment);
  }
  arena_->set_used(used);
}

void ClaStore::release(Slot& s) {
  if (s.capacity == 0) return;
  const auto bytes = static_cast<std::size_t>(bytes_for(s.capacity));
  if (arena_ != nullptr && arena_->owns(s.buffer)) {
    arena_->release(s.buffer, bytes);
  } else {
    ::operator delete(s.buffer, std::align_val_t(kVectorAlignment));
  }
  s.buffer = nullptr;
  held_bytes_ -= bytes_for(s.capacity);
  s.capacity = 0;
  s.live = false;
}

int ClaStore::pick_empty(int for_slot, std::int64_t blocks) const {
  int best = -1;
  for (int slot = 0; slot < slot_count(); ++slot) {
    const Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (slot == for_slot || s.capacity == 0 || s.live || s.pins > 0) continue;
    if (blocks > 0 && !fits(s.capacity, blocks)) continue;
    const std::int64_t best_capacity =
        best < 0 ? 0 : slots_[static_cast<std::size_t>(best)].capacity;
    // Best fit when reusing; the largest when freeing room.
    if (best < 0 || (blocks > 0 ? s.capacity < best_capacity : s.capacity > best_capacity)) {
      best = slot;
    }
  }
  return best;
}

int ClaStore::pick_victim(int for_slot) const {
  // Ordering (DESIGN.md §14): CLAs with no remaining use in the current
  // plan window go first, the cheapest Sethi–Ullman rebuild first and LRU
  // among equal costs; among CLAs the plan still needs, the farthest next
  // use goes, ties broken by LRU.
  int best = -1;
  std::int64_t best_next = 0;
  for (int slot = 0; slot < slot_count(); ++slot) {
    const Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (slot == for_slot || !s.live || s.pins > 0) continue;
    const std::int64_t next = next_use(s);
    if (best < 0) {
      best = slot;
      best_next = next;
      continue;
    }
    const Slot& b = slots_[static_cast<std::size_t>(best)];
    bool better;
    if ((next < 0) != (best_next < 0)) {
      better = next < 0;  // not needed again beats needed later
    } else if (next >= 0) {
      better = next != best_next ? next > best_next : s.last_touch < b.last_touch;
    } else if (s.rebuild_cost != b.rebuild_cost) {
      better = s.rebuild_cost < b.rebuild_cost;
    } else {
      better = s.last_touch < b.last_touch;
    }
    if (better) {
      best = slot;
      best_next = next;
    }
  }
  MINIPHI_CHECK(best >= 0,
                "ClaStore: CLA budget too small for this traversal's working set");
  return best;
}

void ClaStore::evict(int victim) {
  Slot& s = slots_[at(victim)];
  MINIPHI_ASSERT(s.live && s.pins == 0);
  ++counters_.evictions;
  bump(ids_.evictions, 1);
  // The CLA is dropped and the owner invalidates it.  The buffer stays,
  // without contents, for the caller to reuse or free.
  if (config_.on_drop) config_.on_drop(victim);
  s.live = false;
}

void ClaStore::bump(obs::MetricId id, std::int64_t delta) const {
  if (!metrics_on_) return;
  obs::Registry::instance().add(id, delta);
}

}  // namespace miniphi::memory
