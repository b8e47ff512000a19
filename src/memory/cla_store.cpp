#include "src/memory/cla_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

// Header-only pieces of the SDC layer (checksum_words, CorruptionDetected);
// no miniphi_core symbol is referenced, so the link graph stays acyclic.
#include "src/core/sdc.hpp"
#include "src/util/aligned.hpp"
#include "src/util/error.hpp"

namespace miniphi::memory {
namespace {

constexpr std::uint64_t kSpillMagic = 0x4d50485350494c31ULL;  // "MPHSPIL1"

/// Spill record header (DESIGN.md §14, format version 2).  A record covers
/// `blocks` blocks: the value doubles, then the scale int32s, zero-padded to
/// 8 bytes; `checksum` covers that payload with the same word-stream scheme
/// the resident trust pass uses.
struct SpillHeader {
  std::uint64_t magic = kSpillMagic;
  std::uint32_t version = kSpillFormatVersion;
  std::uint32_t slot = 0;
  std::uint64_t blocks = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SpillHeader) == 40, "spill header layout is part of the format");

std::string resolve_spill_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* tmpdir = std::getenv("TMPDIR"); tmpdir != nullptr && tmpdir[0] != '\0') {
    return tmpdir;
  }
  return "/tmp";
}

std::size_t round_up(std::size_t n, std::size_t to) { return (n + to - 1) / to * to; }

}  // namespace

/// The spill tier: one anonymous temp file of fixed-stride record slots, one
/// background writer thread, two staging buffers (a double buffer) and a
/// two-entry prefetch ring.  Each record holds only the blocks its CLA
/// covers; the stride, the staging buffers and the ring are sized for a
/// full-width record.  The caller's only synchronous cost on
/// a spill is the memcpy into a staging buffer; checksumming and pwrite
/// overlap with kernel execution.  The file is unlinked immediately after
/// creation, so the kernel reclaims the space on any exit path, including
/// SIGKILL.
class SpillFile {
 public:
  SpillFile(const std::string& dir, std::int64_t block, std::int64_t max_blocks,
            int node_id_base)
      : block_(block),
        max_payload_(payload_for(max_blocks)),
        stride_(static_cast<std::int64_t>(
            round_up(sizeof(SpillHeader) + static_cast<std::size_t>(max_payload_), 4096))),
        node_id_base_(node_id_base) {
    std::string path = resolve_spill_dir(dir) + "/miniphi-spill-XXXXXX";
    fd_ = ::mkstemp(path.data());
    MINIPHI_CHECK(fd_ >= 0, "ClaStore: cannot create spill file in " + path);
    // Unlink while holding the fd: the record space lives exactly as long
    // as this process, even on abnormal exit.
    ::unlink(path.c_str());
    for (Staging& s : staging_) s.data.resize(static_cast<std::size_t>(max_payload_));
    for (Prefetch& p : prefetch_) {
      p.data.resize(sizeof(SpillHeader) + static_cast<std::size_t>(max_payload_));
    }
    worker_ = std::thread([this] { worker(); });
  }

  ~SpillFile() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  /// Payload bytes of a record covering `blocks` blocks.
  [[nodiscard]] std::int64_t payload_for(std::int64_t blocks) const {
    return static_cast<std::int64_t>(
        round_up(static_cast<std::size_t>(blocks * block_) * sizeof(double) +
                     static_cast<std::size_t>(blocks) * sizeof(std::int32_t),
                 8));
  }

  /// Stage the slot's first `blocks` blocks and queue the disk write.
  /// Blocks only while both staging buffers are in flight (backpressure,
  /// not data loss).
  void write_async(int slot, const double* values, const std::int32_t* scales,
                   std::int64_t blocks) {
    std::unique_lock<std::mutex> lock(mu_);
    drop_prefetch_locked(slot);  // any prefetched copy is now stale
    int idx = -1;
    cv_.wait(lock, [&] {
      for (int i = 0; i < 2; ++i) {
        if (!staging_[i].busy) {
          idx = i;
          return true;
        }
      }
      return false;
    });
    Staging& s = staging_[idx];
    s.busy = true;
    s.slot = slot;
    s.blocks = blocks;
    lock.unlock();

    const std::size_t value_bytes = static_cast<std::size_t>(blocks * block_) * sizeof(double);
    const std::size_t scale_bytes = static_cast<std::size_t>(blocks) * sizeof(std::int32_t);
    unsigned char* out = s.data.data();
    std::memcpy(out, values, value_bytes);
    std::memcpy(out + value_bytes, scales, scale_bytes);
    std::memset(out + value_bytes + scale_bytes, 0,
                static_cast<std::size_t>(payload_for(blocks)) - value_bytes - scale_bytes);

    lock.lock();
    jobs_.push_back(Job{slot, idx, /*is_prefetch=*/false});
    lock.unlock();
    work_cv_.notify_one();
  }

  /// Read a record of `blocks` blocks back; returns true when the prefetch
  /// ring already held it.  Throws sdc::CorruptionDetected on any
  /// verification failure, a block-count mismatch included.
  bool read(int slot, double* values, std::int32_t* scales, std::int64_t blocks) {
    std::unique_lock<std::mutex> lock(mu_);
    wait_writes_flushed_locked(lock, slot);
    for (Prefetch& p : prefetch_) {
      if (p.slot != slot) continue;
      cv_.wait(lock, [&] { return p.ready || p.slot != slot; });
      if (p.slot != slot) break;  // cancelled while we waited
      // Consume: swap the buffer out under the lock so the worker can never
      // write into bytes we are still verifying.
      std::vector<unsigned char> raw;
      raw.swap(p.data);
      const ssize_t got = p.bytes_read;
      const std::uint64_t checksum = p.checksum;
      const bool checksummed = p.checksummed;
      p.data = take_spare_locked();
      p.slot = -1;
      p.checksummed = false;
      lock.unlock();
      unpack(slot, raw.data(), got, values, scales, blocks, checksummed ? &checksum : nullptr);
      return_spare(std::move(raw));
      return true;
    }
    std::vector<unsigned char> buf = take_spare_locked();
    lock.unlock();
    const ssize_t got = ::pread(fd_, buf.data(),
                                sizeof(SpillHeader) + static_cast<std::size_t>(payload_for(blocks)),
                                offset(slot));
    unpack(slot, buf.data(), got, values, scales, blocks);
    return_spare(std::move(buf));
    return false;
  }

  /// Queue an asynchronous read-ahead into the prefetch ring (dropped when
  /// the ring is full or the slot's write is still in flight).
  void prefetch(int slot) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Staging& s : staging_) {
      if (s.busy && s.slot == slot) return;  // let the write land first
    }
    for (const Prefetch& p : prefetch_) {
      if (p.slot == slot) return;  // already here or on the way
    }
    for (int i = 0; i < 2; ++i) {
      if (prefetch_[i].slot < 0) {
        prefetch_[i].slot = slot;
        prefetch_[i].ready = false;
        jobs_.push_back(Job{slot, i, /*is_prefetch=*/true});
        work_cv_.notify_one();
        return;
      }
    }
  }

  /// Forget any in-ring copy of the slot (the record itself is simply
  /// superseded by the owner's bookkeeping; holes are never punched).
  void invalidate(int slot) {
    std::lock_guard<std::mutex> lock(mu_);
    drop_prefetch_locked(slot);
  }

  bool corrupt_record(int slot) {
    flush_all();
    std::uint64_t word = 0;
    if (::pread(fd_, &word, sizeof(word), offset(slot) + sizeof(SpillHeader)) !=
        static_cast<ssize_t>(sizeof(word))) {
      return false;
    }
    word ^= 1ULL << 17;
    return ::pwrite(fd_, &word, sizeof(word), offset(slot) + sizeof(SpillHeader)) ==
           static_cast<ssize_t>(sizeof(word));
  }

  bool truncate_record(int slot) {
    flush_all();
    return ::ftruncate(fd_, offset(slot) + static_cast<off_t>(sizeof(SpillHeader))) == 0;
  }

  bool rewrite_header(int slot, std::uint32_t version, std::int64_t blocks) {
    flush_all();
    SpillHeader header;
    if (::pread(fd_, &header, sizeof(header), offset(slot)) !=
        static_cast<ssize_t>(sizeof(header))) {
      return false;
    }
    header.version = version;
    header.blocks = static_cast<std::uint64_t>(blocks);
    return ::pwrite(fd_, &header, sizeof(header), offset(slot)) ==
           static_cast<ssize_t>(sizeof(header));
  }

 private:
  struct Job {
    int slot = -1;
    int index = -1;  ///< staging or prefetch entry
    bool is_prefetch = false;
  };
  struct Staging {
    std::vector<unsigned char> data;
    int slot = -1;
    std::int64_t blocks = 0;
    bool busy = false;
  };
  struct Prefetch {
    std::vector<unsigned char> data;
    ssize_t bytes_read = 0;
    int slot = -1;
    bool ready = false;
    /// Payload checksum computed by the worker right after the pread, so a
    /// prefetched reload verifies off the critical path.  Only trusted when
    /// checksummed is true (the worker skips short or malformed reads).
    std::uint64_t checksum = 0;
    bool checksummed = false;
  };

  [[nodiscard]] off_t offset(int slot) const { return static_cast<off_t>(slot) * stride_; }

  /// Record buffers churn once per reload; recycling one spare turns the
  /// per-reload allocation (an mmap plus its page faults) into a swap.
  std::vector<unsigned char> take_spare_locked() {
    std::vector<unsigned char> buf = std::move(spare_);
    buf.resize(sizeof(SpillHeader) + static_cast<std::size_t>(max_payload_));
    return buf;
  }

  void return_spare(std::vector<unsigned char>&& buf) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spare_.capacity() < buf.capacity()) spare_ = std::move(buf);
  }

  void drop_prefetch_locked(int slot) {
    for (Prefetch& p : prefetch_) {
      if (p.slot == slot) p.slot = -1;
    }
  }

  void wait_writes_flushed_locked(std::unique_lock<std::mutex>& lock, int slot) {
    cv_.wait(lock, [&] {
      for (const Staging& s : staging_) {
        if (s.busy && s.slot == slot) return false;
      }
      return true;
    });
  }

  void flush_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      if (!jobs_.empty()) return false;
      for (const Staging& s : staging_) {
        if (s.busy) return false;
      }
      return true;
    });
  }

  /// Verify a raw record (header + payload) of `blocks` blocks and copy it
  /// out; `got` is the pread byte count so truncation surfaces as
  /// corruption, not UB.  `precomputed` carries the payload checksum a
  /// prefetch worker already derived from these exact bytes (nullptr:
  /// compute here).
  void unpack(int slot, const unsigned char* raw, ssize_t got, double* values,
              std::int32_t* scales, std::int64_t blocks,
              const std::uint64_t* precomputed = nullptr) {
    const auto fail = [&](const char* what) {
      throw core::sdc::CorruptionDetected(
          node_id_base_ + slot, std::string("spill reload of node ") +
                                    std::to_string(node_id_base_ + slot) + ": " + what);
    };
    const std::int64_t payload = payload_for(blocks);
    if (got < static_cast<ssize_t>(sizeof(SpillHeader))) fail("short read (truncated spill record)");
    SpillHeader header;
    std::memcpy(&header, raw, sizeof(header));
    if (header.magic != kSpillMagic) fail("bad magic");
    if (header.version != kSpillFormatVersion) fail("format version mismatch");
    if (header.slot != static_cast<std::uint32_t>(slot)) fail("record names another slot");
    if (header.blocks != static_cast<std::uint64_t>(blocks)) fail("block count mismatch");
    if (header.payload_bytes != static_cast<std::uint64_t>(payload)) fail("payload size mismatch");
    if (got < static_cast<ssize_t>(sizeof(SpillHeader) + static_cast<std::size_t>(payload))) {
      fail("short read (truncated spill record)");
    }
    const unsigned char* body = raw + sizeof(SpillHeader);
    const std::uint64_t checksum =
        precomputed != nullptr
            ? *precomputed
            : core::sdc::checksum_words(reinterpret_cast<const std::uint64_t*>(body),
                                        static_cast<std::size_t>(payload) / 8);
    if (checksum != header.checksum) fail("checksum mismatch");
    const std::size_t value_bytes = static_cast<std::size_t>(blocks * block_) * sizeof(double);
    std::memcpy(values, body, value_bytes);
    std::memcpy(scales, body + value_bytes, static_cast<std::size_t>(blocks) * sizeof(std::int32_t));
  }

  void worker() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stop_) return;
        continue;
      }
      const Job job = jobs_.front();
      jobs_.pop_front();
      if (job.is_prefetch) {
        Prefetch& p = prefetch_[job.index];
        if (p.slot != job.slot) continue;  // cancelled while queued
        lock.unlock();
        // The record's size is in its header: read a full-width record's
        // worth and checksum the payload the header declares, when it is
        // all there.  unpack() re-checks the header against the slot.
        const ssize_t got = ::pread(fd_, p.data.data(), p.data.size(), offset(job.slot));
        std::uint64_t checksum = 0;
        bool checksummed = false;
        if (got >= static_cast<ssize_t>(sizeof(SpillHeader))) {
          SpillHeader header;
          std::memcpy(&header, p.data.data(), sizeof(header));
          if (header.payload_bytes % 8 == 0 &&
              header.payload_bytes <= static_cast<std::uint64_t>(max_payload_) &&
              static_cast<std::uint64_t>(got) >= sizeof(SpillHeader) + header.payload_bytes) {
            checksum = core::sdc::checksum_words(
                reinterpret_cast<const std::uint64_t*>(p.data.data() + sizeof(SpillHeader)),
                static_cast<std::size_t>(header.payload_bytes) / 8);
            checksummed = true;
          }
        }
        lock.lock();
        if (p.slot == job.slot) {
          p.bytes_read = got;
          p.checksum = checksum;
          p.checksummed = checksummed;
          p.ready = true;
        }
      } else {
        Staging& s = staging_[job.index];
        lock.unlock();
        const std::int64_t payload = payload_for(s.blocks);
        SpillHeader header;
        header.slot = static_cast<std::uint32_t>(job.slot);
        header.blocks = static_cast<std::uint64_t>(s.blocks);
        header.payload_bytes = static_cast<std::uint64_t>(payload);
        header.checksum =
            core::sdc::checksum_words(reinterpret_cast<const std::uint64_t*>(s.data.data()),
                                      static_cast<std::size_t>(payload) / 8);
        bool ok = ::pwrite(fd_, &header, sizeof(header), offset(job.slot)) ==
                  static_cast<ssize_t>(sizeof(header));
        ok = ok && ::pwrite(fd_, s.data.data(), static_cast<std::size_t>(payload),
                            offset(job.slot) + static_cast<off_t>(sizeof(header))) ==
                       static_cast<ssize_t>(payload);
        lock.lock();
        // A failed write leaves the stale header on disk; the reload path
        // then reports corruption and the owner recomputes — degraded but
        // never silently wrong.
        (void)ok;
        s.busy = false;
        s.slot = -1;
      }
      cv_.notify_all();
    }
  }

  int fd_ = -1;
  const std::int64_t block_;        ///< doubles per block
  const std::int64_t max_payload_;  ///< a full-width record's payload
  const std::int64_t stride_;
  const int node_id_base_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;       ///< staging freed / write flushed / prefetch ready
  std::condition_variable work_cv_;  ///< jobs available
  bool stop_ = false;
  Staging staging_[2];
  Prefetch prefetch_[2];
  std::vector<unsigned char> spare_;  ///< recycled record buffer (under mu_)
  std::deque<Job> jobs_;
};

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
    ids_.spills = registry.counter("mem.spills");
    ids_.reloads = registry.counter("mem.reloads");
    ids_.recomputes = registry.counter("mem.recomputes");
    ids_.spill_bytes = registry.counter("mem.spill_bytes");
    ids_.prefetch_hits = registry.counter("mem.prefetch_hit");
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
  if (s.on_disk) {
    spill_file().invalidate(slot);
    s.on_disk = false;
  }
  s.blocks = blocks;
  s.live = true;
  s.last_touch = ++touch_epoch_;
}

Residency ClaStore::ensure_resident(int slot) {
  Slot& s = slots_[at(slot)];
  if (s.live) {
    s.last_touch = ++touch_epoch_;
    return Residency::kResident;
  }
  MINIPHI_ASSERT(s.on_disk);  // owner invariant: valid CLAs always have data
  reserve(slot, s.blocks);
  s.live = true;
  try {
    const bool hit = spill_file().read(slot, values(slot), scales(slot), s.blocks);
    if (hit) {
      ++counters_.prefetch_hits;
      bump(ids_.prefetch_hits, 1);
    }
  } catch (...) {
    // The record is unusable; surrender the claim to data so the heal path
    // recomputes instead of rereading garbage.
    s.on_disk = false;
    s.live = false;
    throw;
  }
  s.last_touch = ++touch_epoch_;
  ++counters_.reloads;
  bump(ids_.reloads, 1);
  return Residency::kReloaded;
}

void ClaStore::drop(int slot) {
  Slot& s = slots_[at(slot)];
  MINIPHI_ASSERT(s.pins == 0);
  s.live = false;
  if (s.on_disk) {
    spill_file().invalidate(slot);
    s.on_disk = false;
  }
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

void ClaStore::prefetch(int slot) {
  Slot& s = slots_[at(slot)];
  if (s.live || !s.on_disk) return;
  spill_file().prefetch(slot);
}

void ClaStore::note_recompute() {
  ++counters_.recomputes;
  bump(ids_.recomputes, 1);
}

bool ClaStore::corrupt_spill_for_testing(int slot) {
  Slot& s = slots_[at(slot)];
  if (!s.on_disk || spill_ == nullptr) return false;
  return spill_->corrupt_record(slot);
}

bool ClaStore::truncate_spill_for_testing(int slot) {
  Slot& s = slots_[at(slot)];
  if (!s.on_disk || spill_ == nullptr) return false;
  return spill_->truncate_record(slot);
}

bool ClaStore::rewrite_spill_header_for_testing(int slot, std::uint32_t version,
                                                std::int64_t blocks) {
  Slot& s = slots_[at(slot)];
  if (!s.on_disk || spill_ == nullptr) return false;
  return spill_->rewrite_header(slot, version, blocks);
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
  // plan window go first — cheapest Sethi–Ullman rebuild first when the
  // eviction will drop (spill off), LRU otherwise; among CLAs the plan
  // still needs, the farthest next use goes, ties broken by LRU.
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
    } else if (!config_.spill && s.rebuild_cost != b.rebuild_cost) {
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
  if (!config_.spill) {
    // Spilling is off: drop the CLA and let the owner invalidate it.
    if (config_.on_drop) config_.on_drop(victim);
  } else if (!s.on_disk) {
    SpillFile& file = spill_file();
    file.write_async(victim, values(victim), scales(victim), s.blocks);
    s.on_disk = true;
    ++counters_.spills;
    counters_.spill_bytes += file.payload_for(s.blocks);
    bump(ids_.spills, 1);
    bump(ids_.spill_bytes, file.payload_for(s.blocks));
  }
  // else: a clean copy is already on disk from an earlier spill — the
  // eviction costs nothing.  The buffer stays, without contents, for the
  // caller to reuse or free.
  s.live = false;
}

void ClaStore::bump(obs::MetricId id, std::int64_t delta) const {
  if (!metrics_on_) return;
  obs::Registry::instance().add(id, delta);
}

SpillFile& ClaStore::spill_file() {
  if (spill_ == nullptr) {
    spill_ = std::make_unique<SpillFile>(config_.spill_dir, block_doubles(), full_blocks(),
                                         config_.node_id_base);
  }
  return *spill_;
}

}  // namespace miniphi::memory
