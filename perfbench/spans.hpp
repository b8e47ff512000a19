// In-memory span log of the benchmark's traced run.
//
// Every span is recorded by the benchmark around its own call into one of
// the library's public layer boundaries (io, bio, tree, core, search,
// memory, parallel, service); nothing inside the library is instrumented.
// A span carries its name, start, end, the span that was open on the same
// thread when it began (its parent) and the op (one search or one service
// job) it belongs to.  Spans stay in memory until the run ends, when they
// are written as chrome-trace JSON beside a per-layer self-time table.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< "<layer>.<what>", a string literal
  std::int64_t start_ns = 0;   ///< since the log's epoch
  std::int64_t end_ns = -1;    ///< -1 while open
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 = none
  std::int64_t op = -1;        ///< op id, -1 = outside any op
  std::uint32_t thread = 0;    ///< small per-thread index
};

class SpanLog {
 public:
  static SpanLog& instance();

  /// Spans are recorded only while enabled (the traced half of a run).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const;

  /// Opens a span on the calling thread; returns its index.
  std::int32_t open(const char* name, std::int64_t op);
  void close(std::int32_t index);
  /// Records an already finished span whose timestamps came from now_ns().
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::int32_t parent,
              std::int64_t op);

  /// The span currently open on the calling thread (-1 = none).
  [[nodiscard]] std::int32_t current() const;

  /// Self time per layer: each closed span's duration minus its direct
  /// children's, summed by the layer prefix of its name.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

  [[nodiscard]] std::string chrome_trace_json() const;
  [[nodiscard]] std::string self_time_table() const;
  [[nodiscard]] std::size_t size() const;

 private:
  SpanLog();
  std::int64_t epoch_ns_ = 0;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span; a no-op while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_ = -1;
};

}  // namespace perfbench
