// Wall-clock timing helpers used by the instrumentation layer (Section VI-B1
// of the paper instruments total time per kernel during a full tree search).
#pragma once

#include <chrono>
#include <cstdint>

namespace miniphi {

/// Monotonic stopwatch.  start() resets; seconds() reads without stopping.
class Timer {
 public:
  Timer() { start(); }

  void start() { t0_ = Clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Seconds since the last start() or lap(), restarting the stopwatch:
  /// back-to-back intervals from one clock read each.
  double lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - t0_).count();
    t0_ = now;
    return seconds;
  }

  [[nodiscard]] std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0_;
};

/// Accumulates total time across many start/stop intervals, e.g. the total
/// time spent inside one PLF kernel over a whole tree search.
class CumulativeTimer {
 public:
  void start() { timer_.start(); running_ = true; }
  void stop() {
    if (running_) {
      total_ += timer_.seconds();
      ++intervals_;
      running_ = false;
    }
  }
  [[nodiscard]] double total_seconds() const { return total_; }
  [[nodiscard]] std::int64_t intervals() const { return intervals_; }
  void reset() { total_ = 0.0; intervals_ = 0; running_ = false; }

 private:
  Timer timer_;
  double total_ = 0.0;
  std::int64_t intervals_ = 0;
  bool running_ = false;
};

/// RAII interval guard for a CumulativeTimer.
class ScopedTimer {
 public:
  explicit ScopedTimer(CumulativeTimer& t) : t_(t) { t_.start(); }
  ~ScopedTimer() { t_.stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  CumulativeTimer& t_;
};

}  // namespace miniphi
