// Persistent fork-join worker pool — the RAxML-Light PThreads scheme.
//
// The paper (Section V-C/V-D): "In the classical fork-join parallelization
// approach used in RAxML-Light, master and worker processes have to
// communicate at least twice per parallel region/kernel."  This pool models
// exactly that: a master thread publishes a task, workers run it over their
// ids, and the master blocks until all have finished — two synchronization
// points per region.  The region counter feeds the platform model's
// synchronization-overhead term.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace miniphi::parallel {

class WorkerPool {
 public:
  /// Spawns `thread_count` persistent workers (>= 1).  Worker 0 is the
  /// calling thread itself (master participates, as in RAxML-Light).
  explicit WorkerPool(int thread_count);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int size() const { return thread_count_; }

  /// Fork-join region: runs fn(thread_id) on every worker, returns when all
  /// are done.  Must be called from the thread that built the pool.
  /// If fn throws on any worker (including the master), the region still
  /// joins — every worker finishes or unwinds, the pool stays usable — and
  /// the first exception in thread-id order is rethrown to the master.
  void run(const std::function<void(int)>& fn);

  /// Fork-join region with a sum-reduction over the per-thread results.
  double run_reduce_sum(const std::function<double(int)>& fn);

  /// One fork-join region that executes fn(0..count-1): workers claim task
  /// indices from a shared atomic counter, so `count` may exceed (or
  /// undershoot) the thread count and imbalanced tasks self-balance.  This
  /// is the dispatch primitive of the stream executor — every stream task
  /// of one evaluator call in a single region/barrier.
  void run_tasks(int count, const std::function<void(int)>& fn);

  /// Number of fork-join regions executed so far (2 syncs each).
  [[nodiscard]] std::int64_t region_count() const { return regions_; }

  /// Runtime attribution across all regions so far: `compute_seconds` is the
  /// summed in-task time of every worker; `wait_seconds` is the summed time
  /// workers spent idle inside a region (region wall time minus their own
  /// task time — the fork-join barrier imbalance the paper's Section V-C/D
  /// synchronization-overhead discussion is about).  Read between regions
  /// from the master thread.
  [[nodiscard]] double compute_seconds() const { return compute_seconds_; }
  [[nodiscard]] double wait_seconds() const { return wait_seconds_; }
  void reset_times() { compute_seconds_ = 0.0; wait_seconds_ = 0.0; }

 private:
  void worker_loop(int thread_id);

  int thread_count_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
  std::int64_t regions_ = 0;

  std::vector<double> partials_;
  std::vector<std::exception_ptr> errors_;  ///< per-thread failure of the current region
  std::atomic<int> next_task_{0};           ///< run_tasks claim counter

  // Region attribution.  Workers write task_seconds_[tid] before the
  // mutex-guarded remaining_ decrement, the master reads after the join —
  // the mutex handshake orders the accesses.
  std::vector<double> task_seconds_;
  double compute_seconds_ = 0.0;
  double wait_seconds_ = 0.0;
};

}  // namespace miniphi::parallel
