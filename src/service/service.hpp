// In-process multi-tenant evaluation service (DESIGN.md §15).
//
// The service accepts concurrent jobs — evaluate, all-branch gradient,
// branch smoothing — from many client threads, admits them against
// per-tenant quotas and a global CLA byte budget, and dispatches them onto
// executor threads that each own a parallel::WorkerPool and build a fresh
// evaluator per job through the factory seam.  The robustness contract:
//
//  * Deadlines + cooperative cancellation: every job carries a CancelToken
//    (deadline armed at submit, so queue wait counts); engines check it at
//    plan-level boundaries and a cancelled job unwinds with its pins and
//    budget grant released, returning a structured status
//    instead of poisoning shared state.
//  * Admission control + load shedding: a bounded global queue with
//    round-robin per-tenant FIFOs; an overloaded submit returns
//    kOverloadedJobId (retryable — see retry.hpp) instead of blocking.
//  * Graceful degradation: when the global CLA budget cannot cover a job's
//    request, the job is granted what remains (down to a floor) and runs
//    with a tighter CLA-store budget — bit-identical lnL, slower —
//    instead of being rejected.
//  * Containment: sdc::CorruptionDetected escalations escaping an engine's
//    heal ladder are contained to the owning job — the evaluator is
//    rebuilt from scratch and the job retried up to a budget, then failed
//    with a structured error.  No job failure mode aborts the process.
//
// Chaos mode (ChaosConfig) drives the fault drill: seeded, per-job
// deterministic mid-kernel kills (CancelToken::arm_trip_after), mid-
// traversal deadline expiries, and CLA bit flips through the §10 heal path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/bio/alignment.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/evaluator.hpp"
#include "src/model/gtr.hpp"
#include "src/obs/metrics.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/tree/tree.hpp"
#include "src/util/cancellation.hpp"

namespace miniphi::service {

enum class JobKind {
  kEvaluate,      ///< log-likelihood at the canonical root edge
  kGradient,      ///< log-likelihood + all-branch gradient (PR 7 descent)
  kBranchSmooth,  ///< optimize_all_branches passes, returns the final lnL
};

enum class JobStatus {
  kPending,           ///< queued, not yet dispatched
  kRunning,           ///< on an executor
  kOk,                ///< completed; result fields are valid
  kCancelled,         ///< cancel() observed at a cancellation boundary
  kDeadlineExceeded,  ///< deadline expired (in queue or mid-traversal)
  kCorrupt,           ///< corruption escalations exhausted the rebuild budget
  kFailed,            ///< any other structured failure (Error, bad_alloc, …)
};

/// submit() result when the job was shed (queue full or tenant over quota).
/// Retryable: the client-side helper in retry.hpp backs off and resubmits.
inline constexpr std::int64_t kOverloadedJobId = -1;

/// Seeded fault drill (mpi::FaultPlan idiom, DESIGN.md §9): each dispatched
/// job derives a deterministic per-job RNG from `seed` and its job id, so a
/// soak run is reproducible.  Rates are independent probabilities per job.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 0;
  double kill_rate = 0.0;     ///< cancel mid-kernel via arm_trip_after
  double expire_rate = 0.0;   ///< expire the deadline mid-traversal
  double corrupt_rate = 0.0;  ///< flip a CLA bit between two evaluations
};

struct ServiceConfig {
  int executors = 2;     ///< executor threads (each owns a WorkerPool)
  int pool_threads = 1;  ///< workers per executor pool (1 = serial engines)
  /// Global bound on *queued* jobs across all tenants; submits beyond it
  /// are shed with kOverloadedJobId.
  int queue_limit = 32;
  /// Global CLA byte budget governing all running jobs (0 = ungoverned).
  /// Jobs requesting bytes reserve them at dispatch; when the remainder
  /// cannot cover a request the job degrades down to `degrade_floor_bytes`
  /// instead of failing, and below the floor it waits for a release.
  std::int64_t cla_budget_bytes = 0;
  /// Smallest degraded grant.  0 derives a quarter of the job's request.
  /// A floor below the engine's minimum working set fails the job with a
  /// structured error (the engine's "minimum working set" check), never
  /// the process.
  std::int64_t degrade_floor_bytes = 0;
  /// Evaluator rebuilds per job after a CorruptionDetected escalation
  /// escapes the engine heal ladder, before the job fails as kCorrupt.
  int corruption_retry_budget = 2;
  /// Publish `svc.*` metrics (per-tenant counters, queue/budget gauges,
  /// job-latency histogram) to the process obs::Registry.
  obs::MetricsMode metrics = obs::MetricsMode::kOff;
  ChaosConfig chaos;
};

struct TenantQuota {
  /// Max jobs a tenant may have queued + running; submits beyond it shed.
  int max_in_flight = 4;
};

struct JobOptions {
  JobKind kind = JobKind::kEvaluate;
  /// 0 = no deadline.  Armed at submit, so queue wait counts against it.
  std::chrono::nanoseconds deadline{0};
  /// CLA bytes this job requests from the global budget (0 = unbudgeted:
  /// full per-node allocation, no reservation).
  std::int64_t cla_budget_bytes = 0;
  /// >1 builds a partitioned evaluator over even site splits (requires
  /// JobRequest::alignment).
  int partitions = 1;
  int smoothing_passes = 1;  ///< kBranchSmooth only
  bool sdc_checks = false;
};

struct JobRequest {
  std::string tenant;
  /// Single-partition input (partitions == 1).  Must outlive the job.
  const bio::PatternSet* patterns = nullptr;
  /// Partitioned input (partitions > 1).  Must outlive the job.
  const bio::Alignment* alignment = nullptr;
  /// Copied at submit: the service never mutates client trees.
  const tree::Tree* tree = nullptr;
  model::GtrParams params{};
  JobOptions options{};
  /// Test-only fault hook, called once per attempt right after the
  /// evaluator is built (may throw sdc::CorruptionDetected to drill the
  /// containment ladder, or corrupt state through the test peers).
  std::function<void(core::Evaluator&)> fault_injector{};
};

struct JobResult {
  JobStatus status = JobStatus::kPending;
  double log_likelihood = 0.0;
  std::size_t gradient_edges = 0;    ///< kGradient: branches in the sweep
  std::int64_t cla_bytes_granted = 0;  ///< reservation actually granted
  bool degraded = false;             ///< granted < requested
  int rebuilds = 0;                  ///< evaluator rebuilds after escalations
  std::string error;                 ///< structured message for non-kOk
};

/// Monotonic per-tenant counters plus the current in-flight level
/// (queued + running) — the quantity quota admission gates on and the soak
/// test reconciles to zero after drain.
struct TenantStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;  ///< terminal with kOk
  std::int64_t cancelled = 0;
  std::int64_t deadline_expired = 0;
  std::int64_t overloaded = 0;  ///< submits shed (not admitted)
  std::int64_t corrupt = 0;
  std::int64_t failed = 0;
  std::int64_t degraded = 0;  ///< jobs run with a reduced CLA grant
  std::int64_t in_flight = 0;
};

struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t terminal = 0;  ///< jobs in any terminal status
  std::int64_t queued = 0;
  std::int64_t running = 0;
  std::int64_t budget_in_use = 0;  ///< CLA bytes currently reserved
};

/// The in-process evaluation service.  Thread-safe: submit / cancel / wait
/// / stats may be called concurrently from any number of client threads.
class EvaluationService {
 public:
  explicit EvaluationService(const ServiceConfig& config);

  /// Drains gracefully: queued jobs still run (a deadline or cancel still
  /// short-circuits them), then the executors exit.
  ~EvaluationService();

  EvaluationService(const EvaluationService&) = delete;
  EvaluationService& operator=(const EvaluationService&) = delete;

  /// Registers a tenant.  Names must be non-empty and must not contain '.'
  /// (they become metric-name components).  Throws on duplicates.
  void register_tenant(const std::string& name, const TenantQuota& quota);

  /// Admits a job, arming its deadline, or sheds it: returns a job id
  /// (>= 0) or kOverloadedJobId when the global queue is full or the
  /// tenant is over quota.  Throws Error for malformed requests (unknown
  /// tenant, missing inputs) — caller bugs, not load conditions.
  std::int64_t submit(const JobRequest& request);

  /// Requests cooperative cancellation.  Returns false when the job is
  /// unknown or already terminal.  The job still completes through wait()
  /// with kCancelled (or with its own result if it won the race).
  bool cancel(std::int64_t job_id);

  /// Blocks until the job is terminal and returns its result.  Throws
  /// Error for unknown ids.
  JobResult wait(std::int64_t job_id);

  /// Blocks until no job is queued or running.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TenantStats tenant_stats(const std::string& name) const;

 private:
  struct Tenant;
  struct Job;

  void executor_loop();
  std::shared_ptr<Job> pop_next_locked();
  void run_job(parallel::WorkerPool& pool, const std::shared_ptr<Job>& job);
  void run_job_attempt(parallel::WorkerPool& pool, Job& job, std::int64_t grant,
                       JobResult& result);
  double chaos_corrupt_and_reevaluate(core::Evaluator& evaluator, Job& job, tree::Slot* root);
  /// Reserves CLA bytes for `job` (possibly degraded), waiting for a
  /// release when even the floor is unavailable.  Returns the grant and
  /// sets `degraded`.  Throws Error when the budget can never fit.
  std::int64_t reserve_budget(Job& job, bool& degraded);
  void release_budget(std::int64_t grant);
  void finish_job(const std::shared_ptr<Job>& job, JobResult result);
  void publish_gauges_locked();
  void arm_chaos(Job& job);

  ServiceConfig config_;
  bool metrics_ = false;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;    ///< executors: work available / stop
  std::condition_variable budget_cv_;  ///< dispatchers waiting for budget
  std::condition_variable done_cv_;    ///< wait()/drain() wakeups
  bool stop_ = false;

  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> tenant_order_;  ///< round-robin admission order
  std::size_t rr_cursor_ = 0;
  std::unordered_map<std::int64_t, std::shared_ptr<Job>> jobs_;
  std::int64_t next_job_id_ = 0;
  std::int64_t queued_ = 0;
  std::int64_t running_ = 0;
  std::int64_t budget_in_use_ = 0;
  ServiceStats totals_;

  // svc.* metric ids (valid when metrics_).
  obs::MetricId queue_depth_id_{};
  obs::MetricId running_id_{};
  obs::MetricId budget_id_{};
  obs::MetricId latency_id_{};

  std::vector<std::thread> executors_;  ///< last member: joins before teardown
};

}  // namespace miniphi::service
