#include "src/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/core/engine.hpp"
#include "src/core/engine_config.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/core/partition_spec.hpp"
#include "src/core/partitioned.hpp"
#include "src/core/sdc.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/pool_parallel_for.hpp"
#include "src/platform/cost_model.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace miniphi::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-job chaos stream: decorrelated from the soak seed by the job id, so
/// every run of the same seed draws the same fault plan per job.
std::uint64_t chaos_stream(std::uint64_t seed, std::int64_t job_id) {
  return seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(job_id + 1));
}

}  // namespace

struct EvaluationService::Tenant {
  std::string name;
  TenantQuota quota;
  TenantStats stats;
  std::deque<std::shared_ptr<Job>> queue;
  // svc.tenant.<name>.* counter ids (valid when the service publishes).
  obs::MetricId submitted_id{};
  obs::MetricId completed_id{};
  obs::MetricId cancelled_id{};
  obs::MetricId deadline_id{};
  obs::MetricId overloaded_id{};
  obs::MetricId corrupt_id{};
  obs::MetricId failed_id{};
  obs::MetricId degraded_id{};
};

struct EvaluationService::Job {
  Job(std::int64_t job_id, Tenant* owner, const JobRequest& req)
      : id(job_id), tenant(owner), request(req), tree(*req.tree) {}

  std::int64_t id;
  Tenant* tenant;
  JobRequest request;
  tree::Tree tree;  ///< master copy taken at submit; attempts copy again
  CancelToken token;
  Clock::time_point submitted_at = Clock::now();

  // Chaos plan (armed at dispatch, deterministic per job id).
  bool chaos_corrupt = false;
  std::uint64_t chaos_rng_seed = 0;

  // Guarded by the service mutex.
  JobStatus status = JobStatus::kPending;
  bool done = false;
  JobResult result;
};

EvaluationService::EvaluationService(const ServiceConfig& config) : config_(config) {
  MINIPHI_CHECK(config_.executors >= 1, "service: needs at least one executor");
  MINIPHI_CHECK(config_.pool_threads >= 1, "service: needs at least one pool thread");
  MINIPHI_CHECK(config_.queue_limit >= 1, "service: queue limit must be positive");
  if (obs::kMetricsCompiled && config_.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    obs::Registry& registry = obs::Registry::instance();
    queue_depth_id_ = registry.gauge("svc.queue.depth");
    running_id_ = registry.gauge("svc.jobs.running");
    budget_id_ = registry.gauge("svc.budget.in_use_bytes");
    latency_id_ = registry.histogram("svc.job.latency_us");
  }
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  for (int e = 0; e < config_.executors; ++e) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

EvaluationService::~EvaluationService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  budget_cv_.notify_all();
  for (auto& thread : executors_) thread.join();
}

void EvaluationService::register_tenant(const std::string& name, const TenantQuota& quota) {
  MINIPHI_CHECK(!name.empty() && name.find('.') == std::string::npos,
                "service: tenant names must be non-empty and must not contain '.' "
                "(they become svc.tenant.<name>.* metric components)");
  MINIPHI_CHECK(quota.max_in_flight >= 1, "service: tenant quota must admit at least one job");
  const std::lock_guard<std::mutex> lock(mutex_);
  MINIPHI_CHECK(tenants_.find(name) == tenants_.end(),
                "service: tenant '" + name + "' is already registered");
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->quota = quota;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    const std::string prefix = "svc.tenant." + name + ".";
    tenant->submitted_id = registry.counter(prefix + "submitted");
    tenant->completed_id = registry.counter(prefix + "completed");
    tenant->cancelled_id = registry.counter(prefix + "cancelled");
    tenant->deadline_id = registry.counter(prefix + "deadline_expired");
    tenant->overloaded_id = registry.counter(prefix + "overloaded");
    tenant->corrupt_id = registry.counter(prefix + "corrupt");
    tenant->failed_id = registry.counter(prefix + "failed");
    tenant->degraded_id = registry.counter(prefix + "degraded");
  }
  tenant_order_.push_back(tenant.get());
  tenants_.emplace(name, std::move(tenant));
}

std::int64_t EvaluationService::submit(const JobRequest& request) {
  const JobOptions& options = request.options;
  MINIPHI_CHECK(request.tree != nullptr, "service: job needs a tree");
  MINIPHI_CHECK(options.partitions >= 1, "service: partitions must be >= 1");
  if (options.partitions > 1) {
    MINIPHI_CHECK(request.alignment != nullptr,
                  "service: partitioned jobs need JobRequest::alignment");
  } else {
    MINIPHI_CHECK(request.patterns != nullptr,
                  "service: single-partition jobs need JobRequest::patterns");
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  MINIPHI_CHECK(!stop_, "service: submit after shutdown");
  const auto it = tenants_.find(request.tenant);
  MINIPHI_CHECK(it != tenants_.end(),
                "service: unknown tenant '" + request.tenant + "' (register it first)");
  Tenant& tenant = *it->second;

  // Load shedding: bounded global queue, per-tenant in-flight quota.  Both
  // return the retryable sentinel instead of blocking the client.
  if (queued_ >= config_.queue_limit ||
      tenant.stats.in_flight >= tenant.quota.max_in_flight) {
    ++tenant.stats.overloaded;
    if (metrics_) obs::Registry::instance().add(tenant.overloaded_id, 1);
    return kOverloadedJobId;
  }

  const std::int64_t id = next_job_id_++;
  auto job = std::make_shared<Job>(id, &tenant, request);
  if (options.deadline.count() > 0) {
    // Armed at submit: queue wait counts against the deadline, so a job
    // that starves in the queue expires without ever touching an engine.
    job->token.set_deadline_after(options.deadline);
  }
  jobs_.emplace(id, job);
  tenant.queue.push_back(std::move(job));
  ++queued_;
  ++tenant.stats.in_flight;
  ++tenant.stats.submitted;
  ++totals_.submitted;
  if (metrics_) obs::Registry::instance().add(tenant.submitted_id, 1);
  publish_gauges_locked();
  work_cv_.notify_one();
  return id;
}

bool EvaluationService::cancel(std::int64_t job_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second->done) return false;
  it->second->token.cancel();
  // A dispatcher parked on the budget wait polls its token; wake it now.
  budget_cv_.notify_all();
  return true;
}

JobResult EvaluationService::wait(std::int64_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  MINIPHI_CHECK(it != jobs_.end(),
                "service: wait on unknown job id " + std::to_string(job_id));
  const std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return job->done; });
  return job->result;
}

void EvaluationService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return queued_ == 0 && running_ == 0; });
}

ServiceStats EvaluationService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats out = totals_;
  out.queued = queued_;
  out.running = running_;
  out.budget_in_use = budget_in_use_;
  return out;
}

TenantStats EvaluationService::tenant_stats(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  MINIPHI_CHECK(it != tenants_.end(), "service: unknown tenant '" + name + "'");
  return it->second->stats;
}

void EvaluationService::publish_gauges_locked() {
  if (!metrics_) return;
  obs::Registry& registry = obs::Registry::instance();
  registry.set(queue_depth_id_, queued_);
  registry.set(running_id_, running_);
  registry.set(budget_id_, budget_in_use_);
}

std::shared_ptr<EvaluationService::Job> EvaluationService::pop_next_locked() {
  // Round-robin fair admission: each dispatch starts scanning one tenant
  // past where the last one found work, so a tenant with a deep backlog
  // cannot starve the others out of the executor pool.
  const std::size_t count = tenant_order_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Tenant& tenant = *tenant_order_[(rr_cursor_ + i) % count];
    if (tenant.queue.empty()) continue;
    rr_cursor_ = (rr_cursor_ + i + 1) % count;
    std::shared_ptr<Job> job = std::move(tenant.queue.front());
    tenant.queue.pop_front();
    return job;
  }
  return nullptr;
}

void EvaluationService::executor_loop() {
  // Each executor owns its pool: a WorkerPool must be driven from the
  // thread that constructed it, and one pool per executor means jobs never
  // contend for fork-join regions.
  parallel::WorkerPool pool(config_.pool_threads);
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || queued_ > 0; });
      if (queued_ == 0) {
        if (stop_) return;  // graceful: the queue drained first
        continue;
      }
      job = pop_next_locked();
      if (job == nullptr) continue;
      --queued_;
      ++running_;
      job->status = JobStatus::kRunning;
      publish_gauges_locked();
    }
    run_job(pool, job);
  }
}

void EvaluationService::arm_chaos(Job& job) {
  const ChaosConfig& chaos = config_.chaos;
  if (!chaos.enabled) return;
  Rng rng(chaos_stream(chaos.seed, job.id));
  job.chaos_rng_seed = chaos_stream(chaos.seed ^ 0xC0FFEE, job.id);
  if (rng.uniform() < chaos.kill_rate) {
    // Mid-kernel kill: trip on a small check ordinal so the cancellation
    // lands inside the traversal, not before it.
    job.token.arm_trip_after(1 + static_cast<std::int64_t>(rng.below(16)),
                             /*as_deadline=*/false);
  } else if (rng.uniform() < chaos.expire_rate) {
    // Mid-traversal deadline expiry: same trip mechanism, deadline flavor.
    job.token.arm_trip_after(1 + static_cast<std::int64_t>(rng.below(16)),
                             /*as_deadline=*/true);
  }
  // Corruption only drills jobs that can detect it: the §10 heal ladder
  // needs sdc_checks, and the injection hook needs a concrete engine.
  if (job.request.options.sdc_checks && job.request.options.kind == JobKind::kEvaluate &&
      rng.uniform() < chaos.corrupt_rate) {
    job.chaos_corrupt = true;
  }
}

std::int64_t EvaluationService::reserve_budget(Job& job, bool& degraded) {
  degraded = false;
  const std::int64_t want = job.request.options.cla_budget_bytes;
  if (config_.cla_budget_bytes <= 0 || want <= 0) return want;  // ungoverned
  const std::int64_t floor =
      config_.degrade_floor_bytes > 0
          ? std::min<std::int64_t>(want, config_.degrade_floor_bytes)
          : std::max<std::int64_t>(1, want / 4);
  MINIPHI_CHECK(floor <= config_.cla_budget_bytes,
                "service: job degrade floor (" + std::to_string(floor) +
                    " bytes) exceeds the global CLA budget (" +
                    std::to_string(config_.cla_budget_bytes) + " bytes)");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::int64_t available = config_.cla_budget_bytes - budget_in_use_;
    std::int64_t grant = 0;
    if (available >= want) {
      grant = want;
    } else if (available >= floor) {
      // Memory pressure: run with what is left instead of rejecting.  The
      // CLA store keeps lnL bit-identical across budgets (DESIGN.md
      // §14), so degradation costs wall time, never correctness.
      grant = available;
      degraded = true;
    }
    if (grant > 0) {
      budget_in_use_ += grant;
      publish_gauges_locked();
      return grant;
    }
    // Even the floor cannot fit: running jobs hold the bytes.  Park until
    // a release (or our own cancellation/deadline) — floor <= total, so an
    // idle budget always grants.
    job.token.check();
    budget_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
}

void EvaluationService::release_budget(std::int64_t grant) {
  if (grant <= 0 || config_.cla_budget_bytes <= 0) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    budget_in_use_ -= grant;
    MINIPHI_ASSERT(budget_in_use_ >= 0);
    publish_gauges_locked();
  }
  budget_cv_.notify_all();
}

void EvaluationService::run_job(parallel::WorkerPool& pool, const std::shared_ptr<Job>& job) {
  arm_chaos(*job);
  JobResult result;

  // Died in the queue (explicit cancel or deadline starve): report without
  // ever touching an engine or the budget.
  if (job->token.cancelled()) {
    result.status =
        job->token.deadline_expired() ? JobStatus::kDeadlineExceeded : JobStatus::kCancelled;
    result.error = job->token.deadline_expired() ? "cancel: deadline exceeded in queue"
                                                 : "cancel: cancelled in queue";
    finish_job(job, result);
    return;
  }

  std::int64_t grant = 0;
  bool degraded = false;
  try {
    grant = reserve_budget(*job, degraded);
  } catch (const CancelledError& cancelled) {
    result.status = cancelled.deadline_expired() ? JobStatus::kDeadlineExceeded
                                                 : JobStatus::kCancelled;
    result.error = cancelled.what();
    finish_job(job, result);
    return;
  } catch (const std::exception& error) {
    result.status = JobStatus::kFailed;
    result.error = error.what();
    finish_job(job, result);
    return;
  }
  result.cla_bytes_granted = grant;
  result.degraded = degraded;

  for (int attempt = 0;; ++attempt) {
    try {
      run_job_attempt(pool, *job, grant, result);
      result.status = JobStatus::kOk;
      break;
    } catch (const CancelledError& cancelled) {
      result.status = cancelled.deadline_expired() ? JobStatus::kDeadlineExceeded
                                                   : JobStatus::kCancelled;
      result.error = cancelled.what();
      break;
    } catch (const core::sdc::CorruptionDetected& fault) {
      // An escalation escaped the engine's own heal ladder.  Containment:
      // throw the poisoned evaluator away (its CLA store and pins die
      // with it) and rebuild from the pristine inputs — the
      // fault stays inside this job either way.
      result.rebuilds = attempt + 1;
      if (attempt < config_.corruption_retry_budget) continue;
      result.status = JobStatus::kCorrupt;
      result.error = fault.what();
      break;
    } catch (const std::exception& error) {
      result.status = JobStatus::kFailed;
      result.error = error.what();
      break;
    }
  }
  release_budget(grant);
  finish_job(job, result);
}

void EvaluationService::run_job_attempt(parallel::WorkerPool& pool, Job& job,
                                        std::int64_t grant, JobResult& result) {
  const JobRequest& request = job.request;
  const JobOptions& options = request.options;

  // Fresh working state per attempt: a corruption retry must not inherit
  // anything from the poisoned evaluator, including branch lengths a
  // partial smooth already moved.
  tree::Tree tree(job.tree);
  const model::GtrModel model(request.params);

  core::EngineConfig config;
  config.cancel = &job.token;
  config.sdc_checks = options.sdc_checks;
  config.cla_budget_bytes = grant > 0 ? grant : 0;

  // Declared first: a partitioned evaluator dispatches its streams through
  // it until the evaluator is gone.
  parallel::PoolParallelFor parallel_for(pool);
  std::unique_ptr<core::Evaluator> evaluator;
  std::vector<core::PartitionSpec> specs;
  if (options.partitions > 1) {
    specs = core::even_partitions(static_cast<std::int64_t>(request.alignment->site_count()),
                                  options.partitions);
    // Pack the partitions onto the pool's threads by LPT over their
    // compressed pattern counts, as the C API does.  One thread runs one
    // stream, which needs no plan and no extra compression pass.
    core::StreamPlan streams;
    if (config_.pool_threads > 1) {
      streams = platform::plan_partition_streams(
          core::partition_pattern_counts(*request.alignment, specs), config_.pool_threads,
          config.isa);
    }
    auto partitioned = std::make_unique<core::PartitionedEvaluator>(
        *request.alignment, specs, model, tree, config, streams);
    partitioned->set_parallel_for(&parallel_for);
    evaluator = std::move(partitioned);
  } else if (config_.pool_threads > 1) {
    evaluator = parallel::make_fork_join_evaluator(pool, *request.patterns, model, tree, config);
  } else {
    evaluator = core::make_evaluator(*request.patterns, model, tree, config);
  }
  if (request.fault_injector) request.fault_injector(*evaluator);

  tree::Slot* root = tree.edges().front();
  switch (options.kind) {
    case JobKind::kEvaluate: {
      double lnl = evaluator->log_likelihood(root);
      if (job.chaos_corrupt) {
        lnl = chaos_corrupt_and_reevaluate(*evaluator, job, root);
      }
      result.log_likelihood = lnl;
      break;
    }
    case JobKind::kGradient: {
      result.log_likelihood = evaluator->log_likelihood(root);
      std::vector<core::BranchGradient> gradients;
      MINIPHI_CHECK(evaluator->gradient_all_branches(root, gradients),
                    "service: evaluator does not support all-branch gradients");
      result.gradient_edges = gradients.size();
      break;
    }
    case JobKind::kBranchSmooth:
      result.log_likelihood = evaluator->optimize_all_branches(root, options.smoothing_passes);
      break;
  }
}

double EvaluationService::chaos_corrupt_and_reevaluate(core::Evaluator& evaluator, Job& job,
                                                       tree::Slot* root) {
  // Flip one bit in a committed CLA, then re-evaluate: the verify-before-
  // reuse protocol (DESIGN.md §10) must detect it and heal by recompute,
  // so the returned lnL is the same bits the uncorrupted job produced —
  // exactly what the soak asserts against the solo baseline.
  core::LikelihoodEngine* engine = dynamic_cast<core::LikelihoodEngine*>(&evaluator);
  if (engine == nullptr) {
    if (auto* partitioned = dynamic_cast<core::PartitionedEvaluator*>(&evaluator)) {
      engine = &partitioned->partition_engine(0);
    }
  }
  if (engine != nullptr) {
    Rng rng(job.chaos_rng_seed);
    const int taxa = job.tree.taxon_count();
    const int inner = job.tree.inner_count();
    for (int tries = 0; tries < 8; ++tries) {
      const int node = taxa + static_cast<int>(rng.below(static_cast<std::uint64_t>(inner)));
      const auto word = static_cast<std::int64_t>(rng.below(1u << 20));
      const int bit = static_cast<int>(rng.below(52));
      if (engine->corrupt_cla_for_testing(node, word, bit)) break;
    }
  }
  return evaluator.log_likelihood(root);
}

void EvaluationService::finish_job(const std::shared_ptr<Job>& job, JobResult result) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Tenant& tenant = *job->tenant;
    job->status = result.status;
    job->result = std::move(result);
    job->done = true;
    --running_;
    --tenant.stats.in_flight;
    ++totals_.terminal;
    obs::Registry* registry = metrics_ ? &obs::Registry::instance() : nullptr;
    switch (job->status) {
      case JobStatus::kOk:
        ++tenant.stats.completed;
        if (registry != nullptr) registry->add(tenant.completed_id, 1);
        break;
      case JobStatus::kCancelled:
        ++tenant.stats.cancelled;
        if (registry != nullptr) registry->add(tenant.cancelled_id, 1);
        break;
      case JobStatus::kDeadlineExceeded:
        ++tenant.stats.deadline_expired;
        if (registry != nullptr) registry->add(tenant.deadline_id, 1);
        break;
      case JobStatus::kCorrupt:
        ++tenant.stats.corrupt;
        if (registry != nullptr) registry->add(tenant.corrupt_id, 1);
        break;
      case JobStatus::kFailed:
      case JobStatus::kPending:
      case JobStatus::kRunning:
        ++tenant.stats.failed;
        if (registry != nullptr) registry->add(tenant.failed_id, 1);
        break;
    }
    if (job->result.degraded) {
      ++tenant.stats.degraded;
      if (registry != nullptr) registry->add(tenant.degraded_id, 1);
    }
    if (registry != nullptr) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - job->submitted_at);
      registry->observe(latency_id_, elapsed.count());
    }
    publish_gauges_locked();
  }
  done_cv_.notify_all();
}

}  // namespace miniphi::service
