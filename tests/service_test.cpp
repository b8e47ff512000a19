// Tests for the multi-tenant evaluation service (DESIGN.md §15): job kinds
// against solo baselines, admission control and load shedding, the retry
// helper, deadlines (in queue and mid-traversal), cooperative cancellation,
// graceful degradation under the global CLA budget, corruption containment,
// pool dispatch, and the seeded chaos soak — the fault drill the whole
// robustness contract is judged by.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/bio/patterns.hpp"
#include "src/core/kernels.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/core/partition_spec.hpp"
#include "src/core/partitioned.hpp"
#include "src/core/sdc.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/service/retry.hpp"
#include "src/service/service.hpp"
#include "src/util/cancellation.hpp"
#include "tests/testutil.hpp"

namespace miniphi::service {
namespace {

using namespace std::chrono_literals;

// Nominal bytes of one dense CLA buffer per pattern (matches the budget
// carving arithmetic in src/core; see memory_test.cpp).
constexpr std::int64_t kBytesPerPattern =
    core::kSiteBlock * static_cast<std::int64_t>(sizeof(double)) +
    static_cast<std::int64_t>(sizeof(std::int32_t));

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : rng_(101),
        alignment_(testutil::random_alignment(10, 240, rng_, 0.05)),
        patterns_(bio::compress_patterns(alignment_)),
        params_(testutil::random_gtr_params(rng_)),
        base_tree_(tree::Tree::random(10, rng_)) {}

  JobRequest make_request(const std::string& tenant, JobKind kind) const {
    JobRequest request;
    request.tenant = tenant;
    request.patterns = &patterns_;
    request.alignment = &alignment_;
    request.tree = &base_tree_;
    request.params = params_;
    request.options.kind = kind;
    return request;
  }

  /// Solo baseline with the evaluator shape the service builds for
  /// pool_threads == 1 (lnL is bit-identical across CLA budgets, so the
  /// same baseline also covers budgeted and degraded jobs).
  double solo(JobKind kind, int partitions = 1, int passes = 1) const {
    tree::Tree tree(base_tree_);
    const model::GtrModel model(params_);
    std::unique_ptr<core::Evaluator> evaluator;
    std::vector<core::PartitionSpec> specs;
    parallel::WorkerPool pool(1);
    if (partitions > 1) {
      specs = core::even_partitions(static_cast<std::int64_t>(alignment_.site_count()),
                                    partitions);
      core::StreamPlan streams;
      streams.stream_count = 1;
      evaluator = parallel::make_stream_evaluator(pool, alignment_, specs, model, tree, {},
                                                  streams);
    } else {
      evaluator = core::make_evaluator(patterns_, model, tree, core::EngineConfig{});
    }
    tree::Slot* root = tree.edges().front();
    switch (kind) {
      case JobKind::kEvaluate:
      case JobKind::kGradient:
        return evaluator->log_likelihood(root);
      case JobKind::kBranchSmooth:
        return evaluator->optimize_all_branches(root, passes);
    }
    return 0.0;
  }

  std::size_t solo_gradient_edges() const {
    tree::Tree tree(base_tree_);
    const model::GtrModel model(params_);
    auto evaluator = core::make_evaluator(patterns_, model, tree, core::EngineConfig{});
    (void)evaluator->log_likelihood(tree.edges().front());
    std::vector<core::BranchGradient> gradients;
    EXPECT_TRUE(evaluator->gradient_all_branches(tree.edges().front(), gradients));
    return gradients.size();
  }

  std::int64_t buffer_bytes() const {
    return static_cast<std::int64_t>(patterns_.pattern_count()) * kBytesPerPattern;
  }

  /// The smallest grant an engine over the base tree accepts, in buffers.
  int floor_buffers() const { return core::min_cla_buffers(base_tree_.inner_count()); }

  mutable Rng rng_;
  bio::Alignment alignment_;
  bio::PatternSet patterns_;
  model::GtrParams params_;
  tree::Tree base_tree_;
};

/// Gate a job inside its fault_injector hook so the test controls exactly
/// when the executor is busy and when it may proceed.
struct Gate {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future{release.get_future()};

  std::function<void(core::Evaluator&)> injector() {
    return [this](core::Evaluator&) {
      entered.set_value();
      release_future.wait();
    };
  }

  /// Releases the parked job; later calls do nothing.
  void open() {
    if (!opened) {
      opened = true;
      release.set_value();
    }
  }
  bool opened = false;
};

/// Opens a gate when the test body unwinds.  An assertion that returns
/// before the gate opens would otherwise leave the gated job parked, and
/// the service's destructor would wait for it until the test times out.
/// Declare the gate before the service and this guard after it: the guard
/// opens the gate, the service joins the job, then the gate goes.
struct OpenOnExit {
  Gate& gate;
  ~OpenOnExit() { gate.open(); }
};

TEST_F(ServiceTest, JobKindsMatchSoloRunsBitForBit) {
  EvaluationService service{ServiceConfig{}};
  service.register_tenant("acme", {});

  const std::int64_t id_eval = service.submit(make_request("acme", JobKind::kEvaluate));
  const std::int64_t id_grad = service.submit(make_request("acme", JobKind::kGradient));
  JobRequest smooth_request = make_request("acme", JobKind::kBranchSmooth);
  smooth_request.options.smoothing_passes = 2;
  const std::int64_t id_smooth = service.submit(smooth_request);
  JobRequest partitioned = make_request("acme", JobKind::kEvaluate);
  partitioned.options.partitions = 3;
  const std::int64_t id_part = service.submit(partitioned);
  ASSERT_GE(id_eval, 0);
  ASSERT_GE(id_grad, 0);
  ASSERT_GE(id_smooth, 0);
  ASSERT_GE(id_part, 0);

  const JobResult eval = service.wait(id_eval);
  ASSERT_EQ(eval.status, JobStatus::kOk) << eval.error;
  EXPECT_EQ(eval.log_likelihood, solo(JobKind::kEvaluate));

  const JobResult grad = service.wait(id_grad);
  ASSERT_EQ(grad.status, JobStatus::kOk) << grad.error;
  EXPECT_EQ(grad.log_likelihood, solo(JobKind::kEvaluate));
  EXPECT_EQ(grad.gradient_edges, solo_gradient_edges());

  const JobResult smooth = service.wait(id_smooth);
  ASSERT_EQ(smooth.status, JobStatus::kOk) << smooth.error;
  EXPECT_EQ(smooth.log_likelihood, solo(JobKind::kBranchSmooth, 1, 2));

  const JobResult part = service.wait(id_part);
  ASSERT_EQ(part.status, JobStatus::kOk) << part.error;
  EXPECT_EQ(part.log_likelihood, solo(JobKind::kEvaluate, 3));

  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.terminal, 4);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.budget_in_use, 0);
  const TenantStats tenant = service.tenant_stats("acme");
  EXPECT_EQ(tenant.completed, 4);
  EXPECT_EQ(tenant.in_flight, 0);
}

TEST_F(ServiceTest, AdmissionShedsQueueFullAndTenantQuotaSeparately) {
  ServiceConfig config;
  config.executors = 1;
  config.queue_limit = 3;
  Gate gate;  // outlives the service, which joins the gated job
  EvaluationService service(config);
  service.register_tenant("roomy", TenantQuota{.max_in_flight = 10});
  service.register_tenant("capped", TenantQuota{.max_in_flight = 2});

  // Park the single executor inside a gated job; everything submitted from
  // here on stays queued, making admission decisions deterministic.
  const OpenOnExit open_on_exit{gate};
  JobRequest blocker = make_request("roomy", JobKind::kEvaluate);
  blocker.fault_injector = gate.injector();
  const std::int64_t blocker_id = service.submit(blocker);
  ASSERT_GE(blocker_id, 0);
  gate.entered.get_future().wait();

  // Tenant quota: two in flight admitted, the third sheds even though the
  // global queue still has room.
  const std::int64_t capped_a = service.submit(make_request("capped", JobKind::kEvaluate));
  const std::int64_t capped_b = service.submit(make_request("capped", JobKind::kEvaluate));
  ASSERT_GE(capped_a, 0);
  ASSERT_GE(capped_b, 0);
  EXPECT_EQ(service.submit(make_request("capped", JobKind::kEvaluate)), kOverloadedJobId);
  EXPECT_EQ(service.tenant_stats("capped").overloaded, 1);

  // Global queue: one more fills it (2 capped + 1 roomy queued), the next
  // sheds on queue-full despite the roomy quota.
  const std::int64_t roomy_a = service.submit(make_request("roomy", JobKind::kEvaluate));
  ASSERT_GE(roomy_a, 0);
  EXPECT_EQ(service.submit(make_request("roomy", JobKind::kEvaluate)), kOverloadedJobId);
  EXPECT_EQ(service.tenant_stats("roomy").overloaded, 1);

  // Release the executor; the shed condition clears and the retry helper
  // gets the previously-rejected job admitted.
  gate.open();
  RetryPolicy policy;
  policy.max_attempts = 200;
  policy.initial_delay = 200us;
  policy.max_delay = 2ms;
  policy.seed = 7;
  const std::int64_t retried = submit_with_retry(service, make_request("capped", JobKind::kEvaluate), policy);
  ASSERT_GE(retried, 0);
  EXPECT_EQ(service.wait(retried).status, JobStatus::kOk);
  for (const std::int64_t id : {blocker_id, capped_a, capped_b, roomy_a}) {
    EXPECT_EQ(service.wait(id).status, JobStatus::kOk);
  }
  service.drain();
  EXPECT_EQ(service.tenant_stats("capped").in_flight, 0);
  EXPECT_EQ(service.tenant_stats("roomy").in_flight, 0);
}

TEST(RetryHelper, BacksOffUntilAdmittedAndGivesUpAtTheCap) {
  int calls = 0;
  const std::int64_t admitted = submit_with_retry(
      [&]() -> std::int64_t { return ++calls < 4 ? kOverloadedJobId : 7; }, RetryPolicy{});
  EXPECT_EQ(admitted, 7);
  EXPECT_EQ(calls, 4);

  calls = 0;
  RetryPolicy strict;
  strict.max_attempts = 3;
  strict.initial_delay = 50us;
  const std::int64_t shed = submit_with_retry(
      [&]() -> std::int64_t {
        ++calls;
        return kOverloadedJobId;
      },
      strict);
  EXPECT_EQ(shed, kOverloadedJobId);
  EXPECT_EQ(calls, 3);
}

TEST_F(ServiceTest, DeadlineExpiresInQueueWithoutTouchingAnEngine) {
  ServiceConfig config;
  config.executors = 1;
  Gate gate;  // outlives the service, which joins the gated job
  EvaluationService service(config);
  service.register_tenant("acme", {});

  const OpenOnExit open_on_exit{gate};
  JobRequest blocker = make_request("acme", JobKind::kEvaluate);
  blocker.fault_injector = gate.injector();
  const std::int64_t blocker_id = service.submit(blocker);
  gate.entered.get_future().wait();

  JobRequest doomed = make_request("acme", JobKind::kEvaluate);
  doomed.options.deadline = 5ms;  // armed at submit: queue wait counts
  const std::int64_t doomed_id = service.submit(doomed);
  ASSERT_GE(doomed_id, 0);
  std::this_thread::sleep_for(30ms);
  gate.open();

  const JobResult result = service.wait(doomed_id);
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(result.error.find("queue"), std::string::npos) << result.error;
  EXPECT_EQ(result.cla_bytes_granted, 0);
  EXPECT_EQ(service.wait(blocker_id).status, JobStatus::kOk);
}

TEST_F(ServiceTest, DeadlineExpiresMidTraversalAndServiceStaysHealthy) {
  EvaluationService service{ServiceConfig{}};
  service.register_tenant("acme", {});

  JobRequest doomed = make_request("acme", JobKind::kEvaluate);
  doomed.options.deadline = 20ms;
  // Burn the deadline after dispatch but before the traversal: the first
  // engine-level cancellation check observes the expiry mid-job.
  doomed.fault_injector = [](core::Evaluator&) { std::this_thread::sleep_for(50ms); };
  const JobResult result = service.wait(service.submit(doomed));
  EXPECT_EQ(result.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(result.error.find("deadline"), std::string::npos) << result.error;

  const JobResult after = service.wait(service.submit(make_request("acme", JobKind::kEvaluate)));
  ASSERT_EQ(after.status, JobStatus::kOk) << after.error;
  EXPECT_EQ(after.log_likelihood, solo(JobKind::kEvaluate));
}

TEST_F(ServiceTest, CancelUnwindsTheJobAndLeavesSharedStateClean) {
  ServiceConfig config;
  config.executors = 1;
  Gate gate;  // outlives the service, which joins the gated job
  EvaluationService service(config);
  service.register_tenant("acme", {});

  const OpenOnExit open_on_exit{gate};
  JobRequest victim = make_request("acme", JobKind::kBranchSmooth);
  victim.options.smoothing_passes = 4;
  victim.fault_injector = gate.injector();
  const std::int64_t id = service.submit(victim);
  gate.entered.get_future().wait();
  EXPECT_TRUE(service.cancel(id));
  gate.open();

  const JobResult result = service.wait(id);
  EXPECT_EQ(result.status, JobStatus::kCancelled);
  EXPECT_FALSE(service.cancel(id));    // already terminal
  EXPECT_FALSE(service.cancel(9999));  // unknown

  // The executor, pool and engines survived the unwind: the next job on
  // the same executor completes bit-identically.
  const JobResult after = service.wait(service.submit(make_request("acme", JobKind::kEvaluate)));
  ASSERT_EQ(after.status, JobStatus::kOk) << after.error;
  EXPECT_EQ(after.log_likelihood, solo(JobKind::kEvaluate));
  EXPECT_EQ(service.tenant_stats("acme").cancelled, 1);
}

TEST_F(ServiceTest, MemoryPressureDegradesTheGrantNotTheAnswer) {
  const std::int64_t buffer = buffer_bytes();
  const std::int64_t want = static_cast<std::int64_t>(base_tree_.inner_count()) * buffer;
  ServiceConfig config;
  config.executors = 2;
  config.cla_budget_bytes = want + floor_buffers() * buffer;
  config.degrade_floor_bytes = floor_buffers() * buffer;
  Gate gate;  // outlives the service, which joins the gated job
  EvaluationService service(config);
  service.register_tenant("acme", TenantQuota{.max_in_flight = 8});

  // The holder reserves its full request, then parks; the budget it holds
  // forces the second job into the degradation path.
  const OpenOnExit open_on_exit{gate};
  JobRequest holder = make_request("acme", JobKind::kEvaluate);
  holder.options.cla_budget_bytes = want;
  holder.fault_injector = gate.injector();
  const std::int64_t holder_id = service.submit(holder);
  gate.entered.get_future().wait();

  JobRequest squeezed = make_request("acme", JobKind::kEvaluate);
  squeezed.options.cla_budget_bytes = want;
  const JobResult degraded = service.wait(service.submit(squeezed));
  ASSERT_EQ(degraded.status, JobStatus::kOk) << degraded.error;
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.cla_bytes_granted, floor_buffers() * buffer);
  EXPECT_EQ(degraded.log_likelihood, solo(JobKind::kEvaluate));

  gate.open();
  const JobResult held = service.wait(holder_id);
  ASSERT_EQ(held.status, JobStatus::kOk) << held.error;
  EXPECT_FALSE(held.degraded);
  EXPECT_EQ(held.cla_bytes_granted, want);

  service.drain();
  EXPECT_EQ(service.stats().budget_in_use, 0);
  EXPECT_EQ(service.tenant_stats("acme").degraded, 1);
}

TEST_F(ServiceTest, CorruptionEscalationsAreContainedRetriedAndBounded) {
  ServiceConfig config;
  config.executors = 1;
  config.corruption_retry_budget = 2;
  EvaluationService service(config);
  service.register_tenant("acme", {});

  // Flaky: the injected escalation clears after two rebuilds.
  std::atomic<int> flaky_attempts{0};
  JobRequest flaky = make_request("acme", JobKind::kEvaluate);
  flaky.fault_injector = [&](core::Evaluator&) {
    if (flaky_attempts.fetch_add(1) < 2) {
      throw core::sdc::CorruptionDetected(7, "injected escalation");
    }
  };
  const JobResult healed = service.wait(service.submit(flaky));
  ASSERT_EQ(healed.status, JobStatus::kOk) << healed.error;
  EXPECT_EQ(healed.rebuilds, 2);
  EXPECT_EQ(flaky_attempts.load(), 3);
  EXPECT_EQ(healed.log_likelihood, solo(JobKind::kEvaluate));

  // Hopeless: the rebuild budget runs out and the job fails with a
  // structured error — the process and the executor survive.
  std::atomic<int> doomed_attempts{0};
  JobRequest doomed = make_request("acme", JobKind::kEvaluate);
  doomed.fault_injector = [&](core::Evaluator&) {
    doomed_attempts.fetch_add(1);
    throw core::sdc::CorruptionDetected(9, "persistent corruption");
  };
  const JobResult corrupt = service.wait(service.submit(doomed));
  EXPECT_EQ(corrupt.status, JobStatus::kCorrupt);
  EXPECT_EQ(corrupt.rebuilds, 3);
  EXPECT_EQ(doomed_attempts.load(), 3);  // initial try + retry budget of 2
  EXPECT_NE(corrupt.error.find("persistent"), std::string::npos) << corrupt.error;

  const JobResult after = service.wait(service.submit(make_request("acme", JobKind::kEvaluate)));
  ASSERT_EQ(after.status, JobStatus::kOk) << after.error;
  EXPECT_EQ(after.log_likelihood, solo(JobKind::kEvaluate));
  EXPECT_EQ(service.tenant_stats("acme").corrupt, 1);
}

TEST_F(ServiceTest, PoolThreadsDispatchMatchesForkJoinBaseline) {
  ServiceConfig config;
  config.pool_threads = 2;
  EvaluationService service(config);
  service.register_tenant("acme", {});

  const JobResult result = service.wait(service.submit(make_request("acme", JobKind::kEvaluate)));
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;

  tree::Tree tree(base_tree_);
  const model::GtrModel model(params_);
  parallel::WorkerPool pool(2);
  auto baseline = parallel::make_fork_join_evaluator(pool, patterns_, model, tree, {});
  EXPECT_EQ(result.log_likelihood, baseline->log_likelihood(tree.edges().front()));
}

// A partitioned job on a multi-thread pool spreads its partitions over the
// pool's streams (LPT over the compressed pattern counts), instead of
// running them all on stream 0 while the other stream tasks idle.
TEST_F(ServiceTest, PartitionedJobPacksPartitionsOntoEveryStream) {
  ServiceConfig config;
  config.pool_threads = 2;
  EvaluationService service(config);
  service.register_tenant("acme", {});

  JobRequest request = make_request("acme", JobKind::kEvaluate);
  request.options.partitions = 3;
  core::StreamPlan plan;
  request.fault_injector = [&](core::Evaluator& evaluator) {
    auto* partitioned = dynamic_cast<core::PartitionedEvaluator*>(&evaluator);
    ASSERT_NE(partitioned, nullptr);
    plan = partitioned->stream_plan();
  };
  const JobResult result = service.wait(service.submit(request));
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(plan.stream_count, 2);
  ASSERT_EQ(plan.partition_stream.size(), 3U);
  std::vector<int> per_stream(2, 0);
  for (const int stream : plan.partition_stream) ++per_stream[static_cast<std::size_t>(stream)];
  EXPECT_GT(per_stream[0], 0);
  EXPECT_GT(per_stream[1], 0);
  // Reductions fold in partition order, so the packing leaves the answer
  // bit-identical to the one-stream baseline.
  EXPECT_EQ(result.log_likelihood, solo(JobKind::kEvaluate, 3));
}

// --- The chaos soak ---------------------------------------------------------
//
// Four tenants hammer the service from client threads while the seeded
// fault plan kills jobs mid-kernel, expires deadlines mid-traversal and
// flips CLA bits between evaluations.  The acceptance bar (ISSUE 10): the
// service never aborts, every wait returns, quotas and the budget
// reconcile to zero after drain, cancelled jobs carry structured errors,
// and every surviving job's lnL is bit-identical to its solo run.
TEST_F(ServiceTest, ChaosSoakSurvivesKillsExpiriesAndCorruption) {
  const double lnl_eval = solo(JobKind::kEvaluate);
  const double lnl_eval_part = solo(JobKind::kEvaluate, 3);
  const double lnl_smooth = solo(JobKind::kBranchSmooth, 1, 1);
  const std::size_t gradient_edges = solo_gradient_edges();
  const std::int64_t buffer = buffer_bytes();

  ServiceConfig config;
  config.executors = 3;
  config.queue_limit = 8;
  config.cla_budget_bytes = 12 * buffer;
  config.degrade_floor_bytes = floor_buffers() * buffer;
  config.metrics = obs::MetricsMode::kOn;
  config.chaos.enabled = true;
  config.chaos.seed = 2026;
  config.chaos.kill_rate = 0.2;
  config.chaos.expire_rate = 0.25;
  config.chaos.corrupt_rate = 0.8;
  EvaluationService service(config);
  // Registration order is deliberately unsorted: the report must still
  // render tenant sections in sorted order.
  const std::vector<std::string> tenants{"delta", "bravo", "alpha", "charlie"};
  for (const auto& tenant : tenants) {
    service.register_tenant(tenant, TenantQuota{.max_in_flight = 3});
  }

  constexpr int kJobsPerTenant = 12;
  std::vector<std::vector<JobRequest>> requests(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (int j = 0; j < kJobsPerTenant; ++j) {
      const auto kind = static_cast<JobKind>(j % 3);
      JobRequest request = make_request(tenants[t], kind);
      if (kind == JobKind::kEvaluate) {
        if (j % 2 == 1) {
          request.options.sdc_checks = true;  // corruption-drill candidates
        } else if (j == 6) {
          request.options.partitions = 3;
        }
      }
      if (j % 4 == 1) {
        request.options.cla_budget_bytes =
            static_cast<std::int64_t>(base_tree_.inner_count()) * buffer;
      }
      if (j % 4 == 2) request.options.deadline = 30s;  // generous: only chaos expires it
      requests[t].push_back(std::move(request));
    }
  }

  std::vector<std::vector<std::int64_t>> ids(tenants.size());
  std::vector<std::thread> clients;
  clients.reserve(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    clients.emplace_back([&, t] {
      RetryPolicy policy;
      policy.seed = 77 + t;
      policy.max_attempts = 50;
      policy.initial_delay = 200us;
      policy.max_delay = 5ms;
      for (const JobRequest& request : requests[t]) {
        std::int64_t id = kOverloadedJobId;
        // Shedding is expected under this load; retry until admitted so
        // every planned job actually runs.
        while ((id = submit_with_retry(service, request, policy)) == kOverloadedJobId) {
        }
        ids[t].push_back(id);
      }
    });
  }
  for (auto& client : clients) client.join();
  service.drain();

  int ok = 0;
  int killed = 0;
  int expired = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (int j = 0; j < kJobsPerTenant; ++j) {
      const JobRequest& request = requests[t][j];
      const JobResult result = service.wait(ids[t][j]);
      switch (result.status) {
        case JobStatus::kOk:
          ++ok;
          // Bit-identity against the solo baseline — including jobs that
          // ran degraded, healed injected corruption, or evicted CLAs.
          if (request.options.kind == JobKind::kEvaluate) {
            EXPECT_EQ(result.log_likelihood,
                      request.options.partitions > 1 ? lnl_eval_part : lnl_eval)
                << tenants[t] << " job " << j;
          } else if (request.options.kind == JobKind::kGradient) {
            EXPECT_EQ(result.log_likelihood, lnl_eval) << tenants[t] << " job " << j;
            EXPECT_EQ(result.gradient_edges, gradient_edges);
          } else {
            EXPECT_EQ(result.log_likelihood, lnl_smooth) << tenants[t] << " job " << j;
          }
          break;
        case JobStatus::kCancelled:
          ++killed;
          EXPECT_FALSE(result.error.empty());
          break;
        case JobStatus::kDeadlineExceeded:
          ++expired;
          EXPECT_FALSE(result.error.empty());
          break;
        default:
          ADD_FAILURE() << tenants[t] << " job " << j << " unexpected status "
                        << static_cast<int>(result.status) << ": " << result.error;
      }
    }
  }
  // The seeded fault plan is deterministic per job id: both populations
  // must be represented or the drill proved nothing.
  std::cout << "[soak] ok=" << ok << " cancelled=" << killed << " expired=" << expired
            << " of " << tenants.size() * kJobsPerTenant << " jobs\n";
  EXPECT_GT(ok, 0);
  EXPECT_GT(killed + expired, 0);

  // Reconciliation to zero: no leaked queue entries, running slots, budget
  // bytes or per-tenant in-flight counts survive the drain.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.budget_in_use, 0);
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(tenants.size()) * kJobsPerTenant);
  EXPECT_EQ(stats.terminal, stats.submitted);
  for (const auto& tenant : tenants) {
    const TenantStats ts = service.tenant_stats(tenant);
    EXPECT_EQ(ts.in_flight, 0) << tenant;
    EXPECT_EQ(ts.submitted, kJobsPerTenant) << tenant;
    EXPECT_EQ(ts.completed + ts.cancelled + ts.deadline_expired + ts.corrupt + ts.failed,
              ts.submitted)
        << tenant;
  }

  // Liveness: the service still takes and completes work after the storm
  // (chaos stays armed, so allow a few attempts to draw a surviving job).
  bool lively = false;
  for (int attempt = 0; attempt < 20 && !lively; ++attempt) {
    std::int64_t id = kOverloadedJobId;
    while ((id = service.submit(make_request("alpha", JobKind::kEvaluate))) == kOverloadedJobId) {
    }
    const JobResult result = service.wait(id);
    if (result.status == JobStatus::kOk) {
      EXPECT_EQ(result.log_likelihood, lnl_eval);
      lively = true;
    } else {
      EXPECT_TRUE(result.status == JobStatus::kCancelled ||
                  result.status == JobStatus::kDeadlineExceeded)
          << result.error;
    }
  }
  EXPECT_TRUE(lively) << "no post-soak job survived 20 attempts";

  // Satellite: the report renders per-tenant sections deterministically,
  // sorted by tenant id regardless of registration order.
  if (obs::kMetricsCompiled) {
    const std::string report = obs::render_kernel_report();
    const std::size_t section = report.find("--- service ---");
    ASSERT_NE(section, std::string::npos) << report;
    const std::size_t pos_alpha = report.find("tenant alpha:");
    const std::size_t pos_bravo = report.find("tenant bravo:");
    const std::size_t pos_charlie = report.find("tenant charlie:");
    const std::size_t pos_delta = report.find("tenant delta:");
    ASSERT_NE(pos_alpha, std::string::npos);
    ASSERT_NE(pos_bravo, std::string::npos);
    ASSERT_NE(pos_charlie, std::string::npos);
    ASSERT_NE(pos_delta, std::string::npos);
    EXPECT_GT(pos_alpha, section);
    EXPECT_LT(pos_alpha, pos_bravo);
    EXPECT_LT(pos_bravo, pos_charlie);
    EXPECT_LT(pos_charlie, pos_delta);
  }
}

TEST_F(ServiceTest, MalformedRequestsThrowInsteadOfShedding) {
  EvaluationService service{ServiceConfig{}};
  service.register_tenant("acme", {});
  EXPECT_THROW(service.register_tenant("acme", {}), Error);        // duplicate
  EXPECT_THROW(service.register_tenant("dotted.name", {}), Error); // metric-unsafe
  EXPECT_THROW(service.register_tenant("", {}), Error);

  JobRequest unknown_tenant = make_request("ghost", JobKind::kEvaluate);
  EXPECT_THROW((void)service.submit(unknown_tenant), Error);

  JobRequest no_tree = make_request("acme", JobKind::kEvaluate);
  no_tree.tree = nullptr;
  EXPECT_THROW((void)service.submit(no_tree), Error);

  JobRequest no_patterns = make_request("acme", JobKind::kEvaluate);
  no_patterns.patterns = nullptr;
  EXPECT_THROW((void)service.submit(no_patterns), Error);

  JobRequest no_alignment = make_request("acme", JobKind::kEvaluate);
  no_alignment.options.partitions = 2;
  no_alignment.alignment = nullptr;
  EXPECT_THROW((void)service.submit(no_alignment), Error);

  EXPECT_THROW((void)service.wait(12345), Error);
  EXPECT_THROW((void)service.tenant_stats("ghost"), Error);
}

}  // namespace
}  // namespace miniphi::service
