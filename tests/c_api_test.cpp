// Round-trip and error-path tests for the versioned C shim
// (include/miniphi_c.h).  Runs under ASan/TSan via
// scripts/run_sanitized_tests.sh, which is the leak/race check the C
// boundary needs: every handle allocated here is freed through the API.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "miniphi_c.h"

extern "C" int miniphi_c11_smoke(void);  // tests/c_api_c11.c — real C11 TU

namespace {

const char* kFasta =
    ">human\nAAGCTTCACCGGCGCAGTCATTCTCATAATCGCCCACGGACTTACATCCTCATTACTATT\n"
    ">chimp\nAAGCTTCACCGGCGCAATTATCCTCATAATCGCCCACGGACTTACATCATCATTATTATT\n"
    ">gorilla\nAAGCTTCACCGGCGCAGTTGTTCTTATAATTGCCCACGGACTTACATCATCATTATTATT\n"
    ">orangutan\nAAGCTTCACCGGCGCAACCACCCTCATGATTGCCCATGGACTCACATCCTCCCTACTGTT\n"
    ">gibbon\nAAGCTTTACAGGTGCAACCGTCCTCATAATCGCCCACGGACTAACCTCTTCCCTGCTATT\n";

struct Fixture {
  miniphi_alignment* alignment = nullptr;
  miniphi_tree* tree = nullptr;

  Fixture() {
    EXPECT_EQ(miniphi_alignment_from_fasta(kFasta, &alignment), MINIPHI_OK);
    EXPECT_EQ(miniphi_tree_parsimony(alignment, 42, &tree), MINIPHI_OK);
  }
  ~Fixture() {
    miniphi_tree_destroy(tree);
    miniphi_alignment_destroy(alignment);
  }
};

TEST(CApi, VersionAndBackends) {
  int major = 0;
  int minor = -1;
  miniphi_version_numbers(&major, &minor);
  EXPECT_EQ(major, MINIPHI_C_API_VERSION_MAJOR);
  EXPECT_EQ(minor, MINIPHI_C_API_VERSION_MINOR);
  EXPECT_NE(miniphi_version(), nullptr);
  EXPECT_NE(miniphi_supported_backends() & MINIPHI_BACKEND_SCALAR, 0);
  // Tolerates null out-pointers.
  miniphi_version_numbers(nullptr, nullptr);
}

TEST(CApi, C11TranslationUnitRoundTrips) { EXPECT_EQ(miniphi_c11_smoke(), 0); }

TEST(CApi, RoundTripCreateEvaluateOptimizeDestroy) {
  Fixture f;
  int taxa = 0;
  int64_t sites = 0;
  EXPECT_EQ(miniphi_alignment_taxon_count(f.alignment, &taxa), MINIPHI_OK);
  EXPECT_EQ(miniphi_alignment_site_count(f.alignment, &sites), MINIPHI_OK);
  EXPECT_EQ(taxa, 5);
  EXPECT_EQ(sites, 60);

  miniphi_resource_grant grant{};
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, &grant, &instance),
            MINIPHI_OK);
  EXPECT_EQ(grant.partitions, 1);
  EXPECT_EQ(grant.streams, 1);
  EXPECT_NE(grant.backends & miniphi_supported_backends(), 0);

  double initial = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &initial), MINIPHI_OK);
  EXPECT_LT(initial, 0.0);
  double optimized = 0.0;
  ASSERT_EQ(miniphi_optimize_branch_lengths(instance, 4, &optimized), MINIPHI_OK);
  EXPECT_GE(optimized, initial);
  EXPECT_EQ(miniphi_set_alpha(instance, 0.7), MINIPHI_OK);
  double after_alpha = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &after_alpha), MINIPHI_OK);
  EXPECT_NE(after_alpha, optimized);

  // Newick export: query size first, then fetch.
  int64_t required = 0;
  ASSERT_EQ(miniphi_instance_to_newick(instance, nullptr, 0, &required), MINIPHI_OK);
  ASSERT_GT(required, 0);
  std::vector<char> buffer(static_cast<std::size_t>(required) + 1);
  ASSERT_EQ(miniphi_instance_to_newick(instance, buffer.data(),
                                       static_cast<int64_t>(buffer.size()), nullptr),
            MINIPHI_OK);
  EXPECT_NE(std::strstr(buffer.data(), "human"), nullptr);

  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
}

TEST(CApi, NegotiationGrantsPartitionsAndStreams) {
  Fixture f;
  miniphi_resource_request request{};
  request.partitions = 4;
  request.streams = 2;
  miniphi_resource_grant grant{};
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, &request, &grant, &instance),
            MINIPHI_OK);
  EXPECT_EQ(grant.partitions, 4);
  EXPECT_EQ(grant.streams, 2);
  EXPECT_NE(grant.backends, 0);
  // One bit — every partition runs the widest permitted back-end — and
  // never one the host does not support.
  EXPECT_EQ(grant.backends & (grant.backends - 1), 0);
  EXPECT_EQ(grant.backends & ~miniphi_supported_backends(), 0);
  double lnl = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &lnl), MINIPHI_OK);
  EXPECT_LT(lnl, 0.0);
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
}

TEST(CApi, ClaBudgetNegotiationGrantsWithinRequest) {
  Fixture f;
  double unlimited = 0.0;
  {
    miniphi_instance* instance = nullptr;
    ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, nullptr, &instance),
              MINIPHI_OK);
    ASSERT_EQ(miniphi_evaluate(instance, &unlimited), MINIPHI_OK);
    EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
  }
  miniphi_resource_request request{};
  request.cla_budget_bytes = INT64_C(1) << 20;
  miniphi_resource_grant grant{};
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, &request, &grant, &instance),
            MINIPHI_OK);
  EXPECT_EQ(grant.cla_bytes_requested, request.cla_budget_bytes);
  EXPECT_GT(grant.cla_bytes_granted, 0);
  EXPECT_LE(grant.cla_bytes_granted, grant.cla_bytes_requested);
  // Budgeted evaluation is bit-identical to the unlimited run.
  double lnl = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &lnl), MINIPHI_OK);
  EXPECT_EQ(lnl, unlimited);
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
}

TEST(CApi, ClaBudgetBelowWorkingSetIsInsufficientMemory) {
  Fixture f;
  miniphi_resource_request request{};
  request.cla_budget_bytes = 100;  // cannot hold even one CLA buffer
  miniphi_resource_grant grant{};
  miniphi_instance* instance = nullptr;
  EXPECT_EQ(miniphi_create_instance(f.alignment, f.tree, &request, &grant, &instance),
            MINIPHI_ERROR_INSUFFICIENT_MEMORY);
  EXPECT_EQ(instance, nullptr);
  EXPECT_NE(std::strstr(miniphi_last_error_message(), "minimum working set"), nullptr);
}

TEST(CApi, PartitionedBudgetIsCarvedOverCompressedPatterns) {
  // 8 taxa x 8,000 sites built from 4 distinct columns: each of 8 partitions
  // compresses to at most 4 patterns, so 64 KiB holds every CLA of every
  // partition.  The request must be granted (not refused as if each
  // partition held 1,000 uncompressed sites), and the budgeted run must be
  // bit-identical to the unlimited one.
  const char* columns[4] = {"AAAACCCC", "ACGTACGT", "AACCGGTT", "AAAAAAAT"};
  std::string fasta;
  for (int taxon = 0; taxon < 8; ++taxon) {
    fasta += ">t" + std::to_string(taxon) + "\n";
    for (int site = 0; site < 8000; ++site) fasta += columns[site % 4][taxon];
    fasta += "\n";
  }
  miniphi_alignment* alignment = nullptr;
  ASSERT_EQ(miniphi_alignment_from_fasta(fasta.c_str(), &alignment), MINIPHI_OK);
  miniphi_tree* tree = nullptr;
  ASSERT_EQ(miniphi_tree_parsimony(alignment, 7, &tree), MINIPHI_OK);

  miniphi_resource_request request{};
  request.partitions = 8;
  request.streams = 2;
  double unlimited = 0.0;
  {
    miniphi_instance* instance = nullptr;
    ASSERT_EQ(miniphi_create_instance(alignment, tree, &request, nullptr, &instance), MINIPHI_OK);
    ASSERT_EQ(miniphi_evaluate(instance, &unlimited), MINIPHI_OK);
    EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
  }
  request.cla_budget_bytes = 64 * 1024;
  miniphi_resource_grant grant{};
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(alignment, tree, &request, &grant, &instance), MINIPHI_OK)
      << miniphi_last_error_message();
  EXPECT_EQ(grant.partitions, 8);
  EXPECT_EQ(grant.streams, 2);
  EXPECT_GT(grant.cla_bytes_granted, 0);
  EXPECT_LE(grant.cla_bytes_granted, grant.cla_bytes_requested);
  double lnl = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &lnl), MINIPHI_OK);
  EXPECT_EQ(lnl, unlimited);
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
  miniphi_tree_destroy(tree);
  miniphi_alignment_destroy(alignment);
}

TEST(CApi, PartitionedInstanceMatchesSinglePartitionLikelihood) {
  Fixture f;
  double single = 0.0;
  {
    miniphi_instance* instance = nullptr;
    ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, nullptr, &instance),
              MINIPHI_OK);
    ASSERT_EQ(miniphi_evaluate(instance, &single), MINIPHI_OK);
    EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
  }
  // Forcing the scalar back-end on both sides makes the comparison exact up
  // to partition-boundary pattern compression (same kernels, fixed-order
  // sums over different pattern groupings) — likelihoods agree to relative
  // tolerance.
  miniphi_resource_request request{};
  request.backends = MINIPHI_BACKEND_SCALAR;
  request.partitions = 3;
  request.streams = 3;
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, &request, nullptr, &instance),
            MINIPHI_OK);
  double partitioned = 0.0;
  ASSERT_EQ(miniphi_evaluate(instance, &partitioned), MINIPHI_OK);
  EXPECT_NEAR(partitioned, single, 1e-9 * std::abs(single));
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
}

TEST(CApi, ErrorPathsReturnStableCodesAndNeverThrow) {
  // Null arguments.
  EXPECT_EQ(miniphi_alignment_from_fasta(nullptr, nullptr), MINIPHI_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(miniphi_evaluate(nullptr, nullptr), MINIPHI_ERROR_INVALID_ARGUMENT);

  // Malformed FASTA → PARSE, with a nonempty thread-local message.
  miniphi_alignment* alignment = nullptr;
  EXPECT_EQ(miniphi_alignment_from_fasta("not fasta at all", &alignment),
            MINIPHI_ERROR_PARSE);
  EXPECT_EQ(alignment, nullptr);
  EXPECT_NE(std::strlen(miniphi_last_error_message()), 0u);

  Fixture f;
  // Malformed Newick → PARSE.
  miniphi_tree* tree = nullptr;
  EXPECT_EQ(miniphi_tree_from_newick(f.alignment, "((human,chimp", &tree),
            MINIPHI_ERROR_PARSE);
  EXPECT_EQ(tree, nullptr);

  // A back-end mask with no supportable bit → UNSUPPORTED.
  miniphi_resource_request request{};
  request.backends = 1 << 10;
  miniphi_instance* instance = nullptr;
  EXPECT_EQ(miniphi_create_instance(f.alignment, f.tree, &request, nullptr, &instance),
            MINIPHI_ERROR_UNSUPPORTED);
  EXPECT_EQ(instance, nullptr);

  // Bad arguments on live instances.
  miniphi_instance* live = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, nullptr, &live), MINIPHI_OK);
  double lnl = 0.0;
  EXPECT_EQ(miniphi_optimize_branch_lengths(live, 0, &lnl), MINIPHI_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(miniphi_set_alpha(live, -1.0), MINIPHI_ERROR_INVALID_ARGUMENT);
  // A failing call leaves the instance usable.
  EXPECT_EQ(miniphi_evaluate(live, &lnl), MINIPHI_OK);
  EXPECT_EQ(miniphi_finalize_instance(live), MINIPHI_OK);

  // Destroy functions are NULL-safe.
  miniphi_alignment_destroy(nullptr);
  miniphi_tree_destroy(nullptr);
  EXPECT_EQ(miniphi_finalize_instance(nullptr), MINIPHI_OK);
}

TEST(CApi, StaleHandlesAreDetectedNotUndefined) {
  Fixture f;

  // Double-finalize: the generation-stamped table catches the stale handle
  // instead of dereferencing freed memory.
  miniphi_instance* instance = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, nullptr, &instance),
            MINIPHI_OK);
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_OK);
  EXPECT_EQ(miniphi_finalize_instance(instance), MINIPHI_ERROR_INVALID_HANDLE);
  EXPECT_NE(std::strlen(miniphi_last_error_message()), 0u);

  // Use-after-finalize is a stable error, not UB.
  double lnl = 0.0;
  EXPECT_EQ(miniphi_evaluate(instance, &lnl), MINIPHI_ERROR_INVALID_HANDLE);

  // Stale alignment/tree handles after destroy: accessors and consumers
  // both report INVALID_HANDLE.
  miniphi_alignment* alignment = nullptr;
  ASSERT_EQ(miniphi_alignment_from_fasta(kFasta, &alignment), MINIPHI_OK);
  miniphi_tree* tree = nullptr;
  ASSERT_EQ(miniphi_tree_parsimony(alignment, 3, &tree), MINIPHI_OK);
  miniphi_tree_destroy(tree);
  int64_t required = 0;
  EXPECT_EQ(miniphi_tree_to_newick(tree, nullptr, 0, &required),
            MINIPHI_ERROR_INVALID_HANDLE);
  miniphi_alignment_destroy(alignment);
  miniphi_tree* reparse = nullptr;
  EXPECT_EQ(miniphi_tree_parsimony(alignment, 3, &reparse), MINIPHI_ERROR_INVALID_HANDLE);
  EXPECT_EQ(reparse, nullptr);

  // Double-destroy through the void destroyers is a safe no-op.
  miniphi_tree_destroy(tree);
  miniphi_alignment_destroy(alignment);

  // Null stays INVALID_ARGUMENT — a different caller bug than staleness.
  EXPECT_EQ(miniphi_evaluate(nullptr, &lnl), MINIPHI_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(miniphi_finalize_instance(nullptr), MINIPHI_OK);
}

TEST(CApi, ServiceRoundTripAndErrors) {
  Fixture f;
  miniphi_service_options options{};
  options.executors = 2;
  miniphi_service* service = nullptr;
  ASSERT_EQ(miniphi_service_create(&options, &service), MINIPHI_OK);
  ASSERT_NE(service, nullptr);

  EXPECT_EQ(miniphi_service_register_tenant(service, "acme", 4), MINIPHI_OK);
  // Tenant names become metric components: dots and duplicates are caller
  // bugs, not load conditions.
  EXPECT_EQ(miniphi_service_register_tenant(service, "dotted.name", 4),
            MINIPHI_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(miniphi_service_register_tenant(service, "acme", 4),
            MINIPHI_ERROR_INVALID_ARGUMENT);

  // Two identical jobs complete with the same likelihood.
  miniphi_job_options job{};
  job.kind = MINIPHI_JOB_EVALUATE;
  int64_t id_a = -1;
  int64_t id_b = -1;
  ASSERT_EQ(miniphi_service_submit(service, "acme", f.alignment, f.tree, &job, &id_a),
            MINIPHI_OK);
  ASSERT_EQ(miniphi_service_submit(service, "acme", f.alignment, f.tree, &job, &id_b),
            MINIPHI_OK);
  EXPECT_EQ(miniphi_service_submit(service, "ghost", f.alignment, f.tree, &job, &id_b),
            MINIPHI_ERROR_INVALID_ARGUMENT);

  miniphi_job_result result_a{};
  miniphi_job_result result_b{};
  ASSERT_EQ(miniphi_service_wait(service, id_a, &result_a), MINIPHI_OK);
  ASSERT_EQ(miniphi_service_wait(service, id_b, &result_b), MINIPHI_OK);
  EXPECT_EQ(result_a.status, MINIPHI_OK) << miniphi_last_error_message();
  EXPECT_EQ(result_b.status, MINIPHI_OK) << miniphi_last_error_message();
  EXPECT_LT(result_a.log_likelihood, 0.0);
  EXPECT_EQ(result_a.log_likelihood, result_b.log_likelihood);

  // Cancelling a terminal job reports "nothing to do", and unknown job ids
  // are caller bugs.
  int requested = -1;
  EXPECT_EQ(miniphi_service_cancel(service, id_a, &requested), MINIPHI_OK);
  EXPECT_EQ(requested, 0);
  miniphi_job_result unknown{};
  EXPECT_EQ(miniphi_service_wait(service, 987654, &unknown),
            MINIPHI_ERROR_INVALID_ARGUMENT);

  EXPECT_EQ(miniphi_service_destroy(service), MINIPHI_OK);
  EXPECT_EQ(miniphi_service_destroy(service), MINIPHI_ERROR_INVALID_HANDLE);
  EXPECT_EQ(miniphi_service_destroy(nullptr), MINIPHI_OK);
}

TEST(CApi, ServiceJobDeadlineSurfacesStructuredStatus) {
  Fixture f;
  miniphi_service* service = nullptr;
  ASSERT_EQ(miniphi_service_create(nullptr, &service), MINIPHI_OK);
  ASSERT_EQ(miniphi_service_register_tenant(service, "acme", 2), MINIPHI_OK);

  miniphi_job_options job{};
  job.kind = MINIPHI_JOB_BRANCH_SMOOTH;
  job.smoothing_passes = 4;
  job.deadline_ns = 1;  // expires before the job can even dispatch
  int64_t id = -1;
  ASSERT_EQ(miniphi_service_submit(service, "acme", f.alignment, f.tree, &job, &id),
            MINIPHI_OK);
  miniphi_job_result result{};
  ASSERT_EQ(miniphi_service_wait(service, id, &result), MINIPHI_OK);
  EXPECT_EQ(result.status, MINIPHI_ERROR_DEADLINE_EXCEEDED);
  EXPECT_NE(std::strlen(miniphi_last_error_message()), 0u);

  // The expiry was contained to that job: the service still works.
  miniphi_job_options healthy{};
  ASSERT_EQ(miniphi_service_submit(service, "acme", f.alignment, f.tree, &healthy, &id),
            MINIPHI_OK);
  miniphi_job_result ok{};
  ASSERT_EQ(miniphi_service_wait(service, id, &ok), MINIPHI_OK);
  EXPECT_EQ(ok.status, MINIPHI_OK) << miniphi_last_error_message();
  EXPECT_LT(ok.log_likelihood, 0.0);
  EXPECT_EQ(miniphi_service_destroy(service), MINIPHI_OK);
}

TEST(CApi, NewickRoundTripThroughTreeHandle) {
  Fixture f;
  int64_t required = 0;
  ASSERT_EQ(miniphi_tree_to_newick(f.tree, nullptr, 0, &required), MINIPHI_OK);
  std::vector<char> buffer(static_cast<std::size_t>(required) + 1);
  ASSERT_EQ(miniphi_tree_to_newick(f.tree, buffer.data(),
                                   static_cast<int64_t>(buffer.size()), nullptr),
            MINIPHI_OK);
  miniphi_tree* reparsed = nullptr;
  ASSERT_EQ(miniphi_tree_from_newick(f.alignment, buffer.data(), &reparsed), MINIPHI_OK);
  // The reparsed tree yields the same likelihood.
  miniphi_instance* a = nullptr;
  miniphi_instance* b = nullptr;
  ASSERT_EQ(miniphi_create_instance(f.alignment, f.tree, nullptr, nullptr, &a), MINIPHI_OK);
  ASSERT_EQ(miniphi_create_instance(f.alignment, reparsed, nullptr, nullptr, &b), MINIPHI_OK);
  double lnl_a = 0.0;
  double lnl_b = 0.0;
  ASSERT_EQ(miniphi_evaluate(a, &lnl_a), MINIPHI_OK);
  ASSERT_EQ(miniphi_evaluate(b, &lnl_b), MINIPHI_OK);
  EXPECT_DOUBLE_EQ(lnl_a, lnl_b);
  EXPECT_EQ(miniphi_finalize_instance(a), MINIPHI_OK);
  EXPECT_EQ(miniphi_finalize_instance(b), MINIPHI_OK);
  miniphi_tree_destroy(reparsed);
}

}  // namespace
