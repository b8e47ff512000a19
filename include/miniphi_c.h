/* miniphi C API — a versioned, C-compatible shim over the C++ evaluator
 * factory, in the style of the BEAGLE library interface:
 *
 *   - miniphi_version() / MINIPHI_C_API_VERSION_* for compile- and run-time
 *     version negotiation (the minor number bumps on additions, the major
 *     number on any breaking change; a client built against major N links
 *     and runs against any later N.x),
 *   - opaque handles for alignments, trees and evaluator instances,
 *   - resource negotiation at instance creation: the caller *requests*
 *     kernel back-ends and stream counts, the library replies with what it
 *     actually granted (clamped to the host CPU, the compiled kernels and
 *     the partition count),
 *   - every failure is reported as a stable miniphi_error code; C++
 *     exceptions never cross this boundary,
 *   - handles are generation-stamped table entries (since 1.2): passing a
 *     destroyed handle back in — double-free, use-after-destroy — is
 *     detected and reported as MINIPHI_ERROR_INVALID_HANDLE instead of
 *     being undefined behaviour,
 *   - a multi-tenant evaluation service (since 1.2): concurrent submits
 *     with per-tenant quotas, deadlines, cooperative cancellation and
 *     graceful degradation under a global CLA budget.
 *
 * All functions are thread-compatible (distinct handles may be used from
 * distinct threads) but a single handle must not be used concurrently;
 * miniphi_service handles are the exception and are fully thread-safe.
 * Unless noted otherwise, out-parameters are written only on MINIPHI_OK.
 */
#ifndef MINIPHI_C_H
#define MINIPHI_C_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define MINIPHI_C_API_VERSION_MAJOR 1
#define MINIPHI_C_API_VERSION_MINOR 2

/* Stable error codes.  Negative so that count-returning APIs can stay
 * non-negative on success; new codes may be added in minor versions but
 * existing values never change. */
typedef enum miniphi_error {
  MINIPHI_OK = 0,
  MINIPHI_ERROR_INVALID_ARGUMENT = -1, /* null out-pointer, bad input */
  MINIPHI_ERROR_PARSE = -2,            /* malformed FASTA/Newick text */
  MINIPHI_ERROR_UNSUPPORTED = -3,      /* request cannot be granted at all */
  MINIPHI_ERROR_OUT_OF_MEMORY = -4,
  MINIPHI_ERROR_INTERNAL = -5, /* invariant violation inside the library */
  /* A requested CLA memory budget cannot fit the minimum working set of
   * every partition (since 1.1; see miniphi_resource_request). */
  MINIPHI_ERROR_INSUFFICIENT_MEMORY = -6,
  /* A job's deadline expired, in queue or mid-traversal (since 1.2). */
  MINIPHI_ERROR_DEADLINE_EXCEEDED = -7,
  /* The service shed the submission (queue full or tenant over quota);
   * retryable after a backoff (since 1.2). */
  MINIPHI_ERROR_OVERLOADED = -8,
  /* A job was cancelled through miniphi_service_cancel (since 1.2). */
  MINIPHI_ERROR_CANCELLED = -9,
  /* A handle that was already destroyed (or never created) was passed in:
   * double-free / use-after-destroy is reported instead of being undefined
   * behaviour (since 1.2). */
  MINIPHI_ERROR_INVALID_HANDLE = -10,
  /* Silent-data-corruption escalations exhausted the job's evaluator
   * rebuild budget (since 1.2). */
  MINIPHI_ERROR_CORRUPT_DATA = -11
} miniphi_error;

/* Kernel back-end bits for resource negotiation. */
typedef enum miniphi_backend {
  MINIPHI_BACKEND_SCALAR = 1,
  MINIPHI_BACKEND_AVX2 = 2,
  MINIPHI_BACKEND_AVX512 = 4
} miniphi_backend;

/* What the caller asks for.  Zero-initialize for "let the library decide
 * everything" (widest supported back-end, one partition, one stream). */
typedef struct miniphi_resource_request {
  /* OR of miniphi_backend bits the instance may use; 0 = any.  The
   * instance runs the widest permitted back-end the host supports on every
   * partition. */
  int backends;
  /* Number of partitions to split the alignment's sites into (>= 1;
   * 0 = 1).  Partitions are near-equal contiguous site ranges. */
  int partitions;
  /* Stream groups evaluating partitions concurrently; 0 = one per
   * partition (clamped).  1 = serial evaluation. */
  int streams;
  /* Nonzero enables the silent-data-corruption defense (checksummed CLAs
   * with bounded self-healing recompute). */
  int sdc_checks;
  /* CLA memory budget in bytes (since 1.1).  0 = unlimited: every inner
   * node keeps a resident buffer.  Positive values cap the resident CLA
   * pool; the library carves the budget across partitions, evicted CLAs
   * are recomputed or spilled to checksummed temp files, and results stay
   * bit-identical to the unlimited run.  If the budget cannot fit the
   * minimum working set (5 full-width CLA buffers per partition, or one
   * per inner node on trees with fewer than 5; core::min_cla_buffers),
   * miniphi_create_instance fails with MINIPHI_ERROR_INSUFFICIENT_MEMORY. */
  int64_t cla_budget_bytes;
} miniphi_resource_request;

/* What the library actually granted. */
typedef struct miniphi_resource_grant {
  int backends;   /* the one miniphi_backend bit in use: the widest
                   * permitted back-end, shared by every partition */
  int partitions; /* partitions actually created */
  int streams;    /* stream groups actually running */
  /* CLA budget echo (since 1.1): the bytes the caller asked for (0 =
   * unlimited) and the bytes of CLA storage the instance may hold (its
   * cap; buffers are allocated as CLAs are written).  granted <= requested
   * whenever a budget was requested. */
  int64_t cla_bytes_requested;
  int64_t cla_bytes_granted;
} miniphi_resource_grant;

typedef struct miniphi_alignment miniphi_alignment;
typedef struct miniphi_tree miniphi_tree;
typedef struct miniphi_instance miniphi_instance;
typedef struct miniphi_service miniphi_service;

/* --- evaluation service (since 1.2) ----------------------------------- */

/* What a service job computes. */
typedef enum miniphi_job_kind {
  MINIPHI_JOB_EVALUATE = 0,      /* log-likelihood */
  MINIPHI_JOB_GRADIENT = 1,      /* log-likelihood + all-branch gradient */
  MINIPHI_JOB_BRANCH_SMOOTH = 2  /* branch-length smoothing passes */
} miniphi_job_kind;

/* Service construction options.  Zero-initialize for the defaults noted
 * per field. */
typedef struct miniphi_service_options {
  int executors;    /* executor threads; 0 = 2 */
  int pool_threads; /* workers per executor pool; 0 = 1 (serial engines) */
  int queue_limit;  /* max queued jobs before submits shed; 0 = 32 */
  /* Global CLA byte budget governing all running jobs (0 = ungoverned).
   * When the remainder cannot cover a job's request the job is *degraded*
   * to a smaller grant instead of rejected. */
  int64_t cla_budget_bytes;
  /* Smallest degraded grant; 0 derives a quarter of the job's request. */
  int64_t degrade_floor_bytes;
  /* Evaluator rebuilds per job after a corruption escalation before the
   * job fails with MINIPHI_ERROR_CORRUPT_DATA; 0 = 2. */
  int corruption_retry_budget;
  /* Nonzero publishes per-tenant svc.* metrics to the process registry. */
  int publish_metrics;
} miniphi_service_options;

/* Per-job options.  Zero-initialize for an evaluate job with no deadline,
 * no CLA budget, one partition. */
typedef struct miniphi_job_options {
  int kind; /* miniphi_job_kind */
  /* Deadline in nanoseconds from submission (0 = none).  Queue wait counts
   * against it. */
  int64_t deadline_ns;
  /* CLA bytes this job requests from the service budget (0 = unbudgeted). */
  int64_t cla_budget_bytes;
  int partitions;       /* >= 1; 0 = 1 */
  int smoothing_passes; /* MINIPHI_JOB_BRANCH_SMOOTH only; 0 = 1 */
  int sdc_checks;       /* nonzero enables the checksummed-CLA defense */
  double alpha;         /* GTR+Gamma shape; 0 = 1.0 */
} miniphi_job_options;

/* Terminal outcome of a job.  `status` is MINIPHI_OK or the job's
 * structured failure (MINIPHI_ERROR_DEADLINE_EXCEEDED, _CANCELLED,
 * _CORRUPT_DATA, _INTERNAL); the remaining fields are valid only for
 * MINIPHI_OK except `cla_bytes_granted`/`degraded`/`rebuilds`, which
 * always describe what the job was given. */
typedef struct miniphi_job_result {
  int status;
  double log_likelihood;
  int64_t gradient_edges;    /* MINIPHI_JOB_GRADIENT: branches in the sweep */
  int64_t cla_bytes_granted; /* reservation actually granted */
  int degraded;              /* nonzero: granted < requested */
  int rebuilds;              /* evaluator rebuilds after corruption */
} miniphi_job_result;

/* --- library ---------------------------------------------------------- */

/* Human-readable version string, e.g. "miniphi C API 1.0". Never NULL. */
const char* miniphi_version(void);
/* Numeric version; either pointer may be NULL. */
void miniphi_version_numbers(int* major, int* minor);
/* OR of the miniphi_backend bits this host can run (compiled kernels ∩
 * CPU features). */
int miniphi_supported_backends(void);
/* Detail message of the calling thread's most recent failure ("" if none).
 * Valid until the next failing call on the same thread. */
const char* miniphi_last_error_message(void);

/* --- alignments ------------------------------------------------------- */

/* Parses FASTA text (DNA; IUPAC ambiguity codes and gaps allowed). */
miniphi_error miniphi_alignment_from_fasta(const char* fasta_text, miniphi_alignment** out);
/* Builds an alignment from `taxon_count` parallel arrays of NUL-terminated
 * names and equal-length sequence strings. */
miniphi_error miniphi_alignment_create(int taxon_count, const char* const* names,
                                       const char* const* sequences, miniphi_alignment** out);
miniphi_error miniphi_alignment_taxon_count(const miniphi_alignment* alignment, int* out);
miniphi_error miniphi_alignment_site_count(const miniphi_alignment* alignment, int64_t* out);
/* NULL-safe. */
void miniphi_alignment_destroy(miniphi_alignment* alignment);

/* --- trees ------------------------------------------------------------ */

/* Parses a Newick string whose leaf labels are taxon names of `alignment`
 * (all taxa must appear exactly once). */
miniphi_error miniphi_tree_from_newick(const miniphi_alignment* alignment, const char* newick,
                                       miniphi_tree** out);
/* Randomized stepwise-addition parsimony starting tree. */
miniphi_error miniphi_tree_parsimony(const miniphi_alignment* alignment, uint64_t seed,
                                     miniphi_tree** out);
/* Writes the tree as Newick into `buffer` (NUL-terminated, truncated to
 * `size`).  `required` (optional) receives the full length excluding the
 * NUL, so callers can resize and retry. */
miniphi_error miniphi_tree_to_newick(const miniphi_tree* tree, char* buffer, int64_t size,
                                     int64_t* required);
/* NULL-safe. */
void miniphi_tree_destroy(miniphi_tree* tree);

/* --- instances -------------------------------------------------------- */

/* Creates an evaluator instance over a private copy of `tree` under a
 * GTR+Γ model with empirical base frequencies.  `request` may be NULL
 * (defaults); `grant` (optional) receives what was negotiated.  The
 * alignment must outlive the instance; the tree handle may be destroyed
 * immediately afterwards. */
miniphi_error miniphi_create_instance(const miniphi_alignment* alignment,
                                      const miniphi_tree* tree,
                                      const miniphi_resource_request* request,
                                      miniphi_resource_grant* grant, miniphi_instance** out);
/* Log-likelihood of the instance's current tree and model. */
miniphi_error miniphi_evaluate(miniphi_instance* instance, double* out_log_likelihood);
/* Newton–Raphson branch-length optimization, `passes` smoothing sweeps;
 * returns the final log-likelihood. */
miniphi_error miniphi_optimize_branch_lengths(miniphi_instance* instance, int passes,
                                              double* out_log_likelihood);
/* Replaces the Γ shape parameter (alpha > 0). */
miniphi_error miniphi_set_alpha(miniphi_instance* instance, double alpha);
/* Current tree (branch lengths reflect optimization); same contract as
 * miniphi_tree_to_newick. */
miniphi_error miniphi_instance_to_newick(const miniphi_instance* instance, char* buffer,
                                         int64_t size, int64_t* required);
/* Destroys the instance and everything it owns.  NULL-safe; a handle that
 * was already finalized reports MINIPHI_ERROR_INVALID_HANDLE (since 1.2). */
miniphi_error miniphi_finalize_instance(miniphi_instance* instance);

/* --- evaluation service ------------------------------------------------ */

/* Creates an in-process multi-tenant evaluation service.  `options` may be
 * NULL (defaults).  Unlike other handles, a service handle IS safe to use
 * concurrently from many threads — that is its purpose. */
miniphi_error miniphi_service_create(const miniphi_service_options* options,
                                     miniphi_service** out);
/* Registers a tenant with an in-flight quota (queued + running jobs;
 * <= 0 means the default of 4).  Names must be non-empty, must not contain
 * '.', and must be unique. */
miniphi_error miniphi_service_register_tenant(miniphi_service* service, const char* tenant,
                                              int max_in_flight);
/* Submits a job for `tenant` over `alignment` and a private copy of
 * `tree`, under GTR+Gamma with empirical base frequencies.  On admission
 * writes a job id (>= 0) and returns MINIPHI_OK; when the service sheds
 * the job (queue full or tenant over quota) returns
 * MINIPHI_ERROR_OVERLOADED — retryable after a backoff.  The alignment
 * handle must stay alive until the job is terminal; the tree handle may be
 * destroyed immediately. */
miniphi_error miniphi_service_submit(miniphi_service* service, const char* tenant,
                                     const miniphi_alignment* alignment,
                                     const miniphi_tree* tree,
                                     const miniphi_job_options* options, int64_t* out_job_id);
/* Requests cooperative cancellation.  `out_requested` (optional) receives
 * nonzero when the job existed and was not yet terminal; the job still
 * completes through miniphi_service_wait (normally with status
 * MINIPHI_ERROR_CANCELLED, or its own result if it won the race). */
miniphi_error miniphi_service_cancel(miniphi_service* service, int64_t job_id,
                                     int* out_requested);
/* Blocks until the job is terminal and writes its result (the job's own
 * outcome is `result->status`, not the return value, which covers the wait
 * itself).  Unknown job ids are MINIPHI_ERROR_INVALID_ARGUMENT. */
miniphi_error miniphi_service_wait(miniphi_service* service, int64_t job_id,
                                   miniphi_job_result* result);
/* Drains queued and running jobs, then destroys the service.  NULL-safe;
 * double-destroy reports MINIPHI_ERROR_INVALID_HANDLE. */
miniphi_error miniphi_service_destroy(miniphi_service* service);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MINIPHI_C_H */
