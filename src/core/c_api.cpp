// Implementation of the versioned C shim (include/miniphi_c.h).
//
// Everything here is boundary code: translate C inputs into the C++ seam
// types (core::EngineConfig, core::PartitionSpec, core::StreamPlan), run
// the resource negotiation against the host's supported back-ends, pack
// streams with the platform cost model, construct evaluators exclusively
// through the factories (core::make_evaluator /
// parallel::make_stream_evaluator), and map every exception to a stable
// miniphi_error before it can cross into C.
//
// Since 1.2 handles are generation-stamped table entries rather than raw
// pointers: the opaque pointer a caller holds encodes (slot index,
// generation) and never aliases real memory.  Destroying a handle bumps its
// slot's generation, so a double-free or use-after-destroy resolves to
// nothing and is reported as MINIPHI_ERROR_INVALID_HANDLE instead of being
// undefined behaviour.
#include "miniphi_c.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/bio/alignment.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/core/partitioned.hpp"
#include "src/core/sdc.hpp"
#include "src/io/fasta.hpp"
#include "src/io/newick.hpp"
#include "src/model/gtr.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/platform/cost_model.hpp"
#include "src/service/service.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/tree.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace {

thread_local std::string g_last_error;  // NOLINT(cert-err58-cpp)

void set_last_error(const char* what) { g_last_error = what == nullptr ? "" : what; }

/// Runs `fn` (returning miniphi_error) with every exception mapped to a
/// stable code.  `recoverable` is the code for miniphi::Error — the entry
/// points parsing caller text report MINIPHI_ERROR_PARSE, everything else
/// MINIPHI_ERROR_INVALID_ARGUMENT.
template <typename Fn>
miniphi_error guarded(miniphi_error recoverable, Fn&& fn) noexcept {
  try {
    set_last_error("");
    return fn();
  } catch (const miniphi::CancelledError& e) {
    set_last_error(e.what());
    return e.deadline_expired() ? MINIPHI_ERROR_DEADLINE_EXCEEDED : MINIPHI_ERROR_CANCELLED;
  } catch (const miniphi::core::sdc::CorruptionDetected& e) {
    set_last_error(e.what());
    return MINIPHI_ERROR_CORRUPT_DATA;
  } catch (const miniphi::Error& e) {
    set_last_error(e.what());
    // The memory tier reports an unsatisfiable CLA budget with a message
    // naming the "minimum working set"; give it its stable code.
    if (std::string_view(e.what()).find("minimum working set") != std::string_view::npos) {
      return MINIPHI_ERROR_INSUFFICIENT_MEMORY;
    }
    return recoverable;
  } catch (const std::bad_alloc&) {
    set_last_error("out of memory");
    return MINIPHI_ERROR_OUT_OF_MEMORY;
  } catch (const std::exception& e) {
    set_last_error(e.what());
    return MINIPHI_ERROR_INTERNAL;
  } catch (...) {
    set_last_error("unknown error");
    return MINIPHI_ERROR_INTERNAL;
  }
}

int backend_bit(miniphi::simd::Isa isa) {
  switch (isa) {
    case miniphi::simd::Isa::kScalar:
      return MINIPHI_BACKEND_SCALAR;
    case miniphi::simd::Isa::kAvx2:
      return MINIPHI_BACKEND_AVX2;
    case miniphi::simd::Isa::kAvx512:
      return MINIPHI_BACKEND_AVX512;
  }
  return MINIPHI_BACKEND_SCALAR;
}

miniphi_error fill_newick(const std::string& text, char* buffer, int64_t size,
                          int64_t* required) {
  if (required != nullptr) *required = static_cast<int64_t>(text.size());
  if (buffer == nullptr || size <= 0) {
    return required != nullptr ? MINIPHI_OK : MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  const auto copy = std::min<int64_t>(size - 1, static_cast<int64_t>(text.size()));
  std::memcpy(buffer, text.data(), static_cast<std::size_t>(copy));
  buffer[copy] = '\0';
  return MINIPHI_OK;
}

/// Generation-stamped handle table.  Handles encode (slot index + 1,
/// generation) in a pointer-sized value; they are lookup keys, never
/// addresses.  take() bumps the slot generation, so any handle minted
/// before the take — including the one just destroyed — stops resolving.
template <typename Payload>
class HandleTable {
  static_assert(sizeof(std::uintptr_t) >= 8, "handles pack index+generation into 64 bits");

 public:
  Payload* insert(std::unique_ptr<Payload> object) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t index = 0;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = slots_.size();
      slots_.emplace_back();
    }
    slots_[index].object = std::move(object);
    const auto value = (static_cast<std::uintptr_t>(index + 1) << 32U) |
                       static_cast<std::uintptr_t>(slots_[index].generation);
    return reinterpret_cast<Payload*>(value);  // NOLINT(performance-no-int-to-ptr)
  }

  /// The live payload for `handle`, or nullptr when the handle is null,
  /// stale (already destroyed) or was never minted by this table.
  Payload* resolve(const Payload* handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* slot = find_locked(handle);
    return slot == nullptr ? nullptr : slot->object.get();
  }

  /// Removes and returns the payload (nullptr when stale).  The slot's
  /// generation is bumped before reuse, invalidating every outstanding
  /// copy of the handle.
  std::unique_ptr<Payload> take(const Payload* handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* slot = find_locked(handle);
    if (slot == nullptr) return nullptr;
    ++slot->generation;
    free_.push_back(static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(handle) >> 32U) -
                    1);
    return std::move(slot->object);
  }

 private:
  struct Slot {
    std::unique_ptr<Payload> object;
    std::uint32_t generation = 1;
  };

  Slot* find_locked(const Payload* handle) {
    const auto value = reinterpret_cast<std::uintptr_t>(handle);
    const auto generation = static_cast<std::uint32_t>(value & 0xFFFFFFFFU);
    const auto index_plus_one = static_cast<std::size_t>(value >> 32U);
    if (index_plus_one == 0 || index_plus_one > slots_.size()) return nullptr;
    Slot& slot = slots_[index_plus_one - 1];
    if (slot.generation != generation || slot.object == nullptr) return nullptr;
    return &slot;
  }

  std::mutex mutex_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
};

/// Distinguishes the two ways a handle argument can be bad: null is a
/// caller passing nothing (invalid argument), anything else that fails to
/// resolve is a destroyed or forged handle (invalid handle).
template <typename Payload>
miniphi_error handle_error(const Payload* handle) {
  if (handle == nullptr) {
    set_last_error("null handle");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  set_last_error("invalid handle: already destroyed or never created");
  return MINIPHI_ERROR_INVALID_HANDLE;
}

}  // namespace

struct miniphi_alignment {
  explicit miniphi_alignment(miniphi::bio::Alignment alignment_in)
      : alignment(std::move(alignment_in)) {}

  miniphi::bio::Alignment alignment;

  /// Compressed patterns, computed on first use (service submits need them;
  /// plain instance creation compresses its own copy).  Guarded because
  /// service clients may submit against one alignment from many threads.
  const miniphi::bio::PatternSet& compressed() {
    std::lock_guard<std::mutex> lock(patterns_mutex_);
    if (patterns_ == nullptr) {
      patterns_ = std::make_unique<miniphi::bio::PatternSet>(
          miniphi::bio::compress_patterns(alignment));
    }
    return *patterns_;
  }

 private:
  std::mutex patterns_mutex_;
  std::unique_ptr<miniphi::bio::PatternSet> patterns_;
};

struct miniphi_tree {
  miniphi::tree::Tree tree;
  std::vector<std::string> taxon_names;  ///< tip id -> name (alignment order)
};

struct miniphi_instance {
  // Construction (and therefore destruction) order matters: the evaluator
  // dispatches onto the pool and walks the tree, so both must outlive it.
  miniphi::model::GtrModel model;
  miniphi::tree::Tree tree;
  std::vector<std::string> taxon_names;
  std::unique_ptr<miniphi::bio::PatternSet> patterns;  // single-partition path
  std::vector<miniphi::core::PartitionSpec> partitions;
  std::unique_ptr<miniphi::parallel::WorkerPool> pool;
  std::unique_ptr<miniphi::core::Evaluator> evaluator;
  miniphi_resource_grant grant{};

  miniphi_instance(miniphi::model::GtrModel model_in, miniphi::tree::Tree tree_in,
                   std::vector<std::string> names)
      : model(std::move(model_in)), tree(std::move(tree_in)), taxon_names(std::move(names)) {}
};

struct miniphi_service {
  explicit miniphi_service(const miniphi::service::ServiceConfig& config) : service(config) {}
  miniphi::service::EvaluationService service;
};

namespace {

// One table per handle type; handles from one table never resolve in
// another, so passing a tree where an alignment is expected also fails
// (the C type system already prevents it without casts).
HandleTable<miniphi_alignment> g_alignments;   // NOLINT(cert-err58-cpp)
HandleTable<miniphi_tree> g_trees;             // NOLINT(cert-err58-cpp)
HandleTable<miniphi_instance> g_instances;     // NOLINT(cert-err58-cpp)
HandleTable<miniphi_service> g_services;       // NOLINT(cert-err58-cpp)

}  // namespace

extern "C" {

const char* miniphi_version(void) { return "miniphi C API 1.2"; }

void miniphi_version_numbers(int* major, int* minor) {
  if (major != nullptr) *major = MINIPHI_C_API_VERSION_MAJOR;
  if (minor != nullptr) *minor = MINIPHI_C_API_VERSION_MINOR;
}

int miniphi_supported_backends(void) {
  int mask = 0;
  const auto widest = miniphi::simd::best_supported_isa();
  for (const auto isa : {miniphi::simd::Isa::kScalar, miniphi::simd::Isa::kAvx2,
                         miniphi::simd::Isa::kAvx512}) {
    if (static_cast<int>(isa) <= static_cast<int>(widest)) mask |= backend_bit(isa);
  }
  return mask;
}

const char* miniphi_last_error_message(void) { return g_last_error.c_str(); }

miniphi_error miniphi_alignment_from_fasta(const char* fasta_text, miniphi_alignment** out) {
  if (fasta_text == nullptr || out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  return guarded(MINIPHI_ERROR_PARSE, [&] {
    std::istringstream stream{std::string(fasta_text)};
    *out = g_alignments.insert(std::make_unique<miniphi_alignment>(
        miniphi::bio::Alignment(miniphi::io::read_fasta(stream))));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_alignment_create(int taxon_count, const char* const* names,
                                       const char* const* sequences, miniphi_alignment** out) {
  if (taxon_count <= 0 || names == nullptr || sequences == nullptr || out == nullptr) {
    set_last_error("null argument or non-positive taxon count");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  return guarded(MINIPHI_ERROR_PARSE, [&] {
    miniphi::io::SequenceSet records;
    records.reserve(static_cast<std::size_t>(taxon_count));
    for (int t = 0; t < taxon_count; ++t) {
      MINIPHI_CHECK(names[t] != nullptr && sequences[t] != nullptr,
                    "null taxon name or sequence");
      records.push_back({names[t], sequences[t]});
    }
    *out = g_alignments.insert(
        std::make_unique<miniphi_alignment>(miniphi::bio::Alignment(records)));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_alignment_taxon_count(const miniphi_alignment* alignment, int* out) {
  if (out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_alignment* payload = g_alignments.resolve(alignment);
  if (payload == nullptr) return handle_error(alignment);
  *out = static_cast<int>(payload->alignment.taxon_count());
  return MINIPHI_OK;
}

miniphi_error miniphi_alignment_site_count(const miniphi_alignment* alignment, int64_t* out) {
  if (out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_alignment* payload = g_alignments.resolve(alignment);
  if (payload == nullptr) return handle_error(alignment);
  *out = static_cast<int64_t>(payload->alignment.site_count());
  return MINIPHI_OK;
}

void miniphi_alignment_destroy(miniphi_alignment* alignment) {
  // NULL-safe and double-free-safe: a stale handle resolves to nothing and
  // the call is a no-op instead of undefined behaviour.
  g_alignments.take(alignment);
}

miniphi_error miniphi_tree_from_newick(const miniphi_alignment* alignment, const char* newick,
                                       miniphi_tree** out) {
  if (newick == nullptr || out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_alignment* payload = g_alignments.resolve(alignment);
  if (payload == nullptr) return handle_error(alignment);
  return guarded(MINIPHI_ERROR_PARSE, [&] {
    const auto root = miniphi::io::parse_newick(newick);
    *out = g_trees.insert(std::make_unique<miniphi_tree>(miniphi_tree{
        miniphi::tree::Tree::from_newick(*root, payload->alignment.taxon_names()),
        payload->alignment.taxon_names()}));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_tree_parsimony(const miniphi_alignment* alignment, uint64_t seed,
                                     miniphi_tree** out) {
  if (out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_alignment* payload = g_alignments.resolve(alignment);
  if (payload == nullptr) return handle_error(alignment);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    const auto patterns = miniphi::bio::compress_patterns(payload->alignment);
    miniphi::Rng rng(seed);
    *out = g_trees.insert(std::make_unique<miniphi_tree>(
        miniphi_tree{miniphi::tree::parsimony_starting_tree(patterns, rng),
                     payload->alignment.taxon_names()}));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_tree_to_newick(const miniphi_tree* tree, char* buffer, int64_t size,
                                     int64_t* required) {
  miniphi_tree* payload = g_trees.resolve(tree);
  if (payload == nullptr) return handle_error(tree);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    return fill_newick(payload->tree.to_newick(payload->taxon_names), buffer, size, required);
  });
}

void miniphi_tree_destroy(miniphi_tree* tree) {
  g_trees.take(tree);  // NULL-safe and double-free-safe, as above
}

miniphi_error miniphi_create_instance(const miniphi_alignment* alignment,
                                      const miniphi_tree* tree,
                                      const miniphi_resource_request* request,
                                      miniphi_resource_grant* grant, miniphi_instance** out) {
  if (out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_alignment* alignment_payload = g_alignments.resolve(alignment);
  if (alignment_payload == nullptr) return handle_error(alignment);
  miniphi_tree* tree_payload = g_trees.resolve(tree);
  if (tree_payload == nullptr) return handle_error(tree);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&]() -> miniphi_error {
    const miniphi_resource_request defaults{};
    const miniphi_resource_request& req = request != nullptr ? *request : defaults;
    MINIPHI_CHECK(req.partitions >= 0 && req.streams >= 0,
                  "negative partition or stream request");
    MINIPHI_CHECK(req.cla_budget_bytes >= 0, "negative CLA budget request");

    // Back-end negotiation: the request is a permission mask; intersect it
    // with what the host supports and run the widest back-end left.
    const int supported = miniphi_supported_backends();
    const int allowed = req.backends == 0 ? supported : (req.backends & supported);
    if (allowed == 0) {
      set_last_error("none of the requested kernel back-ends is supported on this host");
      return MINIPHI_ERROR_UNSUPPORTED;
    }
    auto widest = miniphi::simd::Isa::kScalar;
    if ((allowed & MINIPHI_BACKEND_AVX512) != 0) {
      widest = miniphi::simd::Isa::kAvx512;
    } else if ((allowed & MINIPHI_BACKEND_AVX2) != 0) {
      widest = miniphi::simd::Isa::kAvx2;
    }

    const auto sites = static_cast<std::int64_t>(alignment_payload->alignment.site_count());
    const int partitions =
        static_cast<int>(std::clamp<std::int64_t>(req.partitions == 0 ? 1 : req.partitions,
                                                  1, sites));
    const int streams = std::clamp(req.streams == 0 ? partitions : req.streams, 1, partitions);

    // GTR+Γ with empirical base frequencies, α = 1 — the standard RAxML
    // starting model; α is adjustable via miniphi_set_alpha.
    miniphi::model::GtrParams params;
    const auto freqs = alignment_payload->alignment.empirical_base_frequencies();
    for (std::size_t i = 0; i < 4; ++i) params.frequencies[i] = freqs[i];
    params.alpha = 1.0;
    auto instance = std::make_unique<miniphi_instance>(
        miniphi::model::GtrModel(params), tree_payload->tree,
        alignment_payload->alignment.taxon_names());

    miniphi::core::EngineConfig config;
    config.isa = widest;
    config.sdc_checks = req.sdc_checks != 0;
    // Memory negotiation (since 1.1): a byte budget caps the resident CLA
    // pool; the spill tier keeps evicted CLAs on disk so tight budgets pay
    // reloads instead of full recomputes.
    config.cla_budget_bytes = req.cla_budget_bytes;
    config.cla_spill = req.cla_budget_bytes > 0;

    if (partitions == 1) {
      instance->patterns = std::make_unique<miniphi::bio::PatternSet>(
          miniphi::bio::compress_patterns(alignment_payload->alignment));
      instance->evaluator = miniphi::core::make_evaluator(*instance->patterns, instance->model,
                                                          instance->tree, config);
      instance->grant = {backend_bit(widest), 1, 1, req.cla_budget_bytes,
                         instance->evaluator->cla_bytes_granted()};
    } else {
      instance->partitions = miniphi::core::even_partitions(sites, partitions);
      // Cost-model stream plan over the compressed pattern counts — the
      // same counts the evaluator carves a byte budget over, so a budget it
      // accepts is never refused here.
      const auto patterns = miniphi::core::partition_pattern_counts(alignment_payload->alignment,
                                                                    instance->partitions);
      // Budget-aware stream packing: under a carved budget, tight partitions
      // are modeled slower (they recompute or reload evicted CLAs), so LPT
      // spreads them across streams.
      std::vector<double> budget_fraction;
      if (req.cla_budget_bytes > 0) {
        // Carved bytes over the partition's full bytes (every inner node
        // at full width).
        const int inner = instance->tree.inner_count();
        const auto caps = miniphi::core::carve_cla_budgets(req.cla_budget_bytes, patterns, inner);
        for (std::size_t p = 0; p < caps.size(); ++p) {
          budget_fraction.push_back(
              static_cast<double>(caps[p]) /
              static_cast<double>(inner * miniphi::core::full_width_cla_bytes(
                                              patterns[p], miniphi::core::kSiteBlock)));
        }
      }
      const auto plan = miniphi::platform::plan_partition_streams(patterns, streams, widest,
                                                                  budget_fraction);
      const int granted_streams = plan.stream_count;
      if (granted_streams > 1) {
        instance->pool = std::make_unique<miniphi::parallel::WorkerPool>(granted_streams);
        instance->evaluator = miniphi::parallel::make_stream_evaluator(
            *instance->pool, alignment_payload->alignment, instance->partitions,
            instance->model, instance->tree, config, plan);
      } else {
        instance->evaluator = miniphi::core::make_evaluator(
            alignment_payload->alignment, instance->partitions, instance->model,
            instance->tree, config, plan);
      }
      instance->grant = {backend_bit(widest), partitions, granted_streams, req.cla_budget_bytes,
                         instance->evaluator->cla_bytes_granted()};
    }

    if (grant != nullptr) *grant = instance->grant;
    *out = g_instances.insert(std::move(instance));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_evaluate(miniphi_instance* instance, double* out_log_likelihood) {
  if (out_log_likelihood == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_instance* payload = g_instances.resolve(instance);
  if (payload == nullptr) return handle_error(instance);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    *out_log_likelihood = payload->evaluator->log_likelihood(payload->tree.tip(0));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_optimize_branch_lengths(miniphi_instance* instance, int passes,
                                              double* out_log_likelihood) {
  if (out_log_likelihood == nullptr || passes < 1) {
    set_last_error("null argument or non-positive pass count");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_instance* payload = g_instances.resolve(instance);
  if (payload == nullptr) return handle_error(instance);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    *out_log_likelihood = payload->evaluator->optimize_all_branches(payload->tree.tip(0), passes);
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_set_alpha(miniphi_instance* instance, double alpha) {
  if (!(alpha > 0.0)) {
    set_last_error("non-positive alpha");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_instance* payload = g_instances.resolve(instance);
  if (payload == nullptr) return handle_error(instance);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    payload->evaluator->set_alpha(alpha);
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_instance_to_newick(const miniphi_instance* instance, char* buffer,
                                         int64_t size, int64_t* required) {
  miniphi_instance* payload = g_instances.resolve(instance);
  if (payload == nullptr) return handle_error(instance);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    return fill_newick(payload->tree.to_newick(payload->taxon_names), buffer, size, required);
  });
}

miniphi_error miniphi_finalize_instance(miniphi_instance* instance) {
  if (instance == nullptr) return MINIPHI_OK;  // documented NULL-safe
  auto payload = g_instances.take(instance);
  if (payload == nullptr) return handle_error(instance);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    payload.reset();
    return MINIPHI_OK;
  });
}

/* --- evaluation service ------------------------------------------------ */

miniphi_error miniphi_service_create(const miniphi_service_options* options,
                                     miniphi_service** out) {
  if (out == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    miniphi::service::ServiceConfig config;
    if (options != nullptr) {
      MINIPHI_CHECK(options->cla_budget_bytes >= 0 && options->degrade_floor_bytes >= 0,
                    "negative service CLA budget or degrade floor");
      if (options->executors > 0) config.executors = options->executors;
      if (options->pool_threads > 0) config.pool_threads = options->pool_threads;
      if (options->queue_limit > 0) config.queue_limit = options->queue_limit;
      config.cla_budget_bytes = options->cla_budget_bytes;
      config.degrade_floor_bytes = options->degrade_floor_bytes;
      if (options->corruption_retry_budget > 0) {
        config.corruption_retry_budget = options->corruption_retry_budget;
      }
      if (options->publish_metrics != 0) config.metrics = miniphi::obs::MetricsMode::kOn;
    }
    *out = g_services.insert(std::make_unique<miniphi_service>(config));
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_service_register_tenant(miniphi_service* service, const char* tenant,
                                              int max_in_flight) {
  if (tenant == nullptr) {
    set_last_error("null tenant name");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_service* payload = g_services.resolve(service);
  if (payload == nullptr) return handle_error(service);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    miniphi::service::TenantQuota quota;
    if (max_in_flight > 0) quota.max_in_flight = max_in_flight;
    payload->service.register_tenant(tenant, quota);
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_service_submit(miniphi_service* service, const char* tenant,
                                     const miniphi_alignment* alignment,
                                     const miniphi_tree* tree,
                                     const miniphi_job_options* options, int64_t* out_job_id) {
  if (tenant == nullptr || out_job_id == nullptr) {
    set_last_error("null argument");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_service* service_payload = g_services.resolve(service);
  if (service_payload == nullptr) return handle_error(service);
  miniphi_alignment* alignment_payload = g_alignments.resolve(alignment);
  if (alignment_payload == nullptr) return handle_error(alignment);
  miniphi_tree* tree_payload = g_trees.resolve(tree);
  if (tree_payload == nullptr) return handle_error(tree);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&]() -> miniphi_error {
    const miniphi_job_options defaults{};
    const miniphi_job_options& opt = options != nullptr ? *options : defaults;
    MINIPHI_CHECK(opt.kind >= MINIPHI_JOB_EVALUATE && opt.kind <= MINIPHI_JOB_BRANCH_SMOOTH,
                  "unknown job kind");
    MINIPHI_CHECK(opt.partitions >= 0 && opt.smoothing_passes >= 0,
                  "negative partition or pass count");
    MINIPHI_CHECK(opt.deadline_ns >= 0 && opt.cla_budget_bytes >= 0,
                  "negative deadline or CLA budget");
    MINIPHI_CHECK(opt.alpha >= 0.0, "negative alpha");

    miniphi::service::JobRequest request;
    request.tenant = tenant;
    request.tree = &tree_payload->tree;
    const int partitions = opt.partitions == 0 ? 1 : opt.partitions;
    if (partitions == 1) {
      request.patterns = &alignment_payload->compressed();
    } else {
      request.alignment = &alignment_payload->alignment;
    }
    const auto freqs = alignment_payload->alignment.empirical_base_frequencies();
    for (std::size_t i = 0; i < 4; ++i) request.params.frequencies[i] = freqs[i];
    request.params.alpha = opt.alpha > 0.0 ? opt.alpha : 1.0;
    request.options.kind = static_cast<miniphi::service::JobKind>(opt.kind);
    request.options.deadline = std::chrono::nanoseconds(opt.deadline_ns);
    request.options.cla_budget_bytes = opt.cla_budget_bytes;
    request.options.partitions = partitions;
    request.options.smoothing_passes = opt.smoothing_passes == 0 ? 1 : opt.smoothing_passes;
    request.options.sdc_checks = opt.sdc_checks != 0;

    const std::int64_t id = service_payload->service.submit(request);
    if (id == miniphi::service::kOverloadedJobId) {
      set_last_error("service overloaded: queue full or tenant over quota (retryable)");
      return MINIPHI_ERROR_OVERLOADED;
    }
    *out_job_id = id;
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_service_cancel(miniphi_service* service, int64_t job_id,
                                     int* out_requested) {
  miniphi_service* payload = g_services.resolve(service);
  if (payload == nullptr) return handle_error(service);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    const bool requested = payload->service.cancel(job_id);
    if (out_requested != nullptr) *out_requested = requested ? 1 : 0;
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_service_wait(miniphi_service* service, int64_t job_id,
                                   miniphi_job_result* result) {
  if (result == nullptr) {
    set_last_error("null result pointer");
    return MINIPHI_ERROR_INVALID_ARGUMENT;
  }
  miniphi_service* payload = g_services.resolve(service);
  if (payload == nullptr) return handle_error(service);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    const auto res = payload->service.wait(job_id);
    miniphi_job_result out{};
    switch (res.status) {
      case miniphi::service::JobStatus::kOk:
        out.status = MINIPHI_OK;
        break;
      case miniphi::service::JobStatus::kCancelled:
        out.status = MINIPHI_ERROR_CANCELLED;
        break;
      case miniphi::service::JobStatus::kDeadlineExceeded:
        out.status = MINIPHI_ERROR_DEADLINE_EXCEEDED;
        break;
      case miniphi::service::JobStatus::kCorrupt:
        out.status = MINIPHI_ERROR_CORRUPT_DATA;
        break;
      default:
        out.status = MINIPHI_ERROR_INTERNAL;
        break;
    }
    out.log_likelihood = res.log_likelihood;
    out.gradient_edges = static_cast<int64_t>(res.gradient_edges);
    out.cla_bytes_granted = res.cla_bytes_granted;
    out.degraded = res.degraded ? 1 : 0;
    out.rebuilds = res.rebuilds;
    if (out.status != MINIPHI_OK) set_last_error(res.error.c_str());
    *result = out;
    return MINIPHI_OK;
  });
}

miniphi_error miniphi_service_destroy(miniphi_service* service) {
  if (service == nullptr) return MINIPHI_OK;  // documented NULL-safe
  auto payload = g_services.take(service);
  if (payload == nullptr) return handle_error(service);
  return guarded(MINIPHI_ERROR_INVALID_ARGUMENT, [&] {
    payload.reset();  // graceful drain in ~EvaluationService
    return MINIPHI_OK;
  });
}

}  // extern "C"
