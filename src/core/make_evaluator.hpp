// The factory seam (PR 8): every public consumer — examples, benches, the
// search and examl drivers, the C API shim — constructs likelihood
// evaluators through core::make_evaluator and programs against the abstract
// core::Evaluator + core::EngineConfig pair.  Concrete engine headers
// (engine.hpp, cat/cat_engine.hpp, general/general_engine.hpp,
// partitioned.hpp) stay private to src/core and src/parallel; white-box
// unit tests of engine internals are the one sanctioned exception.
//
// The overload set mirrors the engine families: which engine runs is decided
// by the *data* handed in (one pattern set → dense DNA engine; a partitioned
// alignment → stream-capable partitioned evaluator; a GeneralModel →
// general/protein engine; a category count → CAT approximation), while every
// execution knob — ISA, tuning, metrics, SDC checks, CLA budget, site
// repeats — rides in the one shared EngineConfig.  Thread-parallel and
// distributed evaluators have their own factories in their own layers
// (parallel::make_fork_join_evaluator, examl::DistributedEvaluator) because
// they need a WorkerPool or a Communicator, which core cannot depend on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/bio/alignment.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/engine_config.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/partition_spec.hpp"
#include "src/model/general.hpp"
#include "src/model/gtr.hpp"

namespace miniphi::core {

/// Dense DNA GTR+Γ engine over one pattern set (the paper's PLF).  The
/// pattern set and tree must outlive the evaluator; the model is copied.
std::unique_ptr<Evaluator> make_evaluator(const bio::PatternSet& patterns,
                                          const model::GtrModel& model, tree::Tree& tree,
                                          const EngineConfig& config = {});

/// Partitioned (multi-gene) evaluator: one engine per partition over the
/// shared tree, all on config.isa, grouped into streams per `streams`
/// (normally produced by platform::plan_partition_streams).  This factory
/// runs the stream tasks serially on the calling thread;
/// parallel::make_stream_evaluator bundles a worker pool with the same
/// evaluator to run them concurrently, bit-identically.
std::unique_ptr<Evaluator> make_evaluator(const bio::Alignment& alignment,
                                          std::span<const PartitionSpec> partitions,
                                          const model::GtrModel& model, tree::Tree& tree,
                                          const EngineConfig& config = {},
                                          const StreamPlan& streams = {});

/// CAT rate-heterogeneity approximation (per-site rate categories instead
/// of Γ quadrature); `model` supplies the GTR eigensystem.
std::unique_ptr<Evaluator> make_evaluator(const bio::PatternSet& patterns,
                                          const model::GtrModel& model, tree::Tree& tree,
                                          int categories, const EngineConfig& config = {});

/// General/protein engine for an arbitrary reversible model;
/// `code_masks[code]` gives the state set of tip code `code`.
std::unique_ptr<Evaluator> make_evaluator(const bio::PatternSet& patterns,
                                          const model::GeneralModel& model, tree::Tree& tree,
                                          std::vector<std::uint32_t> code_masks,
                                          const EngineConfig& config = {});

}  // namespace miniphi::core
