// Parallel-layer evaluator factories: the thread-parallel counterparts of
// core::make_evaluator.  They exist in this layer because they need a
// WorkerPool, which core cannot depend on; like the core factory they
// return the abstract core::Evaluator so callers never see a concrete
// engine or evaluator header.
#pragma once

#include <memory>
#include <span>

#include "src/bio/alignment.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/engine_config.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/partition_spec.hpp"
#include "src/model/gtr.hpp"
#include "src/parallel/worker_pool.hpp"

namespace miniphi::parallel {

/// RAxML-Light fork-join evaluator: the pattern range splits evenly over
/// the pool's workers, every operation is one fork-join region with a
/// fixed-order scalar reduction (Section V-C scheme).  Pool, patterns and
/// tree must outlive the evaluator.
std::unique_ptr<core::Evaluator> make_fork_join_evaluator(WorkerPool& pool,
                                                          const bio::PatternSet& patterns,
                                                          const model::GtrModel& model,
                                                          tree::Tree& tree,
                                                          const core::EngineConfig& config = {});

/// Partitioned evaluator dispatched over the pool: each stream group runs
/// its partitions end-to-end as one pool task, one region per evaluator
/// call (DESIGN.md §13); `streams` — normally from
/// platform::plan_partition_streams — fixes each partition's stream.  Every
/// partition runs config.isa.  Results are bit-identical to the serial
/// core::make_evaluator partitioned path.  Pool, alignment and tree must
/// outlive the evaluator.
std::unique_ptr<core::Evaluator> make_stream_evaluator(
    WorkerPool& pool, const bio::Alignment& alignment,
    std::span<const core::PartitionSpec> partitions, const model::GtrModel& model,
    tree::Tree& tree, const core::EngineConfig& config = {}, const core::StreamPlan& streams = {});

}  // namespace miniphi::parallel
