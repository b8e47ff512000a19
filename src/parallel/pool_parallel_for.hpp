// Adapter that lets PartitionedEvaluator's stream executor dispatch its
// stream tasks onto a WorkerPool.  core::ParallelFor is the seam: src/core cannot depend on
// src/parallel (the dependency points the other way), so the evaluator
// talks to this interface and the application wires the pool in.
#pragma once

#include <functional>

#include "src/core/traversal_plan.hpp"
#include "src/parallel/worker_pool.hpp"

namespace miniphi::parallel {

class PoolParallelFor final : public core::ParallelFor {
 public:
  /// The pool must outlive the adapter.  run() must be called from the
  /// thread that built the pool (the WorkerPool master-participates rule).
  explicit PoolParallelFor(WorkerPool& pool) : pool_(pool) {}

  void run(int count, const std::function<void(int)>& fn) override {
    if (count <= 0) return;
    pool_.run_tasks(count, fn);
  }

 private:
  WorkerPool& pool_;
};

}  // namespace miniphi::parallel
