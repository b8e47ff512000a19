// Partition and stream-group descriptions — the concrete-engine-free part
// of the partitioned evaluation API.
//
// These types are pure data: how the alignment splits into partitions and
// how partitions map onto *stream groups*.  They live apart from
// partitioned.hpp so that public consumers (examples, the factory seam, the
// platform cost model, the C API shim) can describe a partitioned job
// without pulling in any concrete engine header.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace miniphi::core {

/// One partition: a named, contiguous site range of the input alignment.
struct PartitionSpec {
  std::string name;
  std::int64_t begin = 0;  ///< first site (inclusive)
  std::int64_t end = 0;    ///< one past the last site
};

/// Splits [0, total_sites) into `count` near-equal partitions named gene0…
std::vector<PartitionSpec> even_partitions(std::int64_t total_sites, int count);

/// Stream-group assignment, normally produced by
/// platform::plan_partition_streams (LPT over the modeled partition costs)
/// but constructible by hand.  An empty vector means "default": every
/// partition on stream 0.  Each stream is one task that evaluates its
/// partitions end-to-end; reductions always fold in fixed partition order,
/// so any assignment yields bit-identical results across stream counts and
/// thread counts.
struct StreamPlan {
  std::vector<int> partition_stream;  ///< per partition stream id; empty = 0
  int stream_count = 1;               ///< number of stream groups (>= 1)
};

/// Monotonic counters for the stream-group executor.
struct StreamCounters {
  std::int64_t calls = 0;    ///< evaluator entry points dispatched via streams
  std::int64_t regions = 0;  ///< parallel regions issued (1 per call)
  std::int64_t tasks = 0;    ///< stream tasks executed (stream_count per call)
};

}  // namespace miniphi::core
