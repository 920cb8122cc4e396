#ifndef PIMINE_UTIL_PARALLEL_H_
#define PIMINE_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "util/thread_pool.h"

namespace pimine {

/// Host-side execution policy for batch-query APIs (kNN Search, k-means
/// Run, the serving scheduler). The policy only changes *how fast* the
/// host side runs, never *what* it computes: any policy produces results,
/// traffic counters and modeled PIM/host timings identical to the
/// single-threaded default (see DESIGN.md, "Host-side parallelism vs. the
/// paper's timing model").
struct ExecPolicy {
  /// Worker threads for the batch. <= 1 executes inline on the caller.
  int num_threads = 1;
  /// Queries per work unit of a kNN Search and per PIM device batch:
  /// workers claim whole batches of this many queries, and a path with a
  /// PimEngine issues one DotProductBatch (tiled GEMM) per batch instead of
  /// one per query; kNN Search and k-means Run reject 0. Functional results,
  /// traffic and the serial-equivalent modeled PIM time are bit-identical
  /// for every value; only wall time, the device's
  /// batch_ops/queries_per_batch accounting and the modeled pipelined_ns
  /// depend on it. 1 = the paper's per-query operation.
  size_t device_batch = 1;

  bool parallel() const { return num_threads > 1; }

  /// InvalidArgument when device_batch is 0: kNN Search, k-means Run and
  /// the server reject it alike.
  Status CheckDeviceBatch() const {
    if (device_batch != 0) return Status::OK();
    return Status::InvalidArgument(
        "ExecPolicy::device_batch must be >= 1 (one query per device "
        "operation); 0 is not a valid batch size");
  }

  static ExecPolicy Serial() { return ExecPolicy{}; }
  static ExecPolicy WithThreads(int n) {
    ExecPolicy p;
    p.num_threads = n;
    return p;
  }
};

/// Number of worker slots ParallelChunks will use for `n` items in chunks
/// of `chunk`: 1 for serial policies, else min(num_threads, #chunks).
/// Callers size per-worker scratch/stat slots with this.
size_t NumSlots(const ExecPolicy& policy, size_t n, size_t chunk);

/// Runs fn(begin, end, slot) over [0, n) in chunks of `chunk` items.
/// Serial policies invoke fn(0, n, 0) inline; parallel policies submit
/// NumSlots() workers to the shared pool, each greedily claiming chunks,
/// and block until every chunk has finished. `slot` < NumSlots() is stable
/// for the duration of one worker, so fn may use slot-indexed scratch
/// without synchronization. Chunk boundaries are deterministic; chunk ->
/// worker assignment is not, so any cross-chunk state must be slot-local
/// and merged by the caller in slot order.
void ParallelChunks(const ExecPolicy& policy, size_t n, size_t chunk,
                    const std::function<void(size_t, size_t, size_t)>& fn);

/// Process-wide worker pool backing ParallelChunks, lazily created and
/// grown to at least `min_threads` workers. Prefer ParallelChunks; this
/// accessor exists for harnesses that need raw Submit/Wait.
ThreadPool& SharedPool(size_t min_threads);

}  // namespace pimine

#endif  // PIMINE_UTIL_PARALLEL_H_
