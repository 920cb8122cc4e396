#include "knn/knn_common.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/obs.h"
#include "sim/traffic.h"
#include "util/bits.h"

namespace pimine {

std::vector<uint32_t> ArgsortAscending(std::span<const double> values) {
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [values](uint32_t a, uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  ChargeArgsortTraffic(values.size());
  return order;
}

void ChargeArgsortTraffic(size_t n) {
  // One streaming pass over the value array plus n*log2(n) comparisons.
  traffic::CountRead(n * sizeof(double));
  if (n != 0) {
    const uint64_t comparisons = n * (FloorLog2(n) + 1);
    traffic::CountArithmetic(comparisons);
    traffic::CountBranches(comparisons);
  }
}

std::vector<Neighbor> FinalizeSimilarityNeighbors(TopK& topk) {
  std::vector<Neighbor> out = topk.TakeSorted();
  for (Neighbor& n : out) n.distance = -n.distance;
  return out;
}

size_t NumBatchSlots(const ExecPolicy& policy, size_t num_queries) {
  const size_t chunk = std::max<size_t>(1, policy.device_batch);
  return NumSlots(policy, num_queries, chunk);
}

Status RunQueryBatchesWithPolicy(
    const ExecPolicy& policy, size_t num_queries, RunStats* stats,
    const std::function<void(size_t, size_t, size_t, WorkerSlot&)>&
        run_batch) {
  if (policy.device_batch == 0) {
    return Status::InvalidArgument(
        "ExecPolicy::device_batch must be >= 1 (one query per device "
        "operation); 0 is not a valid batch size");
  }
  const size_t chunk = policy.device_batch;
  std::vector<WorkerSlot> slots(NumSlots(policy, num_queries, chunk));
  // A serial policy hands the whole range to one invocation, so the
  // callback re-splits its range on device_batch boundaries: parallel
  // chunks are already chunk-aligned, which makes the realized batches
  // (and therefore the device's batch accounting) identical for every
  // thread count.
  ParallelChunks(
      policy, num_queries, chunk,
      [&](size_t begin, size_t end, size_t slot_index) {
        // Opt-in physical span: this worker's whole chunk (runs on the pool
        // thread, so it doubles as the worker span carrying the query range).
        obs::SchedSpan sched(static_cast<int64_t>(begin / chunk),
                             static_cast<int64_t>(begin),
                             static_cast<int64_t>(end));
        WorkerSlot& slot = slots[slot_index];
        for (size_t b = begin; b < end; b += chunk) {
          if (!slot.status.ok()) return;
          // Engine/device code labels per-query spans with global query
          // ids relative to this batch's first query.
          obs::ScopedTrackBase track_base(static_cast<int64_t>(b));
          run_batch(b, std::min(end, b + chunk), slot_index, slot);
        }
      });
  Status first_error;
  for (const WorkerSlot& slot : slots) {
    slot.FoldInto(stats);
    if (first_error.ok()) first_error = slot.status;
  }
  return first_error;
}

}  // namespace pimine
