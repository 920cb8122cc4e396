#include "profiling/run_stats.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "obs/obs.h"

namespace pimine {

Status RunSlotPass(
    const ExecPolicy& policy, size_t n, size_t chunk, obs::Histogram* latency,
    const std::function<void(size_t, size_t, size_t, WorkerSlot&)>& body,
    uint64_t* changed) {
  PIMINE_DCHECK(chunk >= 1);
  std::vector<WorkerSlot> slots(NumSlots(policy, n, chunk));
  ParallelChunks(policy, n, chunk,
                 [&](size_t begin, size_t end, size_t slot_index) {
                   WorkerSlot& slot = slots[slot_index];
                   const traffic::ScopedSink sink(&slot.ledger);
                   // Runs on the pool thread, so it doubles as the worker
                   // span carrying the chunk's item range.
                   obs::SchedSpan sched(static_cast<int64_t>(begin / chunk),
                                        static_cast<int64_t>(begin),
                                        static_cast<int64_t>(end));
                   for (size_t b = begin; b < end && slot.status.ok();
                        b += chunk) {
                     body(b, std::min(end, b + chunk), slot_index, slot);
                   }
                 });
  Status first_error;
  for (const WorkerSlot& slot : slots) {
    traffic::Local() += slot.ledger;
    latency->Merge(slot.latency);
    if (changed != nullptr) *changed += slot.changed;
    if (first_error.ok()) first_error = slot.status;
  }
  return first_error;
}

void PublishRunMetrics(const RunStats& stats, const char* latency_family) {
  obs::Obs* o = obs::Obs::Get();
  if (o == nullptr) return;
  o->metrics().GetCounter("pimine_exact_distances_total")
      .Add(stats.exact_count);
  o->metrics().GetCounter("pimine_bound_evaluations_total")
      .Add(stats.bound_count);
  o->metrics()
      .GetCounter("pimine_candidates_pruned_total")
      .Add(stats.pruned_count);
  o->metrics().MergeHistogram(latency_family, stats.latency_hist);
}

}  // namespace pimine
