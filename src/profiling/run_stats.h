#ifndef PIMINE_PROFILING_RUN_STATS_H_
#define PIMINE_PROFILING_RUN_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "obs/histogram.h"
#include "pim/fault_model.h"
#include "pim/fleet.h"
#include "sim/traffic.h"
#include "util/parallel.h"

namespace pimine {

/// Everything one algorithm run reports. The bench harness composes these
/// into the paper's figures: measured wall time, exact traffic counts (for
/// the analytic cost model), modeled PIM time, and the per-function profile.
/// The RunLedger half (traffic, exact/bound/pruned counts and profile) is
/// written only from ledger deltas: RunScope::Close and live serving's
/// per-dispatch delta.
struct RunStats : RunLedger {
  /// Measured host wall-clock of the online phase (ms).
  double wall_ms = 0.0;
  /// Modeled PIM-device time (NVSim role), ns. Zero for baselines.
  double pim_ns = 0.0;
  /// Dominant working-set size streamed by the host (bytes); drives the
  /// cache-level selection in the Fig. 5 breakdown model.
  uint64_t footprint_bytes = 0;
  /// Fault-injection and recovery accounting of the run's PIM device(s).
  /// All-zero for baselines and fault-free PIM runs.
  FaultStats fault;
  /// Fleet interconnect accounting of sharded PIM execution (scatter /
  /// gather / reduction messages and modeled ns). All-zero for baselines;
  /// the interconnect counters are zero for single-device (shards == 1)
  /// runs. The only RunStats block that legitimately varies with the
  /// shard count.
  FleetRunStats fleet;
  /// Modeled-time latency distribution: per-query for kNN paths, per-
  /// iteration for k-means. Populated only while obs::Obs is enabled
  /// (empty otherwise), so the default run path stays bit-identical to an
  /// uninstrumented build. Buckets merge exactly across threads.
  obs::Histogram latency_hist;
};

/// Per-worker slot of a kNN query batch, a k-means assign chunk or a
/// serving dispatch.
struct WorkerSlot {
  /// The ledger the worker's charges land in (traffic::ScopedSink).
  RunLedger ledger;
  uint64_t changed = 0;     // k-means reassignments.
  obs::Histogram latency;   // obs::ModeledSpan samples; empty with obs off.
  Status status;            // first failure this worker observed.
};

/// The one slot pass of a run's parallel loop: kNN device batches, k-means
/// assign chunks and replay dispatches. ParallelChunks spreads [0, n) in
/// chunks of `chunk` (>= 1) items over NumSlots(policy, n, chunk) workers,
/// one WorkerSlot each. Every claimed chunk (all of [0, n) under a serial
/// policy) installs its slot's ledger as the sink, opens one opt-in
/// obs::SchedSpan over its item range and calls
/// `body(begin, end, slot_index, slot)` on each `chunk`-sized piece of it,
/// so the pieces are the same for every thread count; a worker skips the
/// rest of its pieces once its slot holds an error. The slots then fold in
/// slot order: their ledgers into the calling thread's, their latency into
/// `*latency` and their reassignments into `*changed` when it is non-null.
/// Integer sums and exact histogram merges, so no total depends on the
/// fold order. Returns the first error in slot order.
Status RunSlotPass(
    const ExecPolicy& policy, size_t n, size_t chunk, obs::Histogram* latency,
    const std::function<void(size_t, size_t, size_t, WorkerSlot&)>& body,
    uint64_t* changed = nullptr);

/// Publishes pimine_exact_distances_total, pimine_bound_evaluations_total,
/// pimine_candidates_pruned_total (RunStats::pruned_count) and the latency
/// histogram `latency_family` of a finished run. No-op while observability
/// is off.
void PublishRunMetrics(const RunStats& stats, const char* latency_family);

}  // namespace pimine

#endif  // PIMINE_PROFILING_RUN_STATS_H_
