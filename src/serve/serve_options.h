#ifndef PIMINE_SERVE_SERVE_OPTIONS_H_
#define PIMINE_SERVE_SERVE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pim/chaos.h"
#include "util/parallel.h"

namespace pimine {
namespace serve {

/// One serving tenant: a named traffic class with a weighted-fair share of
/// every contended batch. Weights are relative (a weight-3 tenant gets
/// three picks per weight-1 pick while both have queries pending); idle
/// tenants bank no credit.
struct TenantSpec {
  std::string name = "default";
  uint32_t weight = 1;
};

/// Knobs of the continuous-batching scheduler. The scheduler coalesces
/// single-query submissions into device batches to keep the Q-pipeline
/// (PimTimingModel::BatchDotLatencyNs = stage_ns*(stages+Q-1)) full; every
/// knob trades latency against batch occupancy, never correctness — batch
/// composition cannot change any query's neighbours.
struct ServeOptions {
  /// Queries coalesced into one scheduler dispatch (upper bound). A
  /// dispatch of B queries issues ceil(B / exec.device_batch) PIM batch
  /// operations, so max_batch composes with ExecPolicy::device_batch: the
  /// former bounds admission coalescing, the latter the per-operation GEMM
  /// width.
  size_t max_batch = 16;
  /// Longest time a query may wait in the admission queue for companions
  /// before the scheduler dispatches a partial batch. 0 = greedy dispatch:
  /// never hold a query while the device is free (single-query batches take
  /// the Q=1 fast path, bit-identical to direct one-query RunQueryBatch).
  uint64_t max_wait_ns = 1000000;
  /// Per-query latency SLO measured from arrival to modeled completion.
  /// Queries are still served past the deadline, but every miss is counted
  /// (globally and per tenant). 0 disables deadline accounting.
  uint64_t deadline_ns = 0;
  /// Bounded admission queue: a submission finding `queue_capacity` queries
  /// already pending is rejected with StatusCode::kCapacityExceeded — the
  /// explicit backpressure signal; nothing is ever silently dropped.
  size_t queue_capacity = 1024;
  /// Worker threads executing formed batches. In virtual-clock replay the
  /// batch SEQUENCE is always formed by one deterministic pass, so results,
  /// traffic counters and modeled pim_ns are bit-identical for any value.
  int scheduler_threads = 1;
  /// Neighbours returned per query.
  int k = 10;
  /// Device-batch width for the PIM operations of one dispatch (the only
  /// field read; num_threads is ignored — parallelism comes from
  /// scheduler_threads so the shared pool is never entered twice).
  ExecPolicy exec;
  /// Traffic classes. Empty = one implicit "default" tenant of weight 1.
  std::vector<TenantSpec> tenants;

  // --- Robustness / chaos knobs ---------------------------------------
  /// Seeded availability-fault schedule generated at Build over the fleet
  /// geometry and evaluated on the scheduler's clock (virtual in replay).
  /// Disabled by default — bit-identical to the pre-chaos server.
  ChaosConfig chaos;
  /// Per-dispatch failover-ladder budget: cumulative seeded backoff one
  /// dispatch may spend walking a shard's replicas before the op sheds
  /// off-device. 0 = unbounded (walk every replica).
  uint64_t batch_deadline_ns = 0;
  /// Degraded-mode watermark in [0, 1]: when any shard's healthy-replica
  /// fraction (per the chaos schedule, at the evaluation instant) drops
  /// below it, the scheduler switches exhausted shards to bound-slack
  /// fills and sheds lowest-weight-tenant load with CapacityExceeded. 0
  /// disables degraded mode.
  double degrade_watermark = 0.0;

  // --- Mutable-dataset knobs ------------------------------------------
  /// Compaction watermark in [0, 1]: when the attached mutable dataset's
  /// tombstone fraction reaches it, MaybeCompact() rewrites base+delta
  /// into a fresh dense base (charged at program cost on every device
  /// copy). 0 disables the trigger — compaction then only runs when the
  /// caller compacts the dataset explicitly.
  double compact_watermark = 0.0;

  // --- Telemetry plane (obs) knobs ------------------------------------
  // Neither can change results or traffic: the plane only observes the
  // accounting the scheduler already produces. The timeseries window, ring
  // and SLO budget and the event-log capacity are the TimeSeriesOptions
  // and EventLogOptions defaults.
  /// Hash-based per-query event-log sample rate in [0, 1]; 0 disables the
  /// event log. Sampling is a pure function of (event_seed, query id) —
  /// the same queries are kept for any thread/shard count.
  double event_sample_rate = 0.0;
  /// Salt of the event-log sampling hash.
  uint64_t event_seed = 0;

  size_t num_tenants() const {
    return tenants.empty() ? 1 : tenants.size();
  }

  Status Validate() const {
    if (max_batch == 0) {
      return Status::InvalidArgument("ServeOptions::max_batch must be >= 1");
    }
    if (queue_capacity == 0) {
      return Status::InvalidArgument(
          "ServeOptions::queue_capacity must be >= 1");
    }
    if (scheduler_threads < 1) {
      return Status::InvalidArgument(
          "ServeOptions::scheduler_threads must be >= 1");
    }
    if (k < 1) return Status::InvalidArgument("ServeOptions::k must be >= 1");
    PIMINE_RETURN_IF_ERROR(exec.CheckDeviceBatch());
    if (!(event_sample_rate >= 0.0) || event_sample_rate > 1.0) {
      return Status::InvalidArgument(
          "ServeOptions::event_sample_rate must be in [0, 1]");
    }
    for (const TenantSpec& t : tenants) {
      if (t.weight == 0) {
        return Status::InvalidArgument("tenant '" + t.name +
                                       "' must have weight >= 1");
      }
    }
    {
      const Status chaos_status = chaos.Validate();
      if (!chaos_status.ok()) return chaos_status;
    }
    if (!(degrade_watermark >= 0.0) || degrade_watermark > 1.0) {
      return Status::InvalidArgument(
          "ServeOptions::degrade_watermark must be in [0, 1]");
    }
    if (!(compact_watermark >= 0.0) || compact_watermark > 1.0) {
      return Status::InvalidArgument(
          "ServeOptions::compact_watermark must be in [0, 1]");
    }
    return Status::OK();
  }
};

}  // namespace serve
}  // namespace pimine

#endif  // PIMINE_SERVE_SERVE_OPTIONS_H_
