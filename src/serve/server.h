#ifndef PIMINE_SERVE_SERVER_H_
#define PIMINE_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/mutable_dataset.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "profiling/run_stats.h"
#include "serve/admission_queue.h"
#include "serve/serve_options.h"
#include "serve/workload.h"
#include "util/top_k.h"

namespace pimine {
namespace serve {

/// Outcome of one submitted query. `status` is OK for served queries and
/// kCapacityExceeded for queries the bounded admission queue rejected
/// (rejections carry no neighbours and zero dispatch/completion times).
struct ServedResult {
  Status status;
  uint32_t tenant = 0;
  uint64_t arrival_ns = 0;
  /// Instant the scheduler dispatched the query's batch (virtual time in
  /// replay, steady-clock ns since Start in live mode).
  uint64_t dispatch_ns = 0;
  uint64_t completion_ns = 0;
  /// Dense id of the dispatch this query rode in (replay only).
  uint64_t batch_id = 0;
  /// completion - arrival exceeded ServeOptions::deadline_ns (when set).
  bool deadline_missed = false;
  std::vector<Neighbor> neighbors;
};

/// Per-tenant serving accounting.
struct TenantServeStats {
  std::string name;
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t rejected = 0;
  uint64_t deadline_misses = 0;
  /// Arrival-to-completion latency SLO histogram (exact integer buckets).
  obs::Histogram latency;
};

/// Everything one serving run reports: scheduler-level accounting (queue,
/// batching, SLOs, fairness) plus the execution accounting of the
/// underlying engine in `exec` (traffic, modeled pim_ns, exact/bound
/// counts — the fields the determinism tests pin across thread counts).
struct ServeStats {
  uint64_t submitted = 0;
  uint64_t served = 0;
  uint64_t rejected = 0;
  uint64_t deadline_misses = 0;
  /// Rejections issued by degraded-mode load shedding (a subset of
  /// `rejected`): lowest-weight-tenant submissions refused with
  /// CapacityExceeded while a shard sat below the degrade watermark.
  uint64_t shed_queries = 0;
  /// Dispatches formed while some shard sat below the degrade watermark
  /// (executed with bound-slack escalation instead of host-exact).
  uint64_t degraded_batches = 0;
  /// Compactions fired by the tombstone watermark (MaybeCompact).
  uint64_t watermark_compactions = 0;
  /// Scheduler dispatches issued (each one RunQueryBatch coalescing up to
  /// max_batch queries).
  uint64_t batches = 0;
  /// High-water mark of the admission queue depth.
  uint64_t max_queue_depth = 0;
  /// Completion instant of the last dispatch: the virtual-clock makespan
  /// of the replayed trace (offered work is served in makespan_ns of
  /// modeled device time, so throughput = served / makespan).
  uint64_t makespan_ns = 0;
  /// served / batches — the continuous-batching figure of merit: how much
  /// Q-pipelining the offered load actually sustained.
  double mean_batch_occupancy = 0.0;
  /// Modeled device-occupancy total, summed over dispatches in formation
  /// order (deterministic, unlike the engine's interleaving-dependent
  /// float accumulation).
  double pipelined_ns = 0.0;
  obs::Histogram wait_hist;       // arrival -> dispatch, per served query.
  obs::Histogram latency_hist;    // arrival -> completion, per served query.
  obs::Histogram occupancy_hist;  // queries per dispatch.
  std::vector<TenantServeStats> tenants;
  /// Engine-level run accounting (traffic, pim_ns, exact/bound counts,
  /// fault + fleet stats, per-query modeled latency under obs).
  RunStats exec;
};

/// Result of replaying a recorded arrival trace: one ServedResult per
/// trace event (index-aligned) plus the run's serving stats.
struct ReplayOutput {
  std::vector<ServedResult> results;
  ServeStats stats;
  /// Rolling-window telemetry of the replayed run, clocked by the VIRTUAL
  /// clock and fed from the deterministic accounting pass — byte-identical
  /// across scheduler_threads and shard counts (TimeSeries::ToJson()).
  std::string timeseries_json;
  /// Sampled per-query JSONL events (ServeOptions::event_sample_rate);
  /// empty when sampling is disabled. Same determinism contract.
  std::string events_jsonl;
};

/// Online serving front-end over a (sharded) PIM engine: clients submit
/// single queries; a continuous-batching scheduler coalesces whatever is
/// pending — across tenants, by weighted fairness — into device batches so
/// the crossbar pipeline (BatchDotLatencyNs = stage_ns * (stages + Q - 1))
/// runs at high occupancy even though no client ever batches.
///
/// Two clocks drive the same scheduler:
///
///  * Replay(trace): a VIRTUAL clock. Batch formation is one deterministic
///    single-threaded pass over the recorded arrivals — dispatch instant =
///    max(batch due time, virtual device free time), service time = the
///    modeled batch latency — so batch composition, every serving stat and
///    every result is a pure function of (trace, options). The formed
///    batch sequence is then EXECUTED across scheduler_threads workers;
///    results, traffic counters and modeled pim_ns are bit-identical for
///    every thread count (the determinism contract of DESIGN.md carried
///    into the serving layer).
///
///  * Start/Submit/Stop: the real steady clock, for live concurrent
///    clients. Same admission queue, same batching rules; timings are
///    wall-clock and therefore not reproducible — use replay for science,
///    live mode for serving.
class PimServer : public MutationListener {
 public:
  /// Builds the engine fleet over `data` and validates `serve`. The data
  /// matrix must outlive the server. ServeOptions::exec.num_threads is
  /// ignored (parallelism comes from scheduler_threads).
  static Result<std::unique_ptr<PimServer>> Build(const FloatMatrix& data,
                                                  Distance distance,
                                                  const EngineOptions& engine,
                                                  const ServeOptions& serve);

  ~PimServer();

  /// Replays `trace` against the virtual clock. Event query rows index
  /// `queries` (same dimensionality as the data). Deterministic: identical
  /// (trace, options, data, queries) produce bit-identical output for any
  /// scheduler_threads. Not concurrent with live mode.
  Result<ReplayOutput> Replay(const ArrivalTrace& trace,
                              const FloatMatrix& queries);

  // --- Live mode ------------------------------------------------------

  /// Starts scheduler_threads worker threads. Fails if already running.
  Status Start();

  /// Submits one query and blocks until it is served (or rejected with
  /// CapacityExceeded by queue backpressure — the complete result arrives
  /// either way; nothing is silently dropped). Thread-safe; any number of
  /// client threads may submit concurrently.
  Result<ServedResult> Submit(uint32_t tenant, std::span<const float> query);

  /// Drains every pending query, stops the workers, joins them. Idempotent.
  void Stop();

  /// Snapshot of the live-mode serving stats (engine-level `exec` fields
  /// are filled from the engine at snapshot time). Call after Stop, or
  /// accept a racy-but-consistent mid-run view.
  ServeStats LiveStats();

  // --- Mutable datasets ------------------------------------------------

  /// Registers the server on `dataset` so corpus mutations mirror onto the
  /// serving fleet (delta programming / tombstones / compaction). The
  /// server must have been Built over `dataset->corpus()` — the corpus IS
  /// the matrix the server reads — and the dataset must outlive the
  /// server's use. Mutations are refused while live serving is running
  /// (Stop() first); callers serialize mutations against Replay.
  Status AttachMutable(MutableDataset* dataset);

  /// Mutation mirroring (normally invoked by the attached dataset).
  /// Deletes that would leave fewer than ServeOptions::k live rows are
  /// refused with FailedPrecondition — every served query must still find
  /// k live neighbours.
  Status OnInsert(const FloatMatrix& rows) override;
  Status OnDelete(std::span<const uint32_t> rows) override;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  /// True when an attached dataset's tombstone fraction has reached
  /// ServeOptions::compact_watermark (> 0).
  bool ShouldCompact() const;

  /// Compacts the attached dataset (notifying every listener, this server
  /// included) when ShouldCompact(); counts the trigger. Call between
  /// top-level mutations — never from inside a listener callback.
  Status MaybeCompact();

  /// Watermark-triggered compactions MaybeCompact has fired.
  uint64_t watermark_compactions() const;

  // --- Telemetry plane -------------------------------------------------

  /// Prometheus text exposition of the current serving state: the
  /// pimine_serve_* scheduler families (from LiveStats) plus the
  /// per-shard pimine_fleet_shard_*{shard="j"} fleet families. Built into
  /// a FRESH registry per call — scrapes are idempotent snapshots, never
  /// cumulative re-adds. Safe while serving (the /metrics handler's path).
  std::string MetricsText();

  /// Live rolling-window telemetry (steady clock). Empty-document (but
  /// valid) before Start.
  std::string TimeSeriesJson();

  /// Live sampled per-query events as JSONL ("" when sampling is off).
  std::string EventsJsonl();

  /// /healthz body: "ok\n" when every shard serves from its primary
  /// replica in exact mode; "ok degraded\n" plus one line per degraded
  /// shard otherwise. Always an HTTP-200 body — degradation is reported,
  /// not a liveness failure.
  std::string HealthzBody() const;

  const ShardedPimEngine& engine() const { return *engine_; }
  const ServeOptions& options() const { return options_; }
  const ChaosSchedule& chaos() const { return chaos_; }

 private:
  /// Per-worker dispatch scratch, reused across every dispatch the worker
  /// executes: engine query scratch + batch handle (zero-allocation
  /// steady state), gathered query buffer, bound array, and the worker's
  /// share of the accumulated stats in `slot` (merged in slot order; its
  /// profiler stays empty, serving is untimed).
  struct DispatchScratch {
    ShardedPimEngine::QueryScratch query;
    ShardedPimEngine::QueryHandleBatch handle;
    std::vector<float> qbuf;
    std::vector<double> bounds;
    std::vector<std::vector<Neighbor>> neighbors;
    SearchSlot slot;
  };

  struct LiveRequest;

  PimServer() = default;

  /// Executes one formed dispatch: one engine RunQueryBatch per
  /// device_batch chunk, then StandardPimQuery per query — the per-query
  /// step StandardPimKnn::Search runs, so a served query's neighbours,
  /// traffic and modeled stats are those of the offline path. Fills
  /// s->neighbors[0..members); each member's admission id labels its
  /// per-query trace span.
  void RunDispatch(std::span<const float> qbuf,
                   const std::vector<PendingQuery>& members,
                   double device_ns_per_query,
                   const ShardedPimEngine::DispatchOptions& dispatch,
                   DispatchScratch* s);

  /// The shard (lowest index) whose healthy-replica fraction per the chaos
  /// schedule sits below degrade_watermark at instant `t`; -1 when none.
  /// Pure in (schedule, options, t) — safe for the virtual-clock pass.
  int DegradedShardAt(uint64_t t) const;
  uint32_t TenantWeight(uint32_t tenant) const;
  uint32_t MinTenantWeight() const;

  void WorkerLoop(size_t worker_index);
  uint64_t NowNs() const;
  void ExportObsMetrics(const ServeStats& stats) const;
  /// Writes the pimine_serve_* families for `stats` into `registry`
  /// (shared by the global-obs export and the fresh-registry /metrics
  /// snapshot path).
  void FillServeMetrics(const ServeStats& stats,
                        obs::MetricsRegistry* registry) const;
  obs::TimeSeriesOptions TimeSeriesOptionsFromServe() const;
  obs::EventLogOptions EventLogOptionsFromServe() const;
  /// Feeds one served/rejected query into a timeseries + event log — the
  /// single recording path shared by the replay accounting pass and the
  /// live scheduler (so both planes carry the same series names).
  void RecordQueryTelemetry(const ServedResult& r, uint64_t query_id,
                            obs::TimeSeries* ts, obs::EventLog* events) const;

  ServeOptions options_;
  const FloatMatrix* data_ = nullptr;
  /// Attached mutable dataset (not owned); nullptr until AttachMutable.
  MutableDataset* dataset_ = nullptr;
  /// Watermark-triggered compactions (guarded by mu_).
  uint64_t watermark_compactions_ = 0;
  Distance distance_ = Distance::kEuclidean;
  std::unique_ptr<ShardedPimEngine> engine_;
  /// Seeded availability-fault schedule generated at Build from
  /// ServeOptions::chaos over the fleet geometry; installed into the
  /// engine when enabled. Empty (and uninstalled) when chaos is off.
  ChaosSchedule chaos_;

  // --- Live-mode state (all guarded by mu_ except the workers' own
  // scratch; batch execution runs outside the lock) ---------------------
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  uint64_t next_id_ = 0;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unordered_map<uint64_t, std::unique_ptr<LiveRequest>> live_requests_;
  ServeStats live_stats_;
  double live_device_ns_per_query_ = 0.0;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<DispatchScratch>> worker_scratch_;
  std::chrono::steady_clock::time_point start_time_;
  // Live telemetry plane (created by Start; both are internally
  // synchronized, so the exposition server snapshots them lock-free with
  // respect to mu_).
  std::unique_ptr<obs::TimeSeries> live_ts_;
  std::unique_ptr<obs::EventLog> live_events_;
};

}  // namespace serve
}  // namespace pimine

#endif  // PIMINE_SERVE_SERVER_H_
