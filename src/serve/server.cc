#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <utility>

#include "common/logging.h"
#include "knn/standard_pim_knn.h"
#include "obs/obs.h"
#include "sim/traffic.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pimine {
namespace serve {
namespace {

/// One scheduler dispatch decided by the virtual-clock formation pass.
struct FormedBatch {
  uint64_t dispatch_ns = 0;
  uint64_t completion_ns = 0;
  double service_ns = 0.0;
  /// Some shard sat below the degrade watermark at dispatch_ns: the
  /// dispatch executes with bound-slack escalation.
  bool degraded = false;
  std::vector<PendingQuery> members;
  /// The ladder plan of every shard for every device_batch chunk,
  /// chunk-major (plans[chunk * shards + shard]); empty when chaos is off.
  std::vector<ShardedPimEngine::LadderPlan> plans;
};

uint64_t ToTicks(double ns) {
  return ns <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(ns));
}

std::vector<TenantServeStats> MakeTenantStats(const ServeOptions& options) {
  std::vector<TenantServeStats> tenants(options.num_tenants());
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].name =
        options.tenants.empty() ? "default" : options.tenants[t].name;
  }
  return tenants;
}

}  // namespace

/// A live-mode in-flight query: the copied payload plus the promise the
/// submitting client blocks on.
struct PimServer::LiveRequest {
  std::vector<float> query;
  uint32_t tenant = 0;
  uint64_t arrival_ns = 0;
  std::promise<ServedResult> promise;
};

Result<std::unique_ptr<PimServer>> PimServer::Build(
    const FloatMatrix& data, Distance distance, const EngineOptions& engine,
    const ServeOptions& serve) {
  PIMINE_RETURN_IF_ERROR(serve.Validate());
  if (serve.k > static_cast<int>(data.rows())) {
    return Status::InvalidArgument("ServeOptions::k exceeds the dataset size");
  }
  std::unique_ptr<PimServer> server(new PimServer());
  server->options_ = serve;
  server->data_ = &data;
  server->distance_ = distance;
  PIMINE_ASSIGN_OR_RETURN(server->engine_,
                          ShardedPimEngine::Build(data, distance, engine));
  if (serve.chaos.enabled()) {
    PIMINE_ASSIGN_OR_RETURN(
        server->chaos_,
        ChaosSchedule::Generate(
            serve.chaos, static_cast<uint32_t>(server->engine_->shards()),
            static_cast<uint32_t>(server->engine_->replicas())));
    server->engine_->set_chaos(&server->chaos_);
  }
  return server;
}

PimServer::~PimServer() { Stop(); }

// --------------------------------------------------------------------------
// Mutable datasets
// --------------------------------------------------------------------------

Status PimServer::AttachMutable(MutableDataset* dataset) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("AttachMutable requires a dataset");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (&dataset->corpus() != data_) {
    return Status::InvalidArgument(
        "the server must be Built over dataset->corpus() (the corpus is "
        "the matrix the server reads)");
  }
  if (dataset_ != nullptr) {
    return Status::FailedPrecondition("a mutable dataset is already attached");
  }
  dataset_ = dataset;
  dataset->Attach(this);
  return Status::OK();
}

Status PimServer::OnInsert(const FloatMatrix& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "mutations are refused while live serving runs; Stop() first");
  }
  return engine_->AppendRows(rows);
}

Status PimServer::OnDelete(std::span<const uint32_t> rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "mutations are refused while live serving runs; Stop() first");
  }
  // Every served query returns k neighbours, so the live corpus may never
  // shrink below k.
  if (engine_->live_objects() < rows.size() + static_cast<size_t>(options_.k)) {
    return Status::FailedPrecondition(
        "delete would leave fewer than k=" + std::to_string(options_.k) +
        " live rows");
  }
  for (const uint32_t row : rows) {
    PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  }
  return Status::OK();
}

Status PimServer::OnCompact(const std::vector<uint32_t>& live) {
  (void)live;  // the engine tracks its own tombstones.
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "mutations are refused while live serving runs; Stop() first");
  }
  return engine_->Compact();
}

bool PimServer::ShouldCompact() const {
  return options_.compact_watermark > 0.0 && dataset_ != nullptr &&
         dataset_->tombstoned_rows() > 0 &&
         dataset_->TombstoneFraction() >= options_.compact_watermark;
}

Status PimServer::MaybeCompact() {
  if (!ShouldCompact()) return Status::OK();
  // dataset_->Compact() notifies every listener, this server's OnCompact
  // included, so the fleet rewrite rides the normal mirroring path.
  PIMINE_RETURN_IF_ERROR(dataset_->Compact());
  std::lock_guard<std::mutex> lock(mu_);
  ++watermark_compactions_;
  return Status::OK();
}

uint64_t PimServer::watermark_compactions() const {
  return watermark_compactions_;
}

// --------------------------------------------------------------------------
// Shared dispatch execution
// --------------------------------------------------------------------------

void PimServer::RunDispatch(
    std::span<const float> qbuf, const std::vector<PendingQuery>& members,
    double device_ns_per_query, ShardedPimEngine::DispatchOptions dispatch,
    std::span<const ShardedPimEngine::LadderPlan> plans, DispatchScratch* s) {
  const size_t dims = data_->cols();
  const size_t batch_size = members.size();
  s->bounds.resize(data_->rows());
  s->neighbors.resize(batch_size);

  // One engine batch operation per device_batch chunk: max_batch bounds
  // the scheduler's coalescing, device_batch the per-operation GEMM width.
  const size_t device_batch = options_.exec.device_batch;
  const size_t shards = engine_->shards();
  for (size_t c0 = 0; c0 < batch_size; c0 += device_batch) {
    const size_t chunk = std::min(batch_size, c0 + device_batch) - c0;
    if (!plans.empty()) {
      dispatch.plans = plans.subspan(c0 / device_batch * shards, shards);
    }
    // Label engine spans with the first member's admission id, matching
    // the batched harness convention (base + in-batch index = query id).
    obs::ScopedTrackBase track_base(static_cast<int64_t>(members[c0].id));
    const Status status =
        engine_->RunQueryBatch(qbuf.subspan(c0 * dims, chunk * dims), chunk,
                               &s->query, &s->handle, dispatch);
    if (!status.ok()) {
      if (s->slot.status.ok()) s->slot.status = status;
      return;
    }
    for (size_t bq = 0; bq < chunk; ++bq) {
      obs::QuerySpan query_span(static_cast<int64_t>(members[c0 + bq].id),
                                &s->slot.latency, device_ns_per_query);
      s->neighbors[c0 + bq] = StandardPimQuery(
          *engine_, s->handle, bq, distance_, *data_,
          qbuf.subspan((c0 + bq) * dims, dims), options_.k, s->bounds,
          s->slot, /*profile=*/nullptr);
    }
  }
}

// --------------------------------------------------------------------------
// Virtual-clock replay
// --------------------------------------------------------------------------

Result<ReplayOutput> PimServer::Replay(const ArrivalTrace& trace,
                                       const FloatMatrix& queries) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return Status::FailedPrecondition(
          "Replay cannot run while live serving is started; Stop() first");
    }
  }
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  const size_t num_tenants = options_.num_tenants();
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const ArrivalEvent& e = trace.events[i];
    if (i > 0 && e.arrival_ns < trace.events[i - 1].arrival_ns) {
      return Status::InvalidArgument(
          "arrival trace not sorted at event " + std::to_string(i));
    }
    if (e.tenant >= num_tenants) {
      return Status::InvalidArgument("event " + std::to_string(i) +
                                     " names unknown tenant " +
                                     std::to_string(e.tenant));
    }
    if (e.query_row >= queries.rows()) {
      return Status::InvalidArgument("event " + std::to_string(i) +
                                     " query_row out of range");
    }
  }

  ReplayOutput out;
  out.results.resize(trace.events.size());
  out.stats.tenants = MakeTenantStats(options_);
  Timer wall;

  // Replay telemetry plane: clocked by the VIRTUAL clock and fed only
  // from the deterministic single-threaded accounting below, so the JSON
  // exports are byte-identical for every scheduler_threads/shards value.
  obs::TimeSeries replay_ts(TimeSeriesOptionsFromServe());
  obs::EventLog replay_events(EventLogOptionsFromServe());

  // ---- Phase 1: batch formation (single deterministic pass) -------------
  //
  // One virtual device timeline: vt_free is the instant the device finishes
  // its current dispatch. A pending set dispatches at max(DueAt, vt_free) —
  // arrivals keep accumulating while the device is busy, which is exactly
  // how continuous batching converts offered load into batch occupancy.
  AdmissionQueue queue(options_);
  std::vector<FormedBatch> batches;
  uint64_t vt_free = 0;
  const size_t device_batch = options_.exec.device_batch;
  std::vector<double> shard_extra(engine_->shards());
  engine_->ResetOnlineStats();
  engine_->ResetReplicaHealth();

  auto flush = [&](uint64_t horizon, uint64_t drain_floor) {
    while (!queue.empty()) {
      const uint64_t due =
          horizon == std::numeric_limits<uint64_t>::max()
              // Drain: no further arrivals can complete a batch, so
              // dispatch as soon as the device frees (Stop() semantics).
              ? std::max(drain_floor, queue.OldestArrivalNs())
              : queue.DueAtNs();
      const uint64_t dispatch = std::max(due, vt_free);
      if (dispatch >= horizon) break;
      FormedBatch b;
      b.dispatch_ns = dispatch;
      queue.FormBatch(&b.members);
      // Under chaos, plan every shard's replica ladder for every
      // device_batch chunk, in dispatch order. This single-threaded pass is
      // the only walker of the replica health during a replay, so the
      // plans and the strikes they record do not depend on
      // scheduler_threads, and the execution phase runs exactly these
      // plans. Shards run concurrently (max over shards); a shard's chunks
      // run back to back (sum over chunks). Without chaos no plan could
      // differ from the primary, so none is handed over.
      ShardedPimEngine::DispatchOptions dopt;
      dopt.now_ns = dispatch;
      dopt.deadline_ns = options_.batch_deadline_ns;
      std::fill(shard_extra.begin(), shard_extra.end(), 0.0);
      double service = 0.0;
      for (size_t c0 = 0; c0 < b.members.size(); c0 += device_batch) {
        const size_t chunk = std::min(b.members.size() - c0, device_batch);
        service += engine_->ModeledBatchNs(chunk);
        if (!chaos_.enabled()) continue;
        for (size_t j = 0; j < shard_extra.size(); ++j) {
          b.plans.push_back(engine_->PlanLadder(j, chunk, dopt));
          shard_extra[j] += b.plans.back().extra_ns;
        }
      }
      if (chaos_.enabled()) {
        b.degraded = DegradedShardAt(dispatch) >= 0;
        service += *std::max_element(shard_extra.begin(), shard_extra.end());
      }
      b.service_ns = service;
      b.completion_ns = dispatch + ToTicks(service);
      vt_free = b.completion_ns;
      batches.push_back(std::move(b));
    }
  };

  uint64_t last_arrival = 0;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const ArrivalEvent& e = trace.events[i];
    flush(e.arrival_ns, 0);
    last_arrival = e.arrival_ns;
    ServedResult& r = out.results[i];
    r.tenant = e.tenant;
    r.arrival_ns = e.arrival_ns;
    r.status = DegradedShed(e.tenant, e.arrival_ns,
                            out.stats.tenants[e.tenant].name);
    if (!r.status.ok()) {
      ++out.stats.shed_queries;
    } else {
      r.status = queue.Admit(i, e.tenant, e.arrival_ns);
    }
    ++out.stats.submitted;
    ++out.stats.tenants[e.tenant].submitted;
    if (!r.status.ok()) {
      ++out.stats.rejected;
      ++out.stats.tenants[e.tenant].rejected;
    } else {
      replay_ts.Observe("queue_depth", e.arrival_ns,
                        static_cast<double>(queue.pending()));
    }
  }
  flush(std::numeric_limits<uint64_t>::max(), last_arrival);
  PIMINE_DCHECK(queue.empty());

  // Per-request scheduling accounting, in formation order (deterministic).
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const FormedBatch& b = batches[bi];
    out.stats.occupancy_hist.Record(static_cast<double>(b.members.size()));
    replay_ts.Observe("batch_occupancy", b.dispatch_ns,
                      static_cast<double>(b.members.size()));
    out.stats.pipelined_ns += b.service_ns;
    if (b.degraded) {
      ++out.stats.degraded_batches;
      replay_ts.Count("degraded_batches", b.dispatch_ns);
    }
    // Recovery telemetry, still inside the deterministic pass: one record
    // per plan whose ladder fired (the plans the execution phase runs).
    // Chaos off -> no plans -> the exports stay byte-identical to the
    // pre-failover server.
    for (size_t p = 0; p < b.plans.size(); ++p) {
      const ShardedPimEngine::LadderPlan& plan = b.plans[p];
      const FailoverStats& f = plan.charges;
      if (f.injected == 0) continue;
      replay_ts.Count(f.shed != 0 ? "failover_shed" : "failover_recovered",
                      b.dispatch_ns);
      if (f.backoff_ns > 0) {
        replay_ts.Observe("failover_backoff_ns", b.dispatch_ns,
                          static_cast<double>(f.backoff_ns));
      }
      if (replay_events.enabled()) {
        obs::QueryEvent ev;
        ev.kind = obs::QueryEvent::Kind::kFailover;
        ev.batch_id = bi;
        ev.dispatch_ns = b.dispatch_ns;
        ev.shard = static_cast<int32_t>(p % engine_->shards());
        ev.replica = plan.serving_replica;
        ev.failed_attempts = static_cast<int32_t>(f.attempts_failed);
        ev.shed = f.shed != 0;
        ev.backoff_ns = f.backoff_ns;
        ev.status = ev.shed ? "SHED" : "RECOVERED";
        replay_events.AppendAlways(ev);
      }
    }
    for (const PendingQuery& m : b.members) {
      ServedResult& r = out.results[m.id];
      r.dispatch_ns = b.dispatch_ns;
      r.completion_ns = b.completion_ns;
      r.batch_id = bi;
      const uint64_t wait = b.dispatch_ns - m.arrival_ns;
      const uint64_t latency = b.completion_ns - m.arrival_ns;
      r.deadline_missed =
          options_.deadline_ns > 0 && latency > options_.deadline_ns;
      ++out.stats.served;
      out.stats.wait_hist.Record(static_cast<double>(wait));
      out.stats.latency_hist.Record(static_cast<double>(latency));
      TenantServeStats& ts = out.stats.tenants[m.tenant];
      ++ts.served;
      ts.latency.Record(static_cast<double>(latency));
      if (r.deadline_missed) {
        ++out.stats.deadline_misses;
        ++ts.deadline_misses;
      }
    }
  }
  // One telemetry record per trace event, in trace order (still the
  // deterministic pass — thread- and shard-independent by construction).
  for (size_t i = 0; i < out.results.size(); ++i) {
    RecordQueryTelemetry(out.results[i], i, &replay_ts, &replay_events);
  }
  out.timeseries_json = replay_ts.ToJson();
  out.events_jsonl = replay_events.ToJsonl();

  out.stats.batches = batches.size();
  out.stats.max_queue_depth = queue.max_depth();
  out.stats.makespan_ns = batches.empty() ? 0 : batches.back().completion_ns;
  out.stats.mean_batch_occupancy =
      batches.empty() ? 0.0
                      : static_cast<double>(out.stats.served) /
                            static_cast<double>(batches.size());

  // ---- Phase 2: execution of the formed batch sequence ------------------
  //
  // The sequence is fixed; workers claim whole dispatches (chunk = 1).
  // Everything a worker accumulates is slot-local and merged in slot
  // order, and the per-dispatch work depends only on the dispatch itself —
  // so results, traffic and modeled pim_ns are bit-identical for every
  // scheduler_threads (see DESIGN.md "Host-side parallelism").
  traffic::AggregateScope traffic_scope;
  const double device_ns_per_query =
      obs::Obs::Enabled() ? engine_->SerialDeviceNsPerQuery() : 0.0;
  const size_t dims = data_->cols();

  ExecPolicy exec_policy;
  exec_policy.num_threads = options_.scheduler_threads;
  const size_t num_slots = NumSlots(exec_policy, batches.size(), 1);
  std::vector<DispatchScratch> scratch(num_slots);

  ParallelChunks(
      exec_policy, batches.size(), 1,
      [&](size_t begin, size_t end, size_t slot) {
        DispatchScratch& s = scratch[slot];
        for (size_t bi = begin; bi < end && s.slot.status.ok(); ++bi) {
          const FormedBatch& b = batches[bi];
          s.qbuf.resize(b.members.size() * dims);
          for (size_t m = 0; m < b.members.size(); ++m) {
            const std::span<const float> row =
                queries.row(trace.events[b.members[m].id].query_row);
            std::copy(row.begin(), row.end(), s.qbuf.begin() + m * dims);
          }
          ShardedPimEngine::DispatchOptions dopt;
          dopt.now_ns = b.dispatch_ns;
          dopt.slack_on_exhaustion = b.degraded;
          dopt.deadline_ns = options_.batch_deadline_ns;
          RunDispatch(s.qbuf, b.members, device_ns_per_query, dopt, b.plans,
                      &s);
          if (!s.slot.status.ok()) break;
          for (size_t m = 0; m < b.members.size(); ++m) {
            out.results[b.members[m].id].neighbors =
                std::move(s.neighbors[m]);
          }
        }
      });

  for (DispatchScratch& s : scratch) {
    PIMINE_RETURN_IF_ERROR(s.slot.status);
    out.stats.exec.exact_count += s.slot.exact_count;
    out.stats.exec.bound_count += s.slot.bound_count;
    out.stats.exec.latency_hist.Merge(s.slot.latency);
  }
  out.stats.exec.wall_ms = wall.ElapsedMillis();
  out.stats.exec.traffic = traffic_scope.Delta();
  out.stats.exec.pim_ns = engine_->PimComputeNs();
  out.stats.exec.fault = engine_->FaultStatsTotal();
  out.stats.exec.fleet = engine_->FleetStats();
  out.stats.exec.footprint_bytes =
      data_->rows() * sizeof(double) * 2 +
      (out.stats.served == 0
           ? 0
           : (out.stats.exec.exact_count / out.stats.served) * dims *
                 sizeof(float));
  ExportObsMetrics(out.stats);
  return out;
}

// --------------------------------------------------------------------------
// Live mode
// --------------------------------------------------------------------------

uint64_t PimServer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

Status PimServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::FailedPrecondition("server already started");
  running_ = true;
  stop_ = false;
  next_id_ = 0;
  queue_ = std::make_unique<AdmissionQueue>(options_);
  live_stats_ = ServeStats{};
  live_stats_.tenants = MakeTenantStats(options_);
  live_device_ns_per_query_ =
      obs::Obs::Enabled() ? engine_->SerialDeviceNsPerQuery() : 0.0;
  start_time_ = std::chrono::steady_clock::now();
  live_ts_ = std::make_unique<obs::TimeSeries>(TimeSeriesOptionsFromServe());
  live_events_ =
      std::make_unique<obs::EventLog>(EventLogOptionsFromServe());
  engine_->ResetOnlineStats();
  engine_->ResetReplicaHealth();
  worker_scratch_.clear();
  workers_.clear();
  for (int w = 0; w < options_.scheduler_threads; ++w) {
    worker_scratch_.push_back(std::make_unique<DispatchScratch>());
  }
  for (int w = 0; w < options_.scheduler_threads; ++w) {
    workers_.emplace_back(&PimServer::WorkerLoop, this,
                          static_cast<size_t>(w));
  }
  return Status::OK();
}

Result<ServedResult> PimServer::Submit(uint32_t tenant,
                                       std::span<const float> query) {
  if (query.size() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (tenant >= options_.num_tenants()) {
    return Status::InvalidArgument("unknown tenant " + std::to_string(tenant));
  }
  std::future<ServedResult> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_ || stop_) {
      return Status::FailedPrecondition("server not started");
    }
    const uint64_t arrival = NowNs();
    const uint64_t id = next_id_;
    ++live_stats_.submitted;
    ++live_stats_.tenants[tenant].submitted;
    // Degraded-mode load shedding (same rule as replay, on the live
    // clock).
    Status admitted =
        DegradedShed(tenant, arrival, live_stats_.tenants[tenant].name);
    if (!admitted.ok()) {
      ++live_stats_.shed_queries;
    } else {
      admitted = queue_->Admit(id, tenant, arrival);
    }
    if (!admitted.ok()) {
      // Backpressure: the client learns immediately; nothing is dropped
      // downstream.
      ++live_stats_.rejected;
      ++live_stats_.tenants[tenant].rejected;
      ServedResult rejected;
      rejected.status = admitted;
      rejected.tenant = tenant;
      rejected.arrival_ns = arrival;
      RecordQueryTelemetry(rejected, id, live_ts_.get(),
                           live_events_.get());
      return admitted;
    }
    live_ts_->Observe("queue_depth", arrival,
                      static_cast<double>(queue_->pending()));
    ++next_id_;
    auto request = std::make_unique<LiveRequest>();
    request->query.assign(query.begin(), query.end());
    request->tenant = tenant;
    request->arrival_ns = arrival;
    future = request->promise.get_future();
    live_requests_[id] = std::move(request);
  }
  cv_.notify_all();
  ServedResult result = future.get();
  if (!result.status.ok()) return result.status;
  return result;
}

void PimServer::WorkerLoop(size_t worker_index) {
  DispatchScratch& scratch = *worker_scratch_[worker_index];
  std::vector<PendingQuery> members;
  std::vector<std::unique_ptr<LiveRequest>> requests;
  const size_t dims = data_->cols();

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_->empty(); });
    if (queue_->empty()) {
      if (stop_) return;
      continue;
    }
    // Continuous batching: dispatch once a full batch is pending or the
    // oldest query has waited max_wait_ns; otherwise sleep until that
    // deadline (new arrivals re-evaluate via notify). Stop() dispatches
    // whatever is pending immediately (the drain).
    const uint64_t now = NowNs();
    const uint64_t due = queue_->DueAtNs();
    if (!stop_ && now < due && queue_->pending() < options_.max_batch) {
      cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    const uint64_t dispatch_ns = std::max(now, queue_->OldestArrivalNs());
    queue_->FormBatch(&members);
    requests.clear();
    for (const PendingQuery& m : members) {
      auto it = live_requests_.find(m.id);
      PIMINE_DCHECK(it != live_requests_.end());
      requests.push_back(std::move(it->second));
      live_requests_.erase(it);
    }
    lock.unlock();

    scratch.qbuf.resize(members.size() * dims);
    for (size_t m = 0; m < members.size(); ++m) {
      std::copy(requests[m]->query.begin(), requests[m]->query.end(),
                scratch.qbuf.begin() + m * dims);
    }
    ShardedPimEngine::DispatchOptions dopt;
    dopt.now_ns = dispatch_ns;
    dopt.slack_on_exhaustion = DegradedShardAt(dispatch_ns) >= 0;
    dopt.deadline_ns = options_.batch_deadline_ns;
    RunDispatch(scratch.qbuf, members, live_device_ns_per_query_, dopt, {},
                &scratch);
    const uint64_t completion_ns = NowNs();

    lock.lock();
    ++live_stats_.batches;
    if (dopt.slack_on_exhaustion) ++live_stats_.degraded_batches;
    live_stats_.occupancy_hist.Record(static_cast<double>(members.size()));
    live_ts_->Observe("batch_occupancy", dispatch_ns,
                      static_cast<double>(members.size()));
    for (size_t m = 0; m < members.size(); ++m) {
      ServedResult r;
      r.status = scratch.slot.status;
      r.tenant = members[m].tenant;
      r.arrival_ns = members[m].arrival_ns;
      r.dispatch_ns = dispatch_ns;
      r.completion_ns = completion_ns;
      r.batch_id = live_stats_.batches - 1;
      if (r.status.ok()) {
        r.neighbors = std::move(scratch.neighbors[m]);
        const uint64_t latency = completion_ns - r.arrival_ns;
        r.deadline_missed =
            options_.deadline_ns > 0 && latency > options_.deadline_ns;
        ++live_stats_.served;
        live_stats_.wait_hist.Record(
            static_cast<double>(dispatch_ns - r.arrival_ns));
        live_stats_.latency_hist.Record(static_cast<double>(latency));
        TenantServeStats& ts = live_stats_.tenants[r.tenant];
        ++ts.served;
        ts.latency.Record(static_cast<double>(latency));
        if (r.deadline_missed) {
          ++live_stats_.deadline_misses;
          ++ts.deadline_misses;
        }
      }
      RecordQueryTelemetry(r, members[m].id, live_ts_.get(),
                           live_events_.get());
      requests[m]->promise.set_value(std::move(r));
    }
    scratch.slot.status = Status::OK();
    requests.clear();
  }
}

void PimServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  // Workers drain the queue before exiting, so nothing should be pending;
  // fail any straggler promise rather than leaving a client blocked.
  for (auto& [id, request] : live_requests_) {
    ServedResult r;
    r.status = Status::FailedPrecondition("server stopped");
    request->promise.set_value(std::move(r));
  }
  live_requests_.clear();
}

ServeStats PimServer::LiveStats() {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats stats = live_stats_;
  stats.watermark_compactions = watermark_compactions_;
  if (queue_ != nullptr) stats.max_queue_depth = queue_->max_depth();
  stats.mean_batch_occupancy =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(stats.served) /
                               static_cast<double>(stats.batches);
  stats.makespan_ns = NowNs();
  for (const std::unique_ptr<DispatchScratch>& s : worker_scratch_) {
    stats.exec.exact_count += s->slot.exact_count;
    stats.exec.bound_count += s->slot.bound_count;
    stats.exec.latency_hist.Merge(s->slot.latency);
  }
  stats.exec.pim_ns = engine_->PimComputeNs();
  stats.pipelined_ns = engine_->PimPipelinedNs();
  stats.exec.fault = engine_->FaultStatsTotal();
  stats.exec.fleet = engine_->FleetStats();
  return stats;
}

void PimServer::FillServeMetrics(const ServeStats& stats,
                                 obs::MetricsRegistry* registry) const {
  obs::MetricsRegistry& metrics = *registry;
  metrics.SetHelp("pimine_serve_submitted_total",
                  "Queries submitted to the admission queue.");
  metrics.SetHelp("pimine_serve_served_total",
                  "Queries served to completion.");
  metrics.SetHelp("pimine_serve_rejected_total",
                  "Queries rejected by admission-queue backpressure.");
  metrics.SetHelp("pimine_serve_deadline_misses_total",
                  "Served queries whose latency exceeded deadline_ns.");
  metrics.SetHelp("pimine_serve_batches_total",
                  "Scheduler dispatches issued.");
  metrics.SetHelp("pimine_serve_max_queue_depth",
                  "High-water mark of the admission queue depth.");
  metrics.SetHelp("pimine_serve_mean_batch_occupancy",
                  "served / batches of the run so far.");
  metrics.SetHelp("pimine_serve_wait_ns",
                  "Arrival-to-dispatch wait per served query.");
  metrics.SetHelp("pimine_serve_latency_ns",
                  "Arrival-to-completion latency per served query.");
  metrics.SetHelp("pimine_serve_batch_occupancy",
                  "Queries coalesced per scheduler dispatch.");
  metrics.SetHelp("pimine_serve_shed_queries_total",
                  "Submissions refused by degraded-mode load shedding.");
  metrics.SetHelp("pimine_serve_degraded_batches_total",
                  "Dispatches formed while a shard sat below the degrade "
                  "watermark.");
  metrics.SetHelp("pimine_serve_watermark_compactions_total",
                  "Compactions fired by the tombstone watermark.");
  metrics.GetCounter("pimine_serve_watermark_compactions_total")
      .Add(stats.watermark_compactions);
  metrics.GetCounter("pimine_serve_submitted_total").Add(stats.submitted);
  metrics.GetCounter("pimine_serve_served_total").Add(stats.served);
  metrics.GetCounter("pimine_serve_rejected_total").Add(stats.rejected);
  metrics.GetCounter("pimine_serve_shed_queries_total")
      .Add(stats.shed_queries);
  metrics.GetCounter("pimine_serve_degraded_batches_total")
      .Add(stats.degraded_batches);
  metrics.GetCounter("pimine_serve_deadline_misses_total")
      .Add(stats.deadline_misses);
  metrics.GetCounter("pimine_serve_batches_total").Add(stats.batches);
  metrics.GetGauge("pimine_serve_max_queue_depth")
      .Set(static_cast<double>(stats.max_queue_depth));
  metrics.GetGauge("pimine_serve_mean_batch_occupancy")
      .Set(stats.mean_batch_occupancy);
  metrics.MergeHistogram("pimine_serve_wait_ns", stats.wait_hist);
  metrics.MergeHistogram("pimine_serve_latency_ns", stats.latency_hist);
  metrics.MergeHistogram("pimine_serve_batch_occupancy",
                         stats.occupancy_hist);
  metrics.SetHelp("pimine_serve_tenant_served_total",
                  "Queries served, by tenant.");
  metrics.SetHelp("pimine_serve_tenant_rejected_total",
                  "Queries rejected, by tenant.");
  metrics.SetHelp("pimine_serve_tenant_deadline_misses_total",
                  "Deadline misses, by tenant.");
  for (const TenantServeStats& t : stats.tenants) {
    const obs::MetricLabels labels = {{"tenant", t.name}};
    metrics.GetCounter("pimine_serve_tenant_served_total", labels)
        .Add(t.served);
    metrics.GetCounter("pimine_serve_tenant_rejected_total", labels)
        .Add(t.rejected);
    metrics.GetCounter("pimine_serve_tenant_deadline_misses_total", labels)
        .Add(t.deadline_misses);
  }
}

void PimServer::ExportObsMetrics(const ServeStats& stats) const {
  obs::Obs* obs = obs::Obs::Get();
  if (obs == nullptr) return;
  FillServeMetrics(stats, &obs->metrics());
  // The fleet plane too (pimine_fleet_* / pimine_failover_* families), so
  // a replay's --metrics_out carries the same shard-health and failover
  // counters the live /metrics endpoint exposes.
  engine_->ExportMetrics(&obs->metrics());
}

obs::TimeSeriesOptions PimServer::TimeSeriesOptionsFromServe() const {
  obs::TimeSeriesOptions ts;
  ts.window_ns = options_.ts_window_ns;
  ts.num_windows = options_.ts_windows;
  ts.slo_budget = options_.slo_budget;
  return ts;
}

obs::EventLogOptions PimServer::EventLogOptionsFromServe() const {
  obs::EventLogOptions ev;
  ev.sample_rate = options_.event_sample_rate;
  ev.seed = options_.event_seed;
  ev.capacity = options_.event_capacity;
  return ev;
}

void PimServer::RecordQueryTelemetry(const ServedResult& r, uint64_t query_id,
                                     obs::TimeSeries* ts,
                                     obs::EventLog* events) const {
  ts->SetSlo("deadline_missed", "served");
  ts->Count("submitted", r.arrival_ns);
  obs::QueryEvent event;
  event.query_id = query_id;
  event.tenant = r.tenant;
  event.arrival_ns = r.arrival_ns;
  event.status = std::string(StatusCodeToString(r.status.code()));
  if (!r.status.ok()) {
    // Rejected (or failed) submissions never dispatched: only arrival-side
    // series move.
    ts->Count("rejected", r.arrival_ns);
    if (events->enabled()) events->Append(event);
    return;
  }
  ts->Count("served", r.completion_ns);
  if (r.deadline_missed) ts->Count("deadline_missed", r.completion_ns);
  ts->Observe("wait_ns", r.dispatch_ns,
              static_cast<double>(r.dispatch_ns - r.arrival_ns));
  ts->Observe("latency_ns", r.completion_ns,
              static_cast<double>(r.completion_ns - r.arrival_ns));
  if (events->enabled()) {
    event.dispatch_ns = r.dispatch_ns;
    event.completion_ns = r.completion_ns;
    event.batch_id = r.batch_id;
    event.deadline_missed = r.deadline_missed;
    events->Append(event);
  }
}

int PimServer::DegradedShardAt(uint64_t t) const {
  if (!chaos_.enabled() || options_.degrade_watermark <= 0.0) return -1;
  const double replicas = static_cast<double>(engine_->replicas());
  for (size_t j = 0; j < engine_->shards(); ++j) {
    const double healthy = static_cast<double>(
        chaos_.HealthyReplicas(static_cast<uint32_t>(j), t));
    if (healthy / replicas < options_.degrade_watermark) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

Status PimServer::DegradedShed(uint32_t tenant, uint64_t t,
                               const std::string& tenant_name) const {
  const int shard = DegradedShardAt(t);
  if (shard < 0 || TenantWeight(tenant) != MinTenantWeight()) {
    return Status::OK();
  }
  return Status::CapacityExceeded(
      "degraded: shard " + std::to_string(shard) + " has " +
      std::to_string(
          chaos_.HealthyReplicas(static_cast<uint32_t>(shard), t)) +
      "/" + std::to_string(engine_->replicas()) +
      " healthy replicas (below watermark); shedding tenant '" +
      tenant_name + "'");
}

uint32_t PimServer::TenantWeight(uint32_t tenant) const {
  return options_.tenants.empty() ? 1 : options_.tenants[tenant].weight;
}

uint32_t PimServer::MinTenantWeight() const {
  uint32_t min_weight = std::numeric_limits<uint32_t>::max();
  for (size_t t = 0; t < options_.num_tenants(); ++t) {
    min_weight = std::min(min_weight, TenantWeight(static_cast<uint32_t>(t)));
  }
  return min_weight;
}

std::string PimServer::HealthzBody() const {
  if (engine_->DegradedShards() == 0) return "ok\n";
  // Still a healthy-liveness body (HTTP 200); "degraded" distinguishes a
  // fleet serving off-primary or in bound-slack mode.
  std::string body = "ok degraded\n";
  for (size_t j = 0; j < engine_->shards(); ++j) {
    if (!engine_->shard_degraded(j)) continue;
    size_t replicas_out = 0;
    for (int r = 0; r < engine_->replicas(); ++r) {
      if (engine_->replica_out(j, static_cast<size_t>(r))) ++replicas_out;
    }
    body += "shard " + std::to_string(j) + ": serving_replica=" +
            std::to_string(engine_->serving_replica(j)) +
            " slack=" + (engine_->shard_slack_mode(j) ? "1" : "0") +
            " replicas_out=" + std::to_string(replicas_out) + "\n";
  }
  return body;
}

std::string PimServer::MetricsText() {
  // A FRESH registry per scrape: counters carry absolute run totals, so
  // repeated scrapes are idempotent snapshots (the global obs registry, by
  // contrast, accumulates across runs).
  obs::MetricsRegistry registry;
  const ServeStats stats = LiveStats();
  FillServeMetrics(stats, &registry);
  {
    // Mutations hold mu_, so a scrape never reads the fleet mid-mutation.
    std::lock_guard<std::mutex> lock(mu_);
    engine_->ExportMetrics(&registry);
  }
  return registry.ToPrometheus();
}

std::string PimServer::TimeSeriesJson() {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_ts_ == nullptr) {
    return obs::TimeSeries(TimeSeriesOptionsFromServe()).ToJson();
  }
  return live_ts_->ToJson();
}

std::string PimServer::EventsJsonl() {
  std::lock_guard<std::mutex> lock(mu_);
  return live_events_ == nullptr ? std::string() : live_events_->ToJsonl();
}

}  // namespace serve
}  // namespace pimine
