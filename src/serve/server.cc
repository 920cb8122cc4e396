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
#include "util/parallel.h"

namespace pimine {
namespace serve {
namespace {

uint64_t ToTicks(double ns) {
  return ns <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(ns));
}

}  // namespace

/// One scheduler dispatch, as Form priced it.
struct PimServer::FormedBatch {
  uint64_t dispatch_ns = 0;
  /// dispatch_ns + the modeled service time (virtual clock); live serving
  /// overwrites it with the instant execution returned.
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

/// The books of one serving run, which every scheduling step writes.
/// Replay keeps one for the call; live serving keeps live_ under mu_.
struct PimServer::Run {
  explicit Run(const ServeOptions& options)
      : queue(options),
        events({.sample_rate = options.event_sample_rate,
                .seed = options.event_seed}) {
    stats.tenants.resize(options.num_tenants());
    for (size_t t = 0; t < stats.tenants.size(); ++t) {
      stats.tenants[t].name =
          options.tenants.empty() ? "default" : options.tenants[t].name;
    }
  }

  AdmissionQueue queue;
  ServeStats stats;
  obs::TimeSeries ts;
  obs::EventLog events;
};

/// Per-worker dispatch scratch, reused across every dispatch the worker
/// executes: engine query scratch + batch handle (zero-allocation steady
/// state), gathered query buffer, bound array, the chunk's trace tracks
/// and the dispatch's neighbours.
struct PimServer::DispatchScratch {
  ShardedPimEngine::QueryScratch query;
  ShardedPimEngine::QueryHandleBatch handle;
  std::vector<float> qbuf;
  std::vector<double> bounds;
  std::vector<int64_t> tracks;
  std::vector<std::vector<Neighbor>> neighbors;
};

/// A live-mode in-flight query: the copied payload, its result as the
/// scheduler fills it, and the promise the submitting client blocks on.
struct PimServer::LiveRequest {
  std::vector<float> query;
  ServedResult result;
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
  server->live_ = std::make_unique<Run>(serve);
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

Status PimServer::Mutate(const std::function<Status()>& apply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return Status::FailedPrecondition(
        "mutations are refused while live serving runs; Stop() first");
  }
  return apply();
}

Status PimServer::OnInsert(const FloatMatrix& rows) {
  return Mutate([&] { return engine_->AppendRows(rows); });
}

Status PimServer::OnDelete(size_t row) {
  return Mutate([&] { return engine_->DeleteRow(row); });
}

Status PimServer::CheckLiveRows() const {
  const size_t live = engine_->live_objects();
  if (live >= static_cast<size_t>(options_.k)) return Status::OK();
  return Status::FailedPrecondition(
      "the corpus has " + std::to_string(live) + " live rows, fewer than k=" +
      std::to_string(options_.k));
}

Status PimServer::OnCompact(const std::vector<uint32_t>& live) {
  (void)live;  // the fleet derives the survivors from its own record.
  return Mutate([&] { return engine_->Compact(); });
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
// The scheduling steps both clocks call
// --------------------------------------------------------------------------

Status PimServer::Admit(uint64_t id, uint32_t tenant, uint64_t arrival_ns,
                        Run* run) const {
  ServeStats& stats = run->stats;
  // Degraded-mode load shedding: while a shard sits below the degrade
  // watermark, a lowest-weight tenant's submission gets a 503-style
  // CapacityExceeded naming the shard and its healthy replicas.
  const int shard = DegradedShardAt(arrival_ns);
  Status status;
  if (shard >= 0 && TenantWeight(tenant) == MinTenantWeight()) {
    ++stats.shed_queries;
    status = Status::CapacityExceeded(
        "degraded: shard " + std::to_string(shard) + " has " +
        std::to_string(chaos_.HealthyReplicas(static_cast<uint32_t>(shard),
                                              arrival_ns)) +
        "/" + std::to_string(engine_->replicas()) +
        " healthy replicas (below watermark); shedding tenant '" +
        stats.tenants[tenant].name + "'");
  } else {
    status = run->queue.Admit(id, tenant, arrival_ns);
  }
  ++stats.submitted;
  ++stats.tenants[tenant].submitted;
  if (!status.ok()) {
    ++stats.rejected;
    ++stats.tenants[tenant].rejected;
  } else {
    run->ts.Observe("queue_depth", arrival_ns,
                    static_cast<double>(run->queue.pending()));
  }
  return status;
}

void PimServer::Form(uint64_t dispatch_ns, Run* run, FormedBatch* b) const {
  b->dispatch_ns = dispatch_ns;
  run->queue.FormBatch(&b->members);
  // Under chaos, plan every shard's replica ladder for every device_batch
  // chunk, in dispatch order. Formation is the only walker of the replica
  // health while a server runs (replay's single-threaded pass, or a live
  // worker under mu_), so the strikes the plans record land in dispatch
  // order, and execution runs exactly these plans. Without chaos no plan
  // could differ from the primary, so none is made.
  b->plans.clear();
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = dispatch_ns;
  dispatch.deadline_ns = options_.batch_deadline_ns;
  const size_t device_batch = options_.exec.device_batch;
  const size_t shards = engine_->shards();
  double service = 0.0;
  for (size_t c0 = 0; c0 < b->members.size(); c0 += device_batch) {
    const size_t chunk = std::min(b->members.size() - c0, device_batch);
    service += engine_->ModeledBatchNs(chunk);
    if (!chaos_.enabled()) continue;
    for (size_t j = 0; j < shards; ++j) {
      b->plans.push_back(engine_->PlanLadder(j, chunk, dispatch));
    }
  }
  b->degraded = false;
  if (chaos_.enabled()) {
    b->degraded = DegradedShardAt(dispatch_ns) >= 0;
    // Shards run concurrently (max over shards); a shard's chunks run back
    // to back (sum over chunks).
    double extra = 0.0;
    for (size_t j = 0; j < shards; ++j) {
      double shard_extra = 0.0;
      for (size_t p = j; p < b->plans.size(); p += shards) {
        shard_extra += b->plans[p].extra_ns;
      }
      extra = std::max(extra, shard_extra);
    }
    service += extra;
  }
  b->service_ns = service;
  b->completion_ns = dispatch_ns + ToTicks(service);
}

Status PimServer::RunDispatch(const FormedBatch& b,
                              std::span<const float> qbuf, DispatchScratch* s,
                              obs::Histogram* latency) const {
  const size_t dims = data_->cols();
  const size_t batch_size = b.members.size();
  // Mutations are refused while a run executes, so the live corpus holds.
  const size_t live = engine_->live_objects();
  const double device_ns_per_query =
      obs::Obs::Enabled() ? engine_->SerialDeviceNsPerQuery() : 0.0;
  s->bounds.resize(data_->rows());
  s->neighbors.resize(batch_size);
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = b.dispatch_ns;
  dispatch.slack_on_exhaustion = b.degraded;
  dispatch.deadline_ns = options_.batch_deadline_ns;

  // One engine batch operation per device_batch chunk: max_batch bounds
  // the scheduler's coalescing, device_batch the per-operation GEMM width.
  const size_t device_batch = options_.exec.device_batch;
  const size_t shards = engine_->shards();
  for (size_t c0 = 0; c0 < batch_size; c0 += device_batch) {
    const size_t chunk = std::min(batch_size, c0 + device_batch) - c0;
    if (!b.plans.empty()) {
      dispatch.plans = std::span<const ShardedPimEngine::LadderPlan>(b.plans)
                           .subspan(c0 / device_batch * shards, shards);
    }
    // The engine labels in-batch query bq's spans with track tracks[bq]:
    // each member's own admission id (a weighted-fair dispatch's ids are
    // not contiguous).
    s->tracks.clear();
    for (size_t bq = 0; bq < chunk; ++bq) {
      s->tracks.push_back(static_cast<int64_t>(b.members[c0 + bq].id));
    }
    obs::ScopedTrackBase tracks(s->tracks);
    PIMINE_RETURN_IF_ERROR(
        engine_->RunQueryBatch(qbuf.subspan(c0 * dims, chunk * dims), chunk,
                               &s->query, &s->handle, dispatch));
    const RunLedger& ledger = traffic::Local();
    for (size_t bq = 0; bq < chunk; ++bq) {
      obs::ModeledSpan query_span(s->tracks[bq], latency,
                                  device_ns_per_query);
      const uint64_t exact_before = ledger.exact_count;
      s->neighbors[c0 + bq] =
          StandardPimQuery(*engine_, s->handle, bq, distance_, *data_,
                           qbuf.subspan((c0 + bq) * dims, dims), options_.k,
                           s->bounds);
      // Every served query evaluates bounds: the live rows it did not refine
      // were pruned.
      traffic::CountPruned(live - (ledger.exact_count - exact_before));
    }
  }
  return Status::OK();
}

void PimServer::Account(const FormedBatch& b,
                        std::span<ServedResult* const> results,
                        Run* run) const {
  ServeStats& stats = run->stats;
  const uint64_t batch_id = stats.batches++;
  stats.occupancy_hist.Record(static_cast<double>(b.members.size()));
  run->ts.Observe("batch_occupancy", b.dispatch_ns,
                  static_cast<double>(b.members.size()));
  stats.pipelined_ns += b.service_ns;
  if (b.degraded) {
    ++stats.degraded_batches;
    run->ts.Count("degraded_batches", b.dispatch_ns);
  }
  // Recovery telemetry: one record per plan whose ladder fired (the plans
  // the dispatch runs). Chaos off -> no plans -> the exports stay
  // byte-identical to the pre-failover server.
  for (size_t p = 0; p < b.plans.size(); ++p) {
    const ShardedPimEngine::LadderPlan& plan = b.plans[p];
    const FailoverStats& f = plan.charges;
    if (f.injected == 0) continue;
    run->ts.Count(f.shed != 0 ? "failover_shed" : "failover_recovered",
                  b.dispatch_ns);
    if (f.backoff_ns > 0) {
      run->ts.Observe("failover_backoff_ns", b.dispatch_ns,
                      static_cast<double>(f.backoff_ns));
    }
    if (run->events.enabled()) {
      obs::QueryEvent ev;
      ev.kind = obs::QueryEvent::Kind::kFailover;
      ev.batch_id = batch_id;
      ev.dispatch_ns = b.dispatch_ns;
      ev.shard = static_cast<int32_t>(p % engine_->shards());
      ev.replica = plan.serving_replica;
      ev.failed_attempts = static_cast<int32_t>(f.attempts_failed);
      ev.shed = f.shed != 0;
      ev.backoff_ns = f.backoff_ns;
      ev.status = ev.shed ? "SHED" : "RECOVERED";
      run->events.AppendAlways(ev);
    }
  }
  for (size_t m = 0; m < b.members.size(); ++m) {
    ServedResult& r = *results[m];
    r.dispatch_ns = b.dispatch_ns;
    r.completion_ns = b.completion_ns;
    r.batch_id = batch_id;
    if (!r.status.ok()) continue;  // a failed live dispatch served nobody.
    const uint64_t wait = b.dispatch_ns - b.members[m].arrival_ns;
    const uint64_t latency = b.completion_ns - b.members[m].arrival_ns;
    r.deadline_missed =
        options_.deadline_ns > 0 && latency > options_.deadline_ns;
    ++stats.served;
    stats.wait_hist.Record(static_cast<double>(wait));
    stats.latency_hist.Record(static_cast<double>(latency));
    TenantServeStats& ts = stats.tenants[b.members[m].tenant];
    ++ts.served;
    ts.latency.Record(static_cast<double>(latency));
    if (r.deadline_missed) {
      ++stats.deadline_misses;
      ++ts.deadline_misses;
    }
  }
}

ServeStats PimServer::Snapshot(const Run& run) const {
  ServeStats stats = run.stats;
  stats.max_queue_depth = run.queue.max_depth();
  stats.watermark_compactions = watermark_compactions_;
  stats.mean_batch_occupancy =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(stats.served) /
                               static_cast<double>(stats.batches);
  return stats;
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
    PIMINE_RETURN_IF_ERROR(CheckLiveRows());
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
  // Formation charges no traffic, so the scope covers the execution's.
  RunScope scope(engine_.get());
  // The replay's books: its telemetry plane is clocked by the VIRTUAL
  // clock and fed only from the single-threaded passes below, so the JSON
  // exports are byte-identical for every scheduler_threads/shards value.
  Run run(options_);
  engine_->ResetReplicaHealth();

  // ---- Phase 1: admission and formation (one deterministic pass) --------
  //
  // One virtual device timeline: vt_free is the instant the device finishes
  // its current dispatch. A pending set dispatches at max(DueAt, vt_free) —
  // arrivals keep accumulating while the device is busy, which is exactly
  // how continuous batching converts offered load into batch occupancy.
  std::vector<FormedBatch> batches;
  uint64_t vt_free = 0;
  auto flush = [&](uint64_t horizon, uint64_t drain_floor) {
    while (!run.queue.empty()) {
      const uint64_t due =
          horizon == std::numeric_limits<uint64_t>::max()
              // Drain: no further arrivals can complete a batch, so
              // dispatch as soon as the device frees (Stop() semantics).
              ? std::max(drain_floor, run.queue.OldestArrivalNs())
              : run.queue.DueAtNs();
      const uint64_t dispatch = std::max(due, vt_free);
      if (dispatch >= horizon) break;
      FormedBatch& b = batches.emplace_back();
      Form(dispatch, &run, &b);
      vt_free = b.completion_ns;
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
    r.status = Admit(i, e.tenant, e.arrival_ns, &run);
  }
  flush(std::numeric_limits<uint64_t>::max(), last_arrival);
  PIMINE_DCHECK(run.queue.empty());

  // Accounting, in formation order, then one telemetry record per trace
  // event in trace order (still deterministic: thread- and
  // shard-independent by construction).
  std::vector<ServedResult*> member_results;
  for (const FormedBatch& b : batches) {
    member_results.clear();
    for (const PendingQuery& m : b.members) {
      member_results.push_back(&out.results[m.id]);
    }
    Account(b, member_results, &run);
  }
  for (size_t i = 0; i < out.results.size(); ++i) {
    RecordQueryTelemetry(out.results[i], i, &run.ts, &run.events);
  }
  out.timeseries_json = run.ts.ToJson();
  out.events_jsonl = run.events.ToJsonl();

  // ---- Phase 2: execution of the formed batch sequence ------------------
  //
  // The sequence is fixed; workers claim whole dispatches (chunk = 1), and
  // the per-dispatch work depends only on the dispatch itself — so
  // results, traffic and modeled pim_ns are bit-identical for every
  // scheduler_threads (see DESIGN.md "Host-side parallelism").
  const size_t dims = data_->cols();
  ExecPolicy exec_policy;
  exec_policy.num_threads = options_.scheduler_threads;
  std::vector<DispatchScratch> scratch(
      NumSlots(exec_policy, batches.size(), 1));
  PIMINE_RETURN_IF_ERROR(RunSlotPass(
      exec_policy, batches.size(), 1, &run.stats.exec.latency_hist,
      [&](size_t bi, size_t /*end*/, size_t slot_index, WorkerSlot& slot) {
        DispatchScratch& s = scratch[slot_index];
        const FormedBatch& b = batches[bi];
        s.qbuf.resize(b.members.size() * dims);
        for (size_t m = 0; m < b.members.size(); ++m) {
          const std::span<const float> row =
              queries.row(trace.events[b.members[m].id].query_row);
          std::copy(row.begin(), row.end(), s.qbuf.begin() + m * dims);
        }
        slot.status = RunDispatch(b, s.qbuf, &s, &slot.latency);
        if (!slot.status.ok()) return;
        for (size_t m = 0; m < b.members.size(); ++m) {
          out.results[b.members[m].id].neighbors = std::move(s.neighbors[m]);
        }
      }));

  out.stats = Snapshot(run);
  out.stats.makespan_ns = batches.empty() ? 0 : batches.back().completion_ns;
  scope.Close(&out.stats.exec);
  out.stats.exec.footprint_bytes =
      data_->rows() * sizeof(double) * 2 +
      (out.stats.served == 0
           ? 0
           : (out.stats.exec.exact_count / out.stats.served) * dims *
                 sizeof(float));
  if (obs::Obs* o = obs::Obs::Get()) ExportMetrics(out.stats, &o->metrics());
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
  PIMINE_RETURN_IF_ERROR(CheckLiveRows());
  running_ = true;
  stop_ = false;
  next_id_ = 0;
  live_ = std::make_unique<Run>(options_);
  start_time_ = std::chrono::steady_clock::now();
  engine_->ResetOnlineStats();
  engine_->ResetReplicaHealth();
  workers_.clear();
  for (int w = 0; w < options_.scheduler_threads; ++w) {
    workers_.emplace_back(&PimServer::WorkerLoop, this);
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
    auto request = std::make_unique<LiveRequest>();
    ServedResult& r = request->result;
    r.tenant = tenant;
    r.arrival_ns = NowNs();
    const uint64_t id = next_id_++;
    r.status = Admit(id, tenant, r.arrival_ns, live_.get());
    if (!r.status.ok()) {
      // Backpressure: the client learns immediately; nothing is dropped
      // downstream.
      RecordQueryTelemetry(r, id, &live_->ts, &live_->events);
      return r.status;
    }
    request->query.assign(query.begin(), query.end());
    future = request->promise.get_future();
    live_requests_[id] = std::move(request);
  }
  cv_.notify_all();
  ServedResult result = future.get();
  if (!result.status.ok()) return result.status;
  return result;
}

void PimServer::WorkerLoop() {
  DispatchScratch scratch;
  obs::Histogram latency;
  FormedBatch b;
  std::vector<std::unique_ptr<LiveRequest>> requests;
  std::vector<ServedResult*> results;
  const size_t dims = data_->cols();
  Run& run = *live_;  // replaced only by Start, before any worker exists.
  AdmissionQueue& queue = run.queue;

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue.empty(); });
    if (queue.empty()) return;  // stopped and drained.
    // Continuous batching: dispatch once a full batch is pending or the
    // oldest query has waited max_wait_ns; otherwise sleep until that
    // deadline (new arrivals re-evaluate via notify). Stop() dispatches
    // whatever is pending immediately (the drain).
    const uint64_t now = NowNs();
    const uint64_t due = queue.DueAtNs();
    if (!stop_ && now < due && queue.pending() < options_.max_batch) {
      cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    Form(std::max(now, queue.OldestArrivalNs()), &run, &b);
    requests.clear();
    results.clear();
    for (const PendingQuery& m : b.members) {
      auto it = live_requests_.find(m.id);
      PIMINE_DCHECK(it != live_requests_.end());
      results.push_back(&it->second->result);
      requests.push_back(std::move(it->second));
      live_requests_.erase(it);
    }
    lock.unlock();

    scratch.qbuf.resize(b.members.size() * dims);
    for (size_t m = 0; m < requests.size(); ++m) {
      std::copy(requests[m]->query.begin(), requests[m]->query.end(),
                scratch.qbuf.begin() + m * dims);
    }
    const traffic::AggregateScope dispatch_ledger;
    const Status status = RunDispatch(b, scratch.qbuf, &scratch, &latency);
    // The live clock: a dispatch completes when its execution returns.
    b.completion_ns = NowNs();

    lock.lock();
    // The fold order cannot move a total, so workers fold in whatever order
    // their dispatches finish.
    run.stats.exec += dispatch_ledger.Delta();
    run.stats.exec.latency_hist.Merge(latency);
    latency.Reset();
    for (size_t m = 0; m < requests.size(); ++m) {
      results[m]->status = status;
      if (status.ok()) results[m]->neighbors = std::move(scratch.neighbors[m]);
    }
    Account(b, results, &run);
    for (size_t m = 0; m < requests.size(); ++m) {
      RecordQueryTelemetry(*results[m], b.members[m].id, &run.ts,
                           &run.events);
      requests[m]->promise.set_value(std::move(*results[m]));
    }
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
  ServeStats stats = Snapshot(*live_);
  engine_->CloseRun(&stats.exec);
  stats.makespan_ns = NowNs();
  return stats;
}

void PimServer::ExportMetrics(const ServeStats& stats,
                              obs::MetricsRegistry* registry) const {
  constexpr obs::ExportMode kAdd = obs::ExportMode::kAccumulate;
  obs::ExportFields(kServeStatsFields, stats, {}, kAdd, registry);
  registry->ExportHistogram("pimine_serve_wait_ns",
                            "Arrival-to-dispatch wait per served query.",
                            stats.wait_hist);
  registry->ExportHistogram("pimine_serve_latency_ns",
                            "Arrival-to-completion latency per served query.",
                            stats.latency_hist);
  registry->ExportHistogram("pimine_serve_batch_occupancy",
                            "Queries coalesced per scheduler dispatch.",
                            stats.occupancy_hist);
  for (const TenantServeStats& t : stats.tenants) {
    obs::ExportFields(kTenantServeStatsFields, t, {{"tenant", t.name}}, kAdd,
                      registry);
  }
  // The fleet plane too (pimine_fleet_* / pimine_failover_* families), so
  // a replay's --metrics_out carries the same shard-health and failover
  // counters the live /metrics endpoint exposes.
  engine_->ExportMetrics(registry);
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
  // Mutations hold mu_, so a scrape never reads the fleet mid-mutation.
  std::lock_guard<std::mutex> lock(mu_);
  ExportMetrics(stats, &registry);
  return registry.ToPrometheus();
}

std::string PimServer::TimeSeriesJson() {
  std::lock_guard<std::mutex> lock(mu_);
  return live_->ts.ToJson();
}

std::string PimServer::EventsJsonl() {
  std::lock_guard<std::mutex> lock(mu_);
  return live_->events.ToJsonl();
}

}  // namespace serve
}  // namespace pimine
