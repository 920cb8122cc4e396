// serve-mixed: open-loop Poisson replay on the virtual clock with writes
// between reads. MSD with a 2048-row base corpus and the full crossbar
// budget (direct ED, stages > 1, so batching pays), a shards=4 x
// replicas=2 fleet, two tenants (gold:4, free:1) at equal traffic shares,
// max_batch = device_batch = 32, max_wait = 5 us, 2 scheduler threads. A
// seeded chaos schedule kills devices so the failover ladder recovers
// dispatches on replica 1. Each trace segment is followed by a mutation
// round: insert rows from a held-out stream, tombstone seeded live rows,
// then MaybeCompact at the compaction watermark.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/mutable_dataset.h"
#include "core/similarity.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "knn/knn_common.h"
#include "profiling/modeled_time.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace pimbench {
namespace {

using namespace pimine;

constexpr int64_t kBaseRows = 2048;
constexpr uint32_t kPoolQueries = 48;
constexpr size_t kSegmentRequests = 256;
constexpr size_t kModeledSegments = 48;  // segments behind modeled figures.
constexpr size_t kLadderSegments = 4;    // ...of which replayed at every rate.
constexpr size_t kLoopTraces = 8;  // traces the host loop cycles through.
constexpr size_t kInsertRows = 32;
constexpr size_t kDeleteRows = 32;
constexpr double kCompactWatermark = 0.05;
constexpr size_t kMaxBatch = 32;
constexpr uint64_t kMaxWaitNs = 5000;
constexpr int kK = 10;
constexpr int kSetupReps = 9;
/// Device deaths land in [0, horizon) of every replay: before the first
/// dispatch, so every dispatch of every segment walks the same ladder and
/// the modeled tail does not hinge on when in a segment a device died.
constexpr uint64_t kChaosHorizonNs = 1'000;
/// Modeled p99 limit of the SLO ladder, and the ladder itself (multiples
/// of the single-query service rate 1e9 / ModeledBatchNs(1)).
constexpr double kSloLimitUs = 50.0;
constexpr double kLadder[] = {0.5, 1.0, 2.0, 4.0};
const char* const kLadderNames[] = {"x0.5", "x1", "x2", "x4"};

struct Setup {
  DatasetSpec spec;
  std::unique_ptr<MutableDataset> dataset;
  std::unique_ptr<serve::PimServer> server;
  FloatMatrix base;  // the initial corpus, source of held-out rows.
  double gen_ms = 0.0;
  double build_ms = 0.0;
  // Offline figures of the build, before any mutation re-programs rows.
  double offline_ns = 0.0;
  double offline_bytes = 0.0;
};

/// Chaos config for this seed: two device deaths on different shards, one
/// primary (so replica 1 recovers that shard's dispatches) and one replica 1
/// (a dead spare: nothing sheds). The first candidate seed with that shape
/// is taken, so the schedule is a pure function of --seed and every seed
/// exercises the same ladder.
ChaosConfig ChaosFor(uint64_t seed, uint64_t horizon_ns, uint32_t shards,
                     uint32_t replicas) {
  ChaosConfig config;
  config.device_deaths = 2;
  config.horizon_ns = horizon_ns;
  for (uint64_t c = 0;; ++c) {
    config.seed = Mix(seed, 200 + c);
    auto schedule = ChaosSchedule::Generate(config, shards, replicas);
    PIMINE_CHECK(schedule.ok()) << schedule.status().ToString();
    const auto& events = schedule->events();
    if (events[0].shard != events[1].shard &&
        events[0].replica + events[1].replica == 1) {
      return config;
    }
  }
}

EngineOptions FleetOptions() {
  EngineOptions options;  // full crossbar budget: direct ED on MSD.
  options.shard.shards = 4;
  options.shard.replicas = 2;
  // A replica is never struck out, so every dispatch after a death walks
  // the same ladder the virtual-clock planner charges: the failover
  // counters stay independent of scheduler-thread interleaving.
  options.shard.max_strikes = 1 << 30;
  return options;
}

serve::ServeOptions ServeOptionsFor(uint64_t seed) {
  serve::ServeOptions options;
  options.max_batch = kMaxBatch;
  options.max_wait_ns = kMaxWaitNs;
  options.queue_capacity = 1u << 16;
  options.scheduler_threads = 2;
  options.k = kK;
  options.exec.device_batch = kMaxBatch;
  options.tenants = {{"gold", 4}, {"free", 1}};
  options.compact_watermark = kCompactWatermark;
  const EngineOptions fleet = FleetOptions();
  options.chaos = ChaosFor(seed, kChaosHorizonNs, fleet.shard.shards,
                           fleet.shard.replicas);
  return options;
}

std::unique_ptr<Setup> BuildSetup(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  s->spec = *Catalog::Find("MSD");
  int64_t t0 = NowNs();
  {
    SpanScope span(tracer, "data.gen");
    s->base = DatasetGenerator::Generate(s->spec, kBaseRows, Mix(seed, 1));
  }
  s->gen_ms = (NowNs() - t0) / 1e6;
  t0 = NowNs();
  {
    SpanScope span(tracer, "build");
    s->dataset = std::make_unique<MutableDataset>(s->base);
    auto server = serve::PimServer::Build(s->dataset->corpus(),
                                          Distance::kEuclidean, FleetOptions(),
                                          ServeOptionsFor(seed));
    PIMINE_CHECK(server.ok()) << server.status().ToString();
    s->server = std::move(server).value();
    PIMINE_CHECK_OK(s->server->AttachMutable(s->dataset.get()));
  }
  s->offline_ns = s->server->engine().OfflineNs();
  s->offline_bytes =
      static_cast<double>(s->server->engine().OfflineBytesWritten());
  s->build_ms = (NowNs() - t0) / 1e6;
  return s;
}

/// Exact top-k of every pool query over the live corpus, reported in
/// physical ids (LiveRows maps dense live ids back; it is ascending, so
/// distance ties break exactly as the served path breaks them).
std::vector<std::vector<Neighbor>> BruteForce(const MutableDataset& dataset,
                                              const FloatMatrix& queries) {
  const FloatMatrix live = dataset.LiveCorpus();
  const std::vector<uint32_t> ids = dataset.LiveRows();
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    TopK topk(kK);
    for (size_t i = 0; i < live.rows(); ++i) {
      topk.Push(SquaredEuclideanEarlyAbandon(live.row(i), queries.row(q),
                                             topk.threshold()),
                static_cast<int32_t>(ids[i]));
    }
    out[q] = topk.TakeSorted();
  }
  return out;
}

serve::ArrivalTrace TraceFor(uint64_t seed, size_t segment, double qps) {
  serve::WorkloadSpec spec;
  spec.num_requests = kSegmentRequests;
  spec.offered_qps = qps;
  spec.tenant_share = {0.5, 0.5};
  spec.num_query_rows = kPoolQueries;
  spec.seed = Mix(seed, 100 + segment);
  auto trace = serve::GeneratePoissonTrace(spec);
  PIMINE_CHECK(trace.ok()) << trace.status().ToString();
  return *std::move(trace);
}

/// Digest of one replay's modeled outcome: engine counters, makespan,
/// dispatch count, and every query's dispatch and completion instant.
uint64_t ReplayDigest(const serve::ReplayOutput& out) {
  Fingerprint digest;
  digest.Add("exec", out.stats.exec);
  digest.Add("makespan_ns", out.stats.makespan_ns);
  digest.Add("batches", out.stats.batches);
  for (const serve::ServedResult& r : out.results) {
    digest.Add("d", r.dispatch_ns);
    digest.Add("c", r.completion_ns);
  }
  return digest.value();
}

/// Host time and counts of the mutation rounds.
struct MutationTotals {
  int64_t insert_ns = 0;
  int64_t delete_ns = 0;
  int64_t compact_ns = 0;
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t compactions = 0;
  int64_t total_ns() const { return insert_ns + delete_ns + compact_ns; }
};

/// Re-executes one Replay's dispatches serially from public calls —
/// RunQueryBatch at the dispatch instant, BoundFor over every row,
/// ArgsortAscending, early-abandon refine — with a span per layer, and
/// checks every neighbour list against what Replay served.
struct ReexecCounts {
  uint64_t dispatches = 0;
  uint64_t evals = 0;
  uint64_t exact = 0;
  uint64_t queries = 0;
  uint64_t mismatches = 0;
};

void Reexecute(const serve::PimServer& server, const FloatMatrix& corpus,
               const serve::ArrivalTrace& trace, const FloatMatrix& queries,
               const serve::ReplayOutput& out, Tracer* tracer,
               uint64_t request_base, ReexecCounts* counts) {
  const ShardedPimEngine& fleet = server.engine();
  std::map<uint64_t, std::vector<size_t>> by_batch;
  for (size_t i = 0; i < out.results.size(); ++i) {
    if (out.results[i].status.ok()) {
      by_batch[out.results[i].batch_id].push_back(i);
    }
  }
  const size_t n = corpus.rows();
  const size_t dims = corpus.cols();
  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  std::vector<float> qbuf;
  std::vector<double> bounds(n);
  for (const auto& [batch_id, members] : by_batch) {
    tracer->set_request(request_base + batch_id);
    SpanScope dispatch_span(tracer, "serve.dispatch");
    ++counts->dispatches;
    qbuf.resize(members.size() * dims);
    for (size_t m = 0; m < members.size(); ++m) {
      const auto row = queries.row(trace.events[members[m]].query_row);
      std::copy(row.begin(), row.end(), qbuf.begin() + m * dims);
    }
    ShardedPimEngine::DispatchOptions dopt;
    dopt.now_ns = out.results[members[0]].dispatch_ns;
    const size_t device_batch = server.options().exec.device_batch;
    for (size_t c0 = 0; c0 < members.size(); c0 += device_batch) {
      const size_t chunk = std::min(members.size() - c0, device_batch);
      {
        SpanScope span(tracer, "device");
        PIMINE_CHECK_OK(fleet.RunQueryBatch(
            std::span<const float>(qbuf.data() + c0 * dims, chunk * dims),
            chunk, &scratch, &handle, dopt));
      }
      for (size_t bq = 0; bq < chunk; ++bq) {
        const std::span<const float> q(qbuf.data() + (c0 + bq) * dims, dims);
        {
          SpanScope span(tracer, "bound");
          for (size_t i = 0; i < n; ++i) {
            bounds[i] = fleet.BoundFor(handle, bq, i);
          }
          counts->evals += n;
        }
        std::vector<uint32_t> order;
        {
          SpanScope span(tracer, "order");
          order = ArgsortAscending(bounds);
        }
        SpanScope span(tracer, "refine");
        TopK topk(kK);
        for (const uint32_t idx : order) {
          if (topk.full() && bounds[idx] >= topk.threshold()) break;
          topk.Push(SquaredEuclideanEarlyAbandon(corpus.row(idx), q,
                                                 topk.threshold()),
                    static_cast<int32_t>(idx));
          ++counts->exact;
        }
        ++counts->queries;
        if (topk.TakeSorted() != out.results[members[c0 + bq]].neighbors) {
          ++counts->mismatches;
        }
      }
    }
  }
}

}  // namespace

Report RunServeWorkload(const Args& args) {
  Report report;
  const HostCostModel model;
  Tracer tracer;
  Tracer* const trace = args.trace ? &tracer : nullptr;

  double setup_s = 0.0;
  const std::unique_ptr<Setup> setup =
      RepeatSetup(args.trace ? 1 : kSetupReps, &setup_s,
                  [&] { return BuildSetup(args.seed, trace); });
  report.Set("setup_s", setup_s);
  MutableDataset& dataset = *setup->dataset;
  serve::PimServer& server = *setup->server;
  const ShardedPimEngine& fleet = server.engine();
  const FloatMatrix pool = DatasetGenerator::GenerateQueries(
      setup->spec, setup->base, kPoolQueries, Mix(args.seed, 2));
  const double base_qps = 1e9 / fleet.ModeledBatchNs(1);

  report.Note("dataset", "MSD base n=" + std::to_string(kBaseRows) +
                             " d=420 k=10 ED, " +
                             std::string(EngineModeName(fleet.mode())));
  report.Note("fleet", "shards=4 replicas=2, tenants gold:4 free:1, "
                       "max_batch=device_batch=32, max_wait=5us, 2 threads");
  report.Note("chaos", server.chaos().ToString());
  report.Note("loop", "open loop, Poisson arrivals on the virtual clock at "
                      "1x = " + std::to_string(base_qps) +
                      " q/s; generator lateness is 0 by construction");

  // Checks one replay's answers against brute force over the live corpus.
  auto check = [&](const std::vector<std::vector<Neighbor>>& oracle,
                   const serve::ArrivalTrace& tr,
                   const serve::ReplayOutput& out, size_t segment) {
    size_t bad = 0;
    for (size_t i = 0; i < out.results.size(); ++i) {
      const serve::ServedResult& r = out.results[i];
      ++report.attempted;
      if (!r.status.ok() || r.neighbors != oracle[tr.events[i].query_row]) {
        ++bad;
      }
    }
    if (bad > 0) {
      report.Fail("segment " + std::to_string(segment) + ": " +
                      std::to_string(bad) + " queries rejected or wrong",
                  bad);
    }
    if (out.stats.shed_queries != 0 || out.stats.rejected != 0) {
      report.Fail("segment " + std::to_string(segment) +
                  ": queries were shed or rejected");
    }
  };

  auto replay = [&](const serve::ArrivalTrace& tr, int64_t* host_ns,
                    int64_t* cpu_ns) {
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    auto out = server.Replay(tr, pool);
    *host_ns = NowNs() - t0;
    if (cpu_ns != nullptr) *cpu_ns = ProcessCpuNs() - c0;
    PIMINE_CHECK(out.ok()) << out.status().ToString();
    return *std::move(out);
  };

  MutationTotals mutation;
  auto mutate = [&](size_t segment, Tracer* spans) {
    tracer.set_request(1000000 + segment);
    const FloatMatrix rows = DatasetGenerator::GenerateQueries(
        setup->spec, setup->base, kInsertRows, Mix(args.seed, 300 + segment));
    std::vector<uint32_t> victims;
    {
      const std::vector<uint32_t> live = dataset.LiveRows();
      std::set<uint32_t> chosen;
      for (uint64_t j = 0; chosen.size() < kDeleteRows; ++j) {
        chosen.insert(live[Mix(args.seed, 400 + segment * 4096 + j) %
                           live.size()]);
      }
      victims.assign(chosen.begin(), chosen.end());
    }
    int64_t t0 = NowNs();
    {
      SpanScope span(spans, "mutation.insert");
      const Status s = dataset.Insert(rows);
      if (!s.ok()) report.Fail("insert: " + s.ToString());
    }
    mutation.insert_ns += NowNs() - t0;
    mutation.inserted += rows.rows();
    t0 = NowNs();
    {
      SpanScope span(spans, "mutation.delete");
      for (const uint32_t row : victims) {
        const Status s = dataset.Delete(row);
        if (!s.ok()) report.Fail("delete: " + s.ToString());
      }
    }
    mutation.delete_ns += NowNs() - t0;
    mutation.deleted += victims.size();
    const uint64_t before = server.watermark_compactions();
    t0 = NowNs();
    {
      SpanScope span(spans, "mutation.compact");
      const Status s = server.MaybeCompact();
      if (!s.ok()) report.Fail("compact: " + s.ToString());
    }
    mutation.compact_ns += NowNs() - t0;
    mutation.compactions += server.watermark_compactions() - before;
    report.attempted += 3;
  };

  // Modeled segments: each replays its trace at 1x (timed; the first
  // kLadderSegments also at every other ladder rate, untimed), then runs its
  // mutation round. Their figures repeat exactly for a seed.
  Fingerprint fingerprint;
  std::vector<std::vector<double>> ladder_latency_us(std::size(kLadder));
  std::vector<bool> ladder_backlog_ok(std::size(kLadder), true);
  std::vector<double> wait_us;
  double modeled_ns = 0.0;
  uint64_t served = 0;
  uint64_t makespan_ns = 0;
  uint64_t dispatches = 0;
  uint64_t max_queue_depth = 0;
  FailoverStats failover;
  FleetRunStats fleet_totals;
  DeviceTotals device;
  int64_t replay_ns = 0;
  uint64_t replay_served = 0;
  size_t segment = 0;
  const DeviceTotals dev_start = SumDevices(fleet);
  for (; segment < kModeledSegments; ++segment) {
    const auto oracle = BruteForce(dataset, pool);
    for (size_t li = 0; li < std::size(kLadder); ++li) {
      if (segment >= kLadderSegments && kLadder[li] != 1.0) continue;
      const serve::ArrivalTrace tr =
          TraceFor(args.seed, segment, kLadder[li] * base_qps);
      int64_t host_ns = 0;
      const serve::ReplayOutput out = replay(tr, &host_ns, nullptr);
      check(oracle, tr, out, segment);
      if (segment == 0) {
        // The modeled figures must repeat: the same trace on the same
        // state replays to the same digest.
        int64_t ignored = 0;
        if (ReplayDigest(replay(tr, &ignored, nullptr)) !=
            ReplayDigest(out)) {
          report.Fail("replaying segment 0 at " +
                      std::string(kLadderNames[li]) +
                      " changed its modeled counters");
        }
      }
      for (const serve::ServedResult& r : out.results) {
        if (!r.status.ok()) continue;
        ladder_latency_us[li].push_back((r.completion_ns - r.arrival_ns) /
                                        1e3);
      }
      const uint64_t last_arrival = tr.events.back().arrival_ns;
      ladder_backlog_ok[li] =
          ladder_backlog_ok[li] &&
          out.stats.makespan_ns <=
              last_arrival + static_cast<uint64_t>(kSloLimitUs * 1e3);
      fingerprint.Add(kLadderNames[li], ReplayDigest(out));
      if (kLadder[li] != 1.0) continue;
      // Replay resets the online device counters, so these are its own.
      device += SumDevices(fleet);
      replay_ns += host_ns;
      replay_served += out.stats.served;
      served += out.stats.served;
      makespan_ns += out.stats.makespan_ns;
      dispatches += out.stats.batches;
      max_queue_depth = std::max(max_queue_depth, out.stats.max_queue_depth);
      modeled_ns += ComposeModeledTime(out.stats.exec, model).total_ns();
      failover.Merge(out.stats.exec.fleet.failover);
      fleet_totals.scatter_bytes += out.stats.exec.fleet.scatter_bytes;
      fleet_totals.gather_bytes += out.stats.exec.fleet.gather_bytes;
      fleet_totals.reduce_messages += out.stats.exec.fleet.reduce_messages;
      fleet_totals.scatter_ns += out.stats.exec.fleet.InterconnectNs();
      for (const serve::ServedResult& r : out.results) {
        if (r.status.ok()) {
          wait_us.push_back((r.dispatch_ns - r.arrival_ns) / 1e3);
        }
      }
    }
    mutate(segment, nullptr);
    fingerprint.Add("mutation", fleet.FleetStats());
  }
  const DeviceTotals dev_mutated = SumDevices(fleet);
  const MutationTotals modeled_mutation = mutation;

  const double p50 = Quantile(ladder_latency_us[1], 0.5);
  const double p99 = Quantile(ladder_latency_us[1], 0.99);
  double slo_qps = 0.0;
  for (size_t li = 0; li < std::size(kLadder); ++li) {
    if (Quantile(ladder_latency_us[li], 0.99) <= kSloLimitUs &&
        ladder_backlog_ok[li]) {
      slo_qps = std::max(slo_qps, kLadder[li] * base_qps);
    }
  }
  const double modeled_qps = served * 1e9 / static_cast<double>(makespan_ns);
  report.Set("modeled_us_per_query", modeled_ns / 1e3 / served);
  report.Set("modeled_p50_us", p50);
  report.Set("modeled_p99_us", p99);
  report.Set("serve.modeled_qps", modeled_qps);
  report.Set("serve.slo_qps", slo_qps);
  if (failover.recovered == 0 || failover.shed != 0) {
    report.Fail("chaos schedule did not exercise replica recovery "
                "(recovered=" + std::to_string(failover.recovered) +
                ", shed=" + std::to_string(failover.shed) + ")");
  }

  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  ReexecCounts reexec;
  int64_t reexec_cpu_ns = 0;
  int64_t replay_cpu_ns = 0;
  int64_t loop_ns[2] = {0, 0};  // untraced, traced segments.
  size_t loop_segments[2] = {0, 0};
  // Host loop: 1x segments cycling through kLoopTraces traces, each followed
  // by a mutation round, until the budget (host time inside Replay and
  // mutation calls) is spent and the cycle is whole. In the traced mode
  // every other cycle is traced: each Replay runs in a span and its
  // dispatches are re-executed layer by layer afterwards.
  BestOfRepeats best(kLoopTraces);
  for (size_t i = 0;
       i % kLoopTraces != 0 || loop_ns[0] + loop_ns[1] < budget_ns ||
       (args.trace && i < 2 * kLoopTraces);
       ++i, ++segment) {
    const bool traced = args.trace && (i / kLoopTraces) % 2 == 1;
    Tracer* const spans = traced ? &tracer : nullptr;
    const serve::ArrivalTrace tr = TraceFor(
        args.seed, kModeledSegments + i % kLoopTraces, base_qps);
    int64_t host_ns = 0;
    int64_t cpu_ns = 0;
    serve::ReplayOutput out;
    {
      tracer.set_request(2000000 + segment);
      SpanScope span(spans, "serve.replay");
      out = replay(tr, &host_ns, &cpu_ns);
    }
    check(BruteForce(dataset, pool), tr, out, segment);
    replay_ns += host_ns;
    replay_served += out.stats.served;
    best.Record(i % kLoopTraces, host_ns);
    if (traced) {
      // Serial re-execution of the same dispatches, outside the Replay
      // span: the serve layer's own CPU is Replay's minus this.
      const int64_t c0 = ProcessCpuNs();
      Reexecute(server, dataset.corpus(), tr, pool, out, &tracer,
                segment << 20, &reexec);
      reexec_cpu_ns += ProcessCpuNs() - c0;
      replay_cpu_ns += cpu_ns;
    }
    const int64_t m0 = mutation.total_ns();
    mutate(segment, spans);
    loop_ns[traced] += host_ns + mutation.total_ns() - m0;
    ++loop_segments[traced];
  }

  const double ingest_rows_per_s =
      (mutation.inserted + mutation.deleted) / (mutation.total_ns() / 1e9);
  report.Set("host_qps",
             kLoopTraces * kSegmentRequests / best.CycleSeconds());
  report.Set("mutation.ingest_rows_per_s", ingest_rows_per_s);
  report.fingerprint = fingerprint.Hex();

  if (!args.trace) {
    report.Row("setup_s", report.values["setup_s"], "s");
    report.Row("host_qps", report.values["host_qps"],
               "queries/s (Replay host time, fastest repeat of each trace)");
    report.Row("modeled_p50_us", p50, "us (arrival to completion at 1x)");
    report.Row("modeled_p99_us", p99,
               "us (" + std::to_string(ladder_latency_us[1].size()) +
                   " queries)");
    report.Row("modeled_qps", modeled_qps, "queries/s (served / makespan)");
    report.Row("slo_qps", slo_qps, "queries/s (p99 <= 50 us, no backlog)");
    report.Row("modeled_us_per_query", report.values["modeled_us_per_query"],
               "us (host model + device, per served query)");
    report.Row("ingest_rows_per_s", ingest_rows_per_s, "rows/s");
    report.Row("failover", failover.recovered, "dispatch shards recovered");
    report.Row("segments", static_cast<double>(segment), "");
  } else {
    const auto self = tracer.SelfNsByName();
    const double disp = static_cast<double>(reexec.dispatches);
    const double mdisp = static_cast<double>(dispatches);
    const double device_ns = SelfNs(self, "device");
    report.Set("data.gen_ms", setup->gen_ms);
    report.Set("build.host_ms", setup->build_ms);
    report.Set("build.offline_modeled_ms", setup->offline_ns / 1e6);
    report.Set("build.bytes_written", setup->offline_bytes);
    // Host times come from the re-executed dispatches; device counters
    // from the modeled segments' 1x replays.
    report.Set("device.host_ms", device_ns / 1e6 / disp);
    report.Set("device.products_per_s",
               static_cast<double>(reexec.evals) / (device_ns / 1e9));
    report.Set("device.batch_ops", device.batch_ops / mdisp);
    report.Set("device.queries_per_batch",
               static_cast<double>(device.queries) / device.batch_ops);
    report.Set("device.modeled_ns", device.compute_ns / mdisp);
    report.Set("device.pipelined_ns", device.pipelined_ns / mdisp);
    report.Set("bound.host_ms", SelfNs(self, "bound") / 1e6 / disp);
    report.Set("bound.ns_per_eval",
               SelfNs(self, "bound") / static_cast<double>(reexec.evals));
    report.Set("bound.evals", static_cast<double>(reexec.evals) / disp);
    report.Set("order.host_ms", SelfNs(self, "order") / 1e6 / disp);
    report.Set("order.ns_per_element",
               SelfNs(self, "order") / static_cast<double>(reexec.evals));
    report.Set("refine.host_ms", SelfNs(self, "refine") / 1e6 / disp);
    report.Set("refine.exact", static_cast<double>(reexec.exact) / disp);
    report.Set("refine.prune_ratio",
               1.0 - static_cast<double>(reexec.exact) /
                         static_cast<double>(reexec.evals));
    report.Set("fleet.scatter_bytes",
               static_cast<double>(fleet_totals.scatter_bytes) / mdisp);
    report.Set("fleet.gather_bytes",
               static_cast<double>(fleet_totals.gather_bytes) / mdisp);
    report.Set("fleet.reduce_messages",
               static_cast<double>(fleet_totals.reduce_messages) / mdisp);
    report.Set("fleet.interconnect_modeled_ns",
               fleet_totals.scatter_ns / mdisp);
    report.Set("failover.injected", static_cast<double>(failover.injected));
    report.Set("failover.recovered", static_cast<double>(failover.recovered));
    report.Set("failover.shed", static_cast<double>(failover.shed));
    report.Set("failover.backoff_ns", static_cast<double>(failover.backoff_ns));
    report.Set("serve.host_us_per_query", replay_ns / 1e3 / replay_served);
    report.Set("serve.dispatches", mdisp / kModeledSegments);
    report.Set("serve.occupancy", static_cast<double>(served) / mdisp);
    report.Set("serve.max_queue_depth", static_cast<double>(max_queue_depth));
    report.Set("serve.wait_p99_us", Quantile(wait_us, 0.99));
    for (size_t li = 0; li < std::size(kLadder); ++li) {
      report.Set(std::string("serve.p99_us.") + kLadderNames[li],
                 Quantile(ladder_latency_us[li], 0.99));
    }
    report.Set("serve.self_cpu_ms",
               (replay_cpu_ns - reexec_cpu_ns) / 1e6 / loop_segments[1]);
    const MutationTotals& mm = modeled_mutation;
    report.Set("mutation.insert_us_per_row",
               mutation.insert_ns / 1e3 / mutation.inserted);
    report.Set("mutation.delete_us",
               mutation.delete_ns / 1e3 / mutation.deleted);
    report.Set("mutation.compact_ms",
               mutation.compactions == 0
                   ? 0.0
                   : mutation.compact_ns / 1e6 / mutation.compactions);
    report.Set("mutation.compactions", static_cast<double>(mm.compactions));
    report.Set("mutation.write_amp",
               static_cast<double>(dev_mutated.row_writes -
                                   dev_start.row_writes) /
                   static_cast<double>(mm.inserted));
    report.Set("mutation.modeled_program_ns",
               (dev_mutated.program_ns - dev_start.program_ns) /
                   kModeledSegments);
    if (reexec.mismatches > 0) {
      report.Fail("re-executed queries differ from what Replay served",
                  reexec.mismatches);
    }
    FinishTrace(args, tracer, static_cast<double>(loop_segments[1]),
                "segment", loop_ns[0] / 1e6 / loop_segments[0],
                loop_ns[1] / 1e6 / loop_segments[1], &report);
  }
  report.Set("error_rate", static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted));
  report.Row("error_rate", report.values["error_rate"], "");
  return report;
}

}  // namespace pimbench
