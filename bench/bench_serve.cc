// Serving-layer bench: throughput vs offered load under continuous device
// batching (DESIGN.md section 10).
//
// Replays Poisson arrival traces at a sweep of load factors against
// serve::PimServer on the virtual clock and reports, per offered load, the
// mean batch occupancy the scheduler sustained and the modeled serving
// throughput (served / makespan). The engine runs in direct-ED mode
// (operand length d > crossbar_dim), where BatchDotLatencyNs =
// stage_ns * (stages + Q - 1) amortizes across coalesced queries — so
// queries/s rises with offered load as occupancy grows. The honest caveat
// (also in the emitted "note"): segment-mode datasets program s <= 256
// operand columns, stages == 1, and batching then raises device
// utilization but not per-query pipelining.
//
//   bench_serve [--chaos] [n] [requests]     (defaults 1536, 384)
//
// --chaos additionally runs the replica-failover sweep: the same trace
// replayed against a shards=4 x replicas=2 fleet under a seeded schedule
// of device deaths (deaths in {0, 1, 2, 4}), with two weighted tenants
// (gold:4, free:1) and degraded-mode shedding armed. Each row reports the
// FailoverStats of the run (injected/recovered/shed must balance) and
// lands in a "chaos_sweep" array of the JSON document; the deaths=0 row is
// checked bit-identical to a chaos-free fleet and the heaviest row is
// re-replayed at 4 scheduler threads to pin failover determinism.
//
// Emits one "pimine.bench.serve.v1" JSON document to stdout and
// BENCH_serve.json, validated by tools/bench_diff.py. Includes a built-in
// replay determinism self-check (scheduler_threads 1 vs 4).

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "util/timer.h"

namespace pimine {
namespace bench {
namespace {

constexpr size_t kMaxBatch = 32;
constexpr uint64_t kMaxWaitNs = 5000;  // 5 us coalescing window.
constexpr int kK = 10;

serve::ServeOptions MakeServeOptions(int scheduler_threads) {
  serve::ServeOptions options;
  options.max_batch = kMaxBatch;
  options.max_wait_ns = kMaxWaitNs;
  options.queue_capacity = 1u << 16;  // Backpressure is not under test here.
  options.scheduler_threads = scheduler_threads;
  options.k = kK;
  options.exec.device_batch = kMaxBatch;
  return options;
}

serve::ReplayOutput MustReplay(serve::PimServer& server,
                               const serve::ArrivalTrace& trace,
                               const FloatMatrix& queries) {
  auto output = server.Replay(trace, queries);
  PIMINE_CHECK(output.ok()) << output.status().ToString();
  return *std::move(output);
}

int Main(int argc, char** argv) {
  bool chaos_mode = false;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--chaos") {
      chaos_mode = true;
      continue;
    }
    positional.push_back(argv[i]);
  }
  const int64_t n = !positional.empty() ? std::atoll(positional[0]) : 1536;
  const size_t requests =
      positional.size() > 1 ? static_cast<size_t>(std::atoll(positional[1]))
                            : 384;
  const BenchWorkload workload = LoadWorkload("MSD", n, 48);

  // Full crossbar budget: kAuto keeps MSD (d=420 > crossbar_dim) in direct
  // ED mode, the regime where batch pipelining has stages > 1.
  EngineOptions engine_options;
  auto server = serve::PimServer::Build(workload.data, Distance::kEuclidean,
                                        engine_options, MakeServeOptions(1));
  PIMINE_CHECK(server.ok()) << server.status().ToString();

  const double serial_ns = (*server)->engine().ModeledBatchNs(1);
  // stage_ns: the marginal modeled cost of one extra coalesced query.
  const double marginal_ns =
      (*server)->engine().ModeledBatchNs(2) - serial_ns;
  PIMINE_CHECK(marginal_ns < serial_ns)
      << "expected a pipelined (stages > 1) regime; got serial "
      << serial_ns << " ns vs marginal " << marginal_ns << " ns";
  const double base_qps = 1e9 / serial_ns;

  Banner("Serving: throughput vs offered load (MSD direct-ED, max_batch=" +
         std::to_string(kMaxBatch) + ")");
  TablePrinter table({"load", "offered q/s", "served", "occupancy",
                      "modeled q/s", "wait p50 ns", "latency p50 ns",
                      "wall_ms"});

  std::ostringstream sweep_json;
  const std::vector<double> load_factors = {0.25, 0.5, 1.0, 2.0, 4.0};
  double low_load_qps = 0.0, high_load_qps = 0.0;
  double low_load_occupancy = 0.0, high_load_occupancy = 0.0;
  for (size_t li = 0; li < load_factors.size(); ++li) {
    const double load = load_factors[li];
    serve::WorkloadSpec spec;
    spec.num_requests = requests;
    spec.offered_qps = load * base_qps;
    spec.tenant_share = {1.0};
    spec.num_query_rows = static_cast<uint32_t>(workload.queries.rows());
    spec.seed = kBenchSeed + li;
    auto trace = serve::GeneratePoissonTrace(spec);
    PIMINE_CHECK(trace.ok()) << trace.status().ToString();

    Timer timer;
    const serve::ReplayOutput output =
        MustReplay(**server, *trace, workload.queries);
    const double wall_ms = timer.ElapsedMillis();
    const serve::ServeStats& stats = output.stats;
    PIMINE_CHECK(stats.rejected == 0);
    const double modeled_qps =
        stats.makespan_ns > 0 ? stats.served * 1e9 / stats.makespan_ns : 0.0;
    if (li == 0) {
      low_load_qps = modeled_qps;
      low_load_occupancy = stats.mean_batch_occupancy;
    }
    if (li + 1 == load_factors.size()) {
      high_load_qps = modeled_qps;
      high_load_occupancy = stats.mean_batch_occupancy;
    }

    table.AddRow({Fmt(load), Fmt(spec.offered_qps, 0),
                  std::to_string(stats.served),
                  Fmt(stats.mean_batch_occupancy),
                  Fmt(modeled_qps, 0),
                  std::to_string(stats.wait_hist.QuantileUpperBound(0.5)),
                  std::to_string(stats.latency_hist.QuantileUpperBound(0.5)),
                  Fmt(wall_ms)});

    sweep_json << (li == 0 ? "" : ",\n")
               << "    {\"load_factor\": " << Fmt(load)
               << ", \"offered_qps\": " << Fmt(spec.offered_qps, 0)
               << ", \"served\": " << stats.served
               << ", \"rejected\": " << stats.rejected
               << ", \"dispatches\": " << stats.batches
               << ", \"mean_batch_occupancy\": "
               << Fmt(stats.mean_batch_occupancy, 3)
               << ", \"makespan_ms\": " << Fmt(stats.makespan_ns / 1e6, 4)
               << ", \"modeled_queries_per_s\": " << Fmt(modeled_qps, 1)
               << ", \"pipelined_ns\": " << Fmt(stats.pipelined_ns, 0)
               << ", \"wait_p50_ns\": "
               << stats.wait_hist.QuantileUpperBound(0.5)
               << ", \"latency_p50_ns\": "
               << stats.latency_hist.QuantileUpperBound(0.5)
               << ", \"latency_p99_ns\": "
               << stats.latency_hist.QuantileUpperBound(0.99)
               << ", \"wall_ms\": " << Fmt(wall_ms, 4) << "}";
  }
  table.Print();
  PIMINE_CHECK(high_load_occupancy > low_load_occupancy)
      << "occupancy did not grow with offered load";
  PIMINE_CHECK(high_load_qps > low_load_qps)
      << "modeled throughput did not grow with offered load";

  // Replay determinism self-check: the saturating trace, executed with 1
  // and 4 scheduler threads, must agree bit for bit on results and on the
  // engine's modeled accounting.
  bool identical_across_threads = true;
  {
    serve::WorkloadSpec spec;
    spec.num_requests = requests;
    spec.offered_qps = 4.0 * base_qps;
    spec.tenant_share = {1.0};
    spec.num_query_rows = static_cast<uint32_t>(workload.queries.rows());
    spec.seed = kBenchSeed;
    auto trace = serve::GeneratePoissonTrace(spec);
    PIMINE_CHECK(trace.ok()) << trace.status().ToString();
    const serve::ReplayOutput base =
        MustReplay(**server, *trace, workload.queries);
    auto threaded_server = serve::PimServer::Build(
        workload.data, Distance::kEuclidean, engine_options,
        MakeServeOptions(4));
    PIMINE_CHECK(threaded_server.ok()) << threaded_server.status().ToString();
    const serve::ReplayOutput threaded =
        MustReplay(**threaded_server, *trace, workload.queries);
    identical_across_threads =
        base.stats.exec.pim_ns == threaded.stats.exec.pim_ns &&
        base.stats.exec.traffic == threaded.stats.exec.traffic &&
        base.stats.pipelined_ns == threaded.stats.pipelined_ns &&
        base.stats.makespan_ns == threaded.stats.makespan_ns &&
        base.results.size() == threaded.results.size();
    for (size_t i = 0; identical_across_threads && i < base.results.size();
         ++i) {
      identical_across_threads =
          base.results[i].neighbors == threaded.results[i].neighbors &&
          base.results[i].batch_id == threaded.results[i].batch_id;
    }
    PIMINE_CHECK(identical_across_threads)
        << "replay diverged across scheduler thread counts";
  }

  // Replica-failover chaos sweep (--chaos): a shards=4 x replicas=2 fleet
  // replays one saturating two-tenant trace under a seeded schedule of
  // device deaths. deaths=0 must be bit-identical to the chaos-free fleet;
  // every row's FailoverStats must balance (injected == recovered + shed);
  // the heaviest row must be thread-count invariant.
  std::ostringstream chaos_json;
  if (chaos_mode) {
    constexpr int kChaosShards = 4;
    constexpr int kChaosReplicas = 2;
    EngineOptions fleet_options = engine_options;
    fleet_options.shard.shards = kChaosShards;
    fleet_options.shard.replicas = kChaosReplicas;

    serve::ServeOptions serve_base = MakeServeOptions(1);
    serve_base.tenants = {{"gold", 4}, {"free", 1}};

    serve::WorkloadSpec spec;
    spec.num_requests = requests;
    spec.offered_qps = 2.0 * base_qps;
    spec.tenant_share = {0.5, 0.5};
    spec.num_query_rows = static_cast<uint32_t>(workload.queries.rows());
    spec.seed = kBenchSeed + 99;
    auto trace = serve::GeneratePoissonTrace(spec);
    PIMINE_CHECK(trace.ok()) << trace.status().ToString();

    // Fault-free reference on the same replicated geometry.
    auto clean_server = serve::PimServer::Build(
        workload.data, Distance::kEuclidean, fleet_options, serve_base);
    PIMINE_CHECK(clean_server.ok()) << clean_server.status().ToString();
    const serve::ReplayOutput clean =
        MustReplay(**clean_server, *trace, workload.queries);

    Banner("Chaos: seeded device deaths vs replica failover (shards=" +
           std::to_string(kChaosShards) + ", replicas=" +
           std::to_string(kChaosReplicas) + ")");
    TablePrinter chaos_table({"deaths", "served", "shed q", "degraded",
                              "injected", "recovered", "shed ops", "slack",
                              "backoff ns", "balanced"});

    const std::vector<int> deaths_sweep = {0, 1, 2, 4};
    for (size_t ci = 0; ci < deaths_sweep.size(); ++ci) {
      const int deaths = deaths_sweep[ci];
      serve::ServeOptions opts = serve_base;
      opts.chaos.device_deaths = deaths;
      opts.chaos.horizon_ns = 100'000;  // Deaths land mid-trace.
      opts.chaos.seed = kBenchSeed;
      opts.degrade_watermark = 0.75;  // One dead replica of two trips it.
      auto srv = serve::PimServer::Build(workload.data, Distance::kEuclidean,
                                         fleet_options, opts);
      PIMINE_CHECK(srv.ok()) << srv.status().ToString();
      Timer timer;
      const serve::ReplayOutput output =
          MustReplay(**srv, *trace, workload.queries);
      const double wall_ms = timer.ElapsedMillis();
      const FailoverStats fo = (*srv)->engine().FleetStats().failover;
      PIMINE_CHECK(fo.Balanced()) << "failover imbalance at deaths=" << deaths
                                  << ": " << fo.ToString();

      if (deaths == 0) {
        // chaos.enabled() is false: the run must be byte-for-byte the
        // chaos-free fleet (the "chaos off => pre-chaos server" invariant).
        PIMINE_CHECK(output.results.size() == clean.results.size());
        for (size_t i = 0; i < output.results.size(); ++i) {
          PIMINE_CHECK(output.results[i].neighbors ==
                       clean.results[i].neighbors)
              << "deaths=0 diverged from the chaos-free fleet at query " << i;
        }
        PIMINE_CHECK(!fo.Any()) << "deaths=0 recorded failover activity";
      } else if (ci + 1 == deaths_sweep.size()) {
        // Heaviest row: the seeded schedule must keep results and failover
        // accounting bit-identical across scheduler thread counts.
        serve::ServeOptions opts4 = opts;
        opts4.scheduler_threads = 4;
        auto srv4 = serve::PimServer::Build(
            workload.data, Distance::kEuclidean, fleet_options, opts4);
        PIMINE_CHECK(srv4.ok()) << srv4.status().ToString();
        const serve::ReplayOutput out4 =
            MustReplay(**srv4, *trace, workload.queries);
        PIMINE_CHECK(out4.results.size() == output.results.size());
        for (size_t i = 0; i < output.results.size(); ++i) {
          PIMINE_CHECK(out4.results[i].status.ok() ==
                           output.results[i].status.ok() &&
                       out4.results[i].neighbors ==
                           output.results[i].neighbors)
              << "chaos replay diverged across thread counts at query " << i;
        }
        const FailoverStats fo4 = (*srv4)->engine().FleetStats().failover;
        PIMINE_CHECK(
            fo4.injected == fo.injected && fo4.recovered == fo.recovered &&
            fo4.shed == fo.shed && fo4.attempts_failed == fo.attempts_failed &&
            fo4.chaos_denied == fo.chaos_denied &&
            fo4.device_faults == fo.device_faults &&
            fo4.strikes == fo.strikes && fo4.struck_out == fo.struck_out &&
            fo4.slack_fills == fo.slack_fills &&
            fo4.retry_messages == fo.retry_messages &&
            fo4.retry_bytes == fo.retry_bytes &&
            fo4.backoff_ns == fo.backoff_ns)
            << "failover accounting diverged across thread counts: "
            << fo.ToString() << " vs " << fo4.ToString();
      }

      const serve::ServeStats& stats = output.stats;
      chaos_table.AddRow({std::to_string(deaths), std::to_string(stats.served),
                          std::to_string(stats.shed_queries),
                          std::to_string(stats.degraded_batches),
                          std::to_string(fo.injected),
                          std::to_string(fo.recovered),
                          std::to_string(fo.shed),
                          std::to_string(fo.slack_fills),
                          std::to_string(fo.backoff_ns),
                          fo.Balanced() ? "yes" : "NO"});

      chaos_json << (ci == 0 ? "" : ",\n")
                 << "    {\"deaths\": " << deaths
                 << ", \"shards\": " << kChaosShards
                 << ", \"replicas\": " << kChaosReplicas
                 << ", \"served\": " << stats.served
                 << ", \"shed_queries\": " << stats.shed_queries
                 << ", \"degraded_dispatches\": " << stats.degraded_batches
                 << ", \"injected\": " << fo.injected
                 << ", \"recovered\": " << fo.recovered
                 << ", \"shed_ops\": " << fo.shed
                 << ", \"attempts_failed\": " << fo.attempts_failed
                 << ", \"slack_fills\": " << fo.slack_fills
                 << ", \"retry_messages\": " << fo.retry_messages
                 << ", \"backoff_ns\": " << fo.backoff_ns
                 << ", \"failover_ns\": " << Fmt(fo.failover_ns, 0)
                 << ", \"balanced\": " << (fo.Balanced() ? "true" : "false")
                 << ", \"wall_ms\": " << Fmt(wall_ms, 4) << "}";
    }
    chaos_table.Print();
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"pimine.bench.serve.v1\",\n"
       << "  \"dataset\": \"MSD\",\n"
       << "  \"n\": " << workload.data.rows() << ",\n"
       << "  \"d\": " << workload.data.cols() << ",\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"max_batch\": " << kMaxBatch << ",\n"
       << "  \"device_batch\": " << kMaxBatch << ",\n"
       << "  \"max_wait_ns\": " << kMaxWaitNs << ",\n"
       << "  \"serial_query_ns\": " << Fmt(serial_ns, 1) << ",\n"
       << "  \"marginal_query_ns\": " << Fmt(marginal_ns, 1) << ",\n"
       << "  \"identical_across_threads\": "
       << (identical_across_threads ? "true" : "false") << ",\n"
       << "  \"sweep\": [\n" << sweep_json.str() << "\n  ],\n";
  if (chaos_mode) {
    json << "  \"chaos_sweep\": [\n" << chaos_json.str() << "\n  ],\n";
  }
  json << "  \"note\": \"modeled_queries_per_s = served/makespan on the "
          "virtual clock; it rises with offered load because direct-ED "
          "operands (d > crossbar_dim) pipeline with stages > 1, so "
          "coalescing amortizes stage_ns*(stages+Q-1). Segment-mode "
          "datasets (s <= crossbar_dim) have stages == 1 and batching "
          "then improves utilization, not per-query latency. wall_ms is "
          "host simulation time, not serving latency.\"\n"
       << "}\n";
  std::cout << "\n" << json.str();
  std::ofstream out("BENCH_serve.json");
  PIMINE_CHECK(out.good()) << "cannot write BENCH_serve.json";
  out << json.str();
  std::cerr << "wrote BENCH_serve.json\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main(int argc, char** argv) { return pimine::bench::Main(argc, argv); }
