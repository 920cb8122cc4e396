// Online serving front-end: a long-running pimine kNN service with
// continuous device batching (DESIGN.md section 10).
//
//   pimine_serve replay --dataset=MSD --requests=512 --qps=2e6
//       [--max_batch=16] [--max_wait_us=1000] [--deadline_us=0]
//       [--capacity=1024] [--threads=1] [--k=10] [--device_batch=16]
//       [--shards=1] [--tenants=gold:4,free:1] [--shares=4,1] [--seed=42]
//       [--distance=ED|CS|PCC] [--metrics_out=m.prom]
//
//   pimine_serve live --dataset=MSD --requests=256 --clients=4
//       [--max_batch=16] [--max_wait_us=200] [--capacity=1024]
//       [--threads=2] [--k=10] [--device_batch=16]
//       [--metrics_port=9464] [--linger_ms=0]
//
// `replay` drives the scheduler from a deterministic recorded arrival
// trace against the virtual clock: identical flags print identical
// numbers, byte for byte, for any --threads. `live` starts real scheduler
// workers and hammers them from concurrent client threads (wall-clock
// timings; a smoke/demo mode, not a reproducible measurement).
//
// --metrics_port mounts the embedded read-only HTTP endpoint on
// 127.0.0.1 with GET /metrics (Prometheus exposition), /healthz,
// /timeseries.json (rolling windows) and /events.jsonl (sampled query
// events); --linger_ms keeps serving mounted after the clients finish so
// an external scraper can read the end-of-run state (the CI smoke job).
// Replay instead writes the deterministic telemetry documents with
// --timeseries_out / --events_out (--event_sample enables sampling).

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/similarity.h"
#include "obs/exposition_server.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "util/flags.h"

namespace pimine {
namespace cli {
namespace {

using bench::CrossbarsFromFlags;
using bench::DistanceFromFlags;
using bench::Fmt;
using bench::LoadWorkload;
using bench::TablePrinter;

int Usage() {
  std::cerr <<
      "usage: pimine_serve <replay|live> [--flags]\n"
      "  replay  --dataset=<name> [--requests=512] [--qps=2e6] [--seed=42]\n"
      "          [--max_batch=16] [--max_wait_us=1000] [--deadline_us=0]\n"
      "          [--capacity=1024] [--threads=1] [--k=10] [--n=0]\n"
      "          [--queries=64] [--device_batch=16] [--shards=1]\n"
      "          [--distance=ED|CS|PCC] [--tenants=gold:4,free:1]\n"
      "          [--shares=4,1] [--metrics_out=m.prom]\n"
      "          [--timeseries_out=ts.json] [--events_out=ev.jsonl]\n"
      "          [--event_sample=0.0] [--event_seed=0]\n"
      "          [--replicas=1] [--chaos_deaths=0] [--chaos_stalls=0]\n"
      "          [--chaos_link_faults=0] [--chaos_horizon_us=0]\n"
      "          [--chaos_seed=0xC7A05] [--batch_deadline_us=0]\n"
      "          [--degrade_watermark=0.0]\n"
      "          [--mutate_trace=i:64,d:0-9,c] [--compact_watermark=0.0]\n"
      "          [--crossbars=0 (0=scaled)]\n"
      "  live    same scheduler flags plus [--clients=4]\n"
      "          [--metrics_port=9464] [--linger_ms=0]\n"
      "\n"
      "--mutate_trace applies a mutation trace before the replay: the last\n"
      "rows of the dataset become the insert stream (i:N appends N of\n"
      "them), d:A / d:A-B tombstone physical rows, c compacts. When\n"
      "--compact_watermark > 0 the server also compacts whenever the\n"
      "tombstone fraction reaches it.\n";
  return 2;
}

/// Reports a misused flag, then prints usage (exit code 2).
int UsageError(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return Usage();
}

/// A failed server build or replay: flag values the library rejects
/// (InvalidArgument, e.g. --max_batch=0 or a zero tenant weight), a dataset
/// the PIM array cannot hold (CapacityExceeded) and a corpus --mutate_trace
/// left with fewer than --k live rows (FailedPrecondition) are misuse and
/// exit 2 through UsageError; any other failure is a bug and aborts.
int RunError(const Status& status) {
  PIMINE_CHECK(status.code() == StatusCode::kInvalidArgument ||
               status.code() == StatusCode::kCapacityExceeded ||
               status.code() == StatusCode::kFailedPrecondition)
      << status.ToString();
  return UsageError(status);
}

/// "--tenants=gold:4,free:1" -> weighted TenantSpecs. A weight must be a
/// decimal integer that fits 32 bits.
Result<std::vector<serve::TenantSpec>> ParseTenants(const std::string& spec) {
  std::vector<serve::TenantSpec> tenants;
  if (spec.empty()) return tenants;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    serve::TenantSpec tenant;
    const size_t colon = item.find(':');
    tenant.name = item.substr(0, colon);
    if (colon != std::string::npos) {
      const std::string weight = item.substr(colon + 1);
      uint64_t value = 0;
      const auto [end, ec] = std::from_chars(
          weight.data(), weight.data() + weight.size(), value);
      if (weight.empty() || ec != std::errc() ||
          end != weight.data() + weight.size() || value > UINT32_MAX) {
        return Status::InvalidArgument("--tenants item '" + item +
                                       "': weight must be an integer in "
                                       "[0, 2^32)");
      }
      tenant.weight = static_cast<uint32_t>(value);
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

/// "--shares=4,1" -> relative offered-traffic shares per tenant, each a
/// finite number.
Result<std::vector<double>> ParseShares(const std::string& spec) {
  std::vector<double> shares;
  if (spec.empty()) return shares;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    errno = 0;
    const double share = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size() || errno != 0 ||
        !std::isfinite(share)) {
      return Status::InvalidArgument("--shares item '" + item +
                                     "' is not a finite number");
    }
    shares.push_back(share);
  }
  return shares;
}

Result<serve::ServeOptions> ServeFromFlags(const FlagParser& flags) {
  serve::ServeOptions options;
  options.max_batch = static_cast<size_t>(flags.GetInt("max_batch", 16));
  options.max_wait_ns =
      static_cast<uint64_t>(flags.GetInt("max_wait_us", 1000)) * 1000;
  options.deadline_ns =
      static_cast<uint64_t>(flags.GetInt("deadline_us", 0)) * 1000;
  options.queue_capacity = static_cast<size_t>(flags.GetInt("capacity", 1024));
  options.scheduler_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.k = static_cast<int>(flags.GetInt("k", 10));
  options.exec.device_batch =
      static_cast<size_t>(flags.GetInt("device_batch", 16));
  PIMINE_ASSIGN_OR_RETURN(options.tenants,
                          ParseTenants(flags.GetString("tenants", "")));
  options.event_sample_rate = flags.GetDouble("event_sample", 0.0);
  options.event_seed = static_cast<uint64_t>(flags.GetInt("event_seed", 0));
  // Robustness plane: seeded chaos schedule + ladder deadline + degraded
  // mode (all off by default; chaos-off runs are bit-identical to before).
  options.chaos.device_deaths =
      static_cast<int>(flags.GetInt("chaos_deaths", 0));
  options.chaos.stalls = static_cast<int>(flags.GetInt("chaos_stalls", 0));
  options.chaos.link_faults =
      static_cast<int>(flags.GetInt("chaos_link_faults", 0));
  options.chaos.horizon_ns =
      static_cast<uint64_t>(flags.GetInt("chaos_horizon_us", 0)) * 1000;
  options.chaos.seed =
      static_cast<uint64_t>(flags.GetInt("chaos_seed", 0xC7A05));
  options.batch_deadline_ns =
      static_cast<uint64_t>(flags.GetInt("batch_deadline_us", 0)) * 1000;
  options.degrade_watermark = flags.GetDouble("degrade_watermark", 0.0);
  options.compact_watermark = flags.GetDouble("compact_watermark", 0.0);
  return options;
}

void PrintServeStats(const serve::ServeStats& stats) {
  TablePrinter table({"metric", "value"});
  table.AddRow({"submitted", std::to_string(stats.submitted)});
  table.AddRow({"served", std::to_string(stats.served)});
  table.AddRow({"rejected (backpressure)", std::to_string(stats.rejected)});
  table.AddRow({"deadline misses", std::to_string(stats.deadline_misses)});
  if (stats.shed_queries > 0 || stats.degraded_batches > 0) {
    table.AddRow({"shed (degraded mode)", std::to_string(stats.shed_queries)});
    table.AddRow(
        {"degraded dispatches", std::to_string(stats.degraded_batches)});
  }
  table.AddRow({"dispatches", std::to_string(stats.batches)});
  table.AddRow({"mean batch occupancy", Fmt(stats.mean_batch_occupancy)});
  table.AddRow({"max queue depth", std::to_string(stats.max_queue_depth)});
  table.AddRow({"makespan_ms", Fmt(stats.makespan_ns / 1e6, 4)});
  if (stats.makespan_ns > 0) {
    table.AddRow({"throughput (queries/s)",
                  Fmt(stats.served * 1e9 / stats.makespan_ns, 0)});
  }
  table.AddRow({"device pipelined_ms", Fmt(stats.pipelined_ns / 1e6, 4)});
  table.AddRow({"PIM model_ms", Fmt(stats.exec.pim_ns / 1e6, 4)});
  table.AddRow({"wall_ms (measured)", Fmt(stats.exec.wall_ms)});
  table.AddRow({"wait histogram", stats.wait_hist.Summary()});
  table.AddRow({"latency histogram", stats.latency_hist.Summary()});
  table.Print();
  if (stats.tenants.size() > 1) {
    TablePrinter tenants({"tenant", "submitted", "served", "rejected",
                          "misses", "latency"});
    for (const serve::TenantServeStats& t : stats.tenants) {
      tenants.AddRow({t.name, std::to_string(t.submitted),
                      std::to_string(t.served), std::to_string(t.rejected),
                      std::to_string(t.deadline_misses),
                      t.latency.Summary()});
    }
    tenants.Print();
  }
}

void MaybeDumpMetrics(const FlagParser& flags) {
  const std::string path = flags.GetString("metrics_out", "");
  obs::Obs* o = obs::Obs::Get();
  if (o == nullptr) return;
  if (!path.empty()) {
    std::ofstream out(path);
    PIMINE_CHECK(out.good()) << "cannot open --metrics_out " << path;
    const bool as_json = path.ends_with(".json");
    out << (as_json ? o->metrics().ToJson() : o->metrics().ToPrometheus());
    std::cout << "metrics: " << path << "\n";
  }
  obs::Obs::Disable();
}

int RunReplay(const FlagParser& flags) {
  const Status known = flags.CheckKnown(
      {"dataset", "requests", "qps", "seed", "max_batch", "max_wait_us",
       "deadline_us", "capacity", "threads", "k", "n", "queries",
       "device_batch", "shards", "replicas", "distance", "tenants", "shares",
       "metrics_out", "timeseries_out", "events_out", "event_sample",
       "event_seed", "chaos_deaths", "chaos_stalls", "chaos_link_faults",
       "chaos_horizon_us", "chaos_seed", "batch_deadline_us",
       "degrade_watermark", "mutate_trace", "compact_watermark",
       "crossbars"});
  if (!known.ok()) return UsageError(known);
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "MSD"), flags.GetInt("n", 0),
                   flags.GetInt("queries", 64));
  EngineOptions engine = CrossbarsFromFlags(flags, workload);
  engine.shard.shards = static_cast<int>(flags.GetInt("shards", 1));
  engine.shard.replicas = static_cast<int>(flags.GetInt("replicas", 1));
  const Result<Distance> distance = DistanceFromFlags(flags);
  if (!distance.ok()) return UsageError(distance.status());
  const Result<serve::ServeOptions> serve_options = ServeFromFlags(flags);
  if (!serve_options.ok()) return UsageError(serve_options.status());

  // Mutable-dataset mode: split the workload into a base corpus plus an
  // insert stream (its LAST `total inserts` rows), replay the mutation
  // trace against the served corpus, then serve what remains.
  std::vector<MutationOp> mutation_ops;
  std::unique_ptr<MutableDataset> dataset;
  FloatMatrix insert_stream;
  const std::string mutate_trace = flags.GetString("mutate_trace", "");
  if (!mutate_trace.empty()) {
    auto parsed = ParseMutationTrace(mutate_trace);
    if (!parsed.ok()) return UsageError(parsed.status());
    mutation_ops = std::move(*parsed);
    size_t inserts = 0;
    for (const MutationOp& op : mutation_ops) {
      if (op.kind == MutationOp::Kind::kInsert) inserts += op.count;
    }
    if (inserts >= workload.data.rows()) {
      return UsageError(Status::InvalidArgument(
          "--mutate_trace inserts " + std::to_string(inserts) +
          " rows but the dataset only has " +
          std::to_string(workload.data.rows())));
    }
    const size_t base_rows = workload.data.rows() - inserts;
    const size_t d = workload.data.cols();
    FloatMatrix base(base_rows, d);
    insert_stream = FloatMatrix(inserts, d);
    for (size_t i = 0; i < workload.data.rows(); ++i) {
      const auto src = workload.data.row(i);
      auto dst = i < base_rows ? base.mutable_row(i)
                               : insert_stream.mutable_row(i - base_rows);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    dataset = std::make_unique<MutableDataset>(std::move(base));
  }

  serve::WorkloadSpec spec;
  spec.num_requests = static_cast<size_t>(flags.GetInt("requests", 512));
  spec.offered_qps = flags.GetDouble("qps", 2e6);
  Result<std::vector<double>> shares =
      ParseShares(flags.GetString("shares", ""));
  if (!shares.ok()) return UsageError(shares.status());
  spec.tenant_share = std::move(*shares);
  if (spec.tenant_share.empty()) {
    spec.tenant_share.assign(serve_options->num_tenants(), 1.0);
  }
  spec.num_query_rows = static_cast<uint32_t>(workload.queries.rows());
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  if (!flags.GetString("metrics_out", "").empty()) obs::Obs::Enable();

  auto trace = serve::GeneratePoissonTrace(spec);
  if (!trace.ok()) return RunError(trace.status());
  const FloatMatrix& served_data =
      dataset != nullptr ? dataset->corpus() : workload.data;
  auto server =
      serve::PimServer::Build(served_data, *distance, engine, *serve_options);
  if (!server.ok()) return RunError(server.status());
  if (dataset != nullptr) {
    PIMINE_CHECK_OK((*server)->AttachMutable(dataset.get()));
    // One op at a time so the compaction watermark is evaluated between
    // top-level mutations (never from inside a listener callback). A trace
    // the corpus rejects (a row out of range or deleted twice, the last
    // live row) is misuse of --mutate_trace.
    size_t stream_pos = 0;
    for (const MutationOp& op : mutation_ops) {
      const Status applied = ApplyMutationTrace(dataset.get(), {&op, 1},
                                                insert_stream, &stream_pos);
      if (!applied.ok()) return UsageError(applied);
      PIMINE_CHECK_OK((*server)->MaybeCompact());
    }
    std::cout << "mutations: " << mutate_trace << " -> "
              << dataset->live_rows() << " live rows ("
              << dataset->tombstoned_rows() << " tombstoned), "
              << (*server)->watermark_compactions()
              << " watermark compactions\n";
  }
  auto output = (*server)->Replay(*trace, workload.queries);
  if (!output.ok()) return RunError(output.status());

  std::cout << "replay on " << workload.spec.name << " ("
            << workload.data.rows() << " x " << workload.data.cols()
            << "), " << spec.num_requests << " requests at "
            << Fmt(spec.offered_qps, 0) << " q/s offered, max_batch="
            << serve_options->max_batch << ", threads="
            << serve_options->scheduler_threads << "\n";
  PrintServeStats(output->stats);
  const std::string ts_path = flags.GetString("timeseries_out", "");
  if (!ts_path.empty()) {
    std::ofstream out(ts_path);
    PIMINE_CHECK(out.good()) << "cannot open --timeseries_out " << ts_path;
    out << output->timeseries_json;
    std::cout << "timeseries: " << ts_path << "\n";
  }
  const std::string ev_path = flags.GetString("events_out", "");
  if (!ev_path.empty()) {
    std::ofstream out(ev_path);
    PIMINE_CHECK(out.good()) << "cannot open --events_out " << ev_path;
    out << output->events_jsonl;
    std::cout << "events: " << ev_path << "\n";
  }
  MaybeDumpMetrics(flags);
  return 0;
}

int RunLive(const FlagParser& flags) {
  const Status known = flags.CheckKnown(
      {"dataset", "requests", "clients", "max_batch", "max_wait_us",
       "deadline_us", "capacity", "threads", "k", "n", "queries",
       "device_batch", "shards", "replicas", "distance", "tenants",
       "metrics_port", "linger_ms", "event_sample", "event_seed",
       "chaos_deaths", "chaos_stalls", "chaos_link_faults",
       "chaos_horizon_us", "chaos_seed", "batch_deadline_us",
       "degrade_watermark", "compact_watermark", "crossbars"});
  if (!known.ok()) return UsageError(known);
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "MSD"), flags.GetInt("n", 0),
                   flags.GetInt("queries", 64));
  EngineOptions engine = CrossbarsFromFlags(flags, workload);
  engine.shard.shards = static_cast<int>(flags.GetInt("shards", 1));
  engine.shard.replicas = static_cast<int>(flags.GetInt("replicas", 1));
  const Result<Distance> distance = DistanceFromFlags(flags);
  if (!distance.ok()) return UsageError(distance.status());
  const Result<serve::ServeOptions> serve_options = ServeFromFlags(flags);
  if (!serve_options.ok()) return UsageError(serve_options.status());
  const size_t requests = static_cast<size_t>(flags.GetInt("requests", 256));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));

  auto server = serve::PimServer::Build(workload.data, *distance, engine,
                                        *serve_options);
  if (!server.ok()) return RunError(server.status());
  PIMINE_CHECK_OK((*server)->Start());

  // Optional live telemetry endpoint: handlers snapshot server state, so
  // mounting it cannot change what is served (DESIGN.md section 11).
  std::unique_ptr<obs::ExpositionServer> exposition;
  if (flags.GetInt("metrics_port", -1) >= 0) {
    serve::PimServer* s = server->get();
    std::vector<obs::HttpRoute> routes;
    routes.push_back({"/metrics", "text/plain; version=0.0.4; charset=utf-8",
                      [s] { return s->MetricsText(); }});
    routes.push_back({"/healthz", "text/plain; charset=utf-8",
                      [s] { return s->HealthzBody(); }});
    routes.push_back({"/timeseries.json", "application/json",
                      [s] { return s->TimeSeriesJson(); }});
    routes.push_back({"/events.jsonl", "application/jsonl",
                      [s] { return s->EventsJsonl(); }});
    auto started = obs::ExpositionServer::Start(
        static_cast<int>(flags.GetInt("metrics_port", -1)),
        std::move(routes));
    PIMINE_CHECK(started.ok()) << started.status().ToString();
    exposition = std::move(*started);
    std::cout << "telemetry: http://127.0.0.1:" << exposition->port()
              << "/metrics\n"
              << std::flush;
  }

  std::vector<std::thread> client_threads;
  std::vector<uint64_t> ok_counts(clients, 0);
  std::vector<uint64_t> rejected_counts(clients, 0);
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      const uint32_t tenant =
          static_cast<uint32_t>(c % serve_options->num_tenants());
      for (size_t i = c; i < requests; i += clients) {
        const auto row = workload.queries.row(i % workload.queries.rows());
        auto result = (*server)->Submit(tenant, row);
        if (result.ok()) {
          ++ok_counts[c];
        } else {
          ++rejected_counts[c];
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  // Keep the server (and the telemetry endpoint) mounted so an external
  // scraper can read the complete end-of-run state before shutdown.
  const int64_t linger_ms = flags.GetInt("linger_ms", 0);
  if (linger_ms > 0) {
    std::cout << "lingering " << linger_ms << " ms\n" << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  (*server)->Stop();
  if (exposition != nullptr) exposition->Stop();

  const serve::ServeStats stats = (*server)->LiveStats();
  std::cout << "live on " << workload.spec.name << ": " << clients
            << " clients x " << requests << " requests, threads="
            << serve_options->scheduler_threads << "\n";
  PrintServeStats(stats);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) return UsageError(flags_or.status());
  // Counts, sizes and durations; seeds and --metrics_port (-1 = off) take
  // any integer.
  const Status negative = flags_or->CheckNonNegative(
      {"requests", "queries", "n", "clients", "max_batch", "device_batch",
       "capacity", "threads", "k", "shards", "replicas", "max_wait_us",
       "deadline_us", "batch_deadline_us", "chaos_deaths", "chaos_stalls",
       "chaos_link_faults", "chaos_horizon_us", "linger_ms", "crossbars"});
  if (!negative.ok()) return UsageError(negative);
  // An unknown --dataset is misuse, rejected before LoadWorkload aborts.
  const Result<DatasetSpec> dataset =
      Catalog::Find(flags_or->GetString("dataset", "MSD"));
  if (!dataset.ok()) {
    return UsageError(Status::InvalidArgument(dataset.status().message()));
  }
  if (command == "replay") return RunReplay(*flags_or);
  if (command == "live") return RunLive(*flags_or);
  std::cerr << "unknown command '" << command << "'\n";
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace pimine

int main(int argc, char** argv) { return pimine::cli::Main(argc, argv); }
