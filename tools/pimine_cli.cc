// pimine command-line driver: run any of the library's mining algorithms
// against the paper's dataset profiles (or your own sizes) from the shell.
//
//   pimine_cli knn     --dataset=MSD --algorithm=fnn-pim --k=10 [--n=20000]
//   pimine_cli kmeans  --dataset=NUS-WIDE --algorithm=yinyang --k=64 --pim
//   pimine_cli outlier --dataset=MSD --k=5 --top=10 [--pim]
//   pimine_cli motif   --length=4000 --window=64 [--pim]
//   pimine_cli plan    --dataset=MSD --crossbars=512
//   pimine_cli config
//
// Every run prints measured wall time, modeled time (the NVSim+Quartz-style
// composition), and the operation counts behind it.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/memory_planner.h"
#include "obs/obs.h"
#include "core/partitioned_engine.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/motif.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/outlier.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"
#include "sim/platform.h"
#include "util/flags.h"
#include "util/random.h"

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
      "usage: pimine_cli <command> [--flags]\n"
      "commands:\n"
      "  knn      --dataset=<name> --algorithm=<standard|ost|sm|fnn>[-pim]\n"
      "           [--k=10] [--n=0] [--queries=20] [--distance=ED|CS|PCC]\n"
      "           [--alpha=1e6] [--crossbars=0 (0=scaled)] [--optimize]\n"
      "           [--threads=1] [--device_batch=1]\n"
      "           [--shards=1] [--placement=contiguous|hash|cluster]\n"
      "           [--fault_rate=0] [--fault_seed=...] \n"
      "           [--fault_recovery=exact|slack|fail|none]\n"
      "  kmeans   --dataset=<name> --algorithm=<standard|elkan|drake|\n"
      "           yinyang|hamerly> [--k=64] [--n=0] [--iterations=5]\n"
      "           [--pim] [--seed=42] [--threads=1] [--device_batch=1]\n"
      "           [--shards=1]\n"
      "           [--placement=contiguous|hash|cluster]\n"
      "           [--fault_rate=0] [--fault_seed=...]\n"
      "           [--fault_recovery=exact|slack|fail|none]\n"
      "  outlier  --dataset=<name> [--k=5] [--top=10] [--n=4000] [--pim]\n"
      "  motif    [--length=4000] [--window=64] [--pim] [--seed=1]\n"
      "  plan     --dataset=<name> [--n=0] [--crossbars=131072]\n"
      "           [--copies=2]\n"
      "  config   (prints the Table 1/5/6 configuration)\n"
      "observability (knn / kmeans):\n"
      "  --trace_out=t.json    chrome://tracing JSON (modeled-time spans)\n"
      "  --metrics_out=m.prom  metrics dump (.json => JSON, else Prometheus)\n"
      "  --hist=latency        print the latency histogram summary\n"
      "  --trace_wall --trace_device --trace_sched   opt-in physical events\n";
  return 2;
}

/// Reports a misused flag, then prints usage (exit code 2).
int UsageError(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return Usage();
}

/// A failed Prepare/Search/Run/Detect/Find: flag values the algorithm
/// rejects (InvalidArgument, e.g. --k=0) and a dataset the PIM array cannot
/// hold (CapacityExceeded) are misuse and exit 2 through UsageError; any
/// other failure is a bug and aborts.
int RunError(const Status& status) {
  PIMINE_CHECK(status.code() == StatusCode::kInvalidArgument ||
               status.code() == StatusCode::kCapacityExceeded)
      << status.ToString();
  return UsageError(status);
}

/// Observability flags shared by the knn and kmeans commands. Tracing is
/// enabled before Prepare (so offline device programming is captured) and
/// exported after the run.
struct ObsCliConfig {
  std::string trace_out;
  std::string metrics_out;
  std::string hist;
  bool enabled() const {
    return !trace_out.empty() || !metrics_out.empty() || !hist.empty();
  }
};

Result<ObsCliConfig> SetupObservability(const FlagParser& flags) {
  ObsCliConfig cfg;
  cfg.trace_out = flags.GetString("trace_out", "");
  cfg.metrics_out = flags.GetString("metrics_out", "");
  cfg.hist = flags.GetString("hist", "");
  if (!cfg.hist.empty() && cfg.hist != "latency") {
    return Status::InvalidArgument("unknown --hist '" + cfg.hist +
                                   "' (want latency)");
  }
  if (!cfg.enabled()) return cfg;
  obs::ObsOptions options;
  options.trace.wall_clock = flags.GetBool("trace_wall", false);
  options.trace.device_events = flags.GetBool("trace_device", false);
  options.trace.sched_events = flags.GetBool("trace_sched", false);
  obs::Obs::Enable(options);
  return cfg;
}

void FinishObservability(const ObsCliConfig& cfg, const RunStats& stats) {
  obs::Obs* o = obs::Obs::Get();
  if (o == nullptr) return;
  if (!cfg.trace_out.empty()) {
    std::ofstream out(cfg.trace_out);
    PIMINE_CHECK(out.good()) << "cannot open --trace_out " << cfg.trace_out;
    out << o->trace().ToChromeJson();
    std::cout << "trace: " << cfg.trace_out << " (" << o->trace().NumEvents()
              << " events; load via chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!cfg.metrics_out.empty()) {
    std::ofstream out(cfg.metrics_out);
    PIMINE_CHECK(out.good()) << "cannot open --metrics_out "
                             << cfg.metrics_out;
    const bool as_json = cfg.metrics_out.ends_with(".json");
    out << (as_json ? o->metrics().ToJson() : o->metrics().ToPrometheus());
    std::cout << "metrics: " << cfg.metrics_out << " ("
              << (as_json ? "JSON" : "Prometheus") << ")\n";
  }
  if (cfg.hist == "latency") {
    std::cout << "latency histogram (modeled ns): "
              << stats.latency_hist.Summary() << "\n";
  }
  obs::Obs::Disable();
}

Result<EngineOptions> EngineFromFlags(const FlagParser& flags,
                                      const bench::BenchWorkload& workload) {
  EngineOptions options = CrossbarsFromFlags(flags, workload);
  options.alpha = flags.GetDouble("alpha", options.alpha);
  // --fault_rate drives both stuck-cell and transient rates; recovery keeps
  // results exact unless --fault_recovery overrides the verify mode.
  const double fault_rate = flags.GetDouble("fault_rate", 0.0);
  options.fault_config.cell_rate = fault_rate;
  options.fault_config.transient_rate = fault_rate;
  options.fault_config.seed = static_cast<uint64_t>(flags.GetInt(
      "fault_seed", static_cast<int64_t>(options.fault_config.seed)));
  const std::string recovery = flags.GetString("fault_recovery", "exact");
  if (recovery == "exact") {
    options.recovery.verify_mode = VerifyMode::kHostExact;
  } else if (recovery == "slack") {
    options.recovery.verify_mode = VerifyMode::kBoundSlack;
  } else if (recovery == "fail") {
    options.recovery.verify_mode = VerifyMode::kFailOp;
  } else if (recovery == "none") {
    options.recovery.verify_mode = VerifyMode::kNone;
  } else {
    return Status::InvalidArgument("unknown --fault_recovery '" + recovery +
                                   "' (want exact|slack|fail|none)");
  }
  // --shards / --placement pick the fleet geometry (DESIGN.md section 9).
  // Results are bit-identical for every shard count; only the fleet
  // interconnect rows below vary.
  options.shard.shards = static_cast<int>(flags.GetInt("shards", 1));
  PIMINE_ASSIGN_OR_RETURN(
      options.shard.placement,
      ParseShardPlacement(flags.GetString("placement", "contiguous")));
  // Checked here, before the PIM/host branch, so a host-only run rejects
  // the engine flags a PIM run would reject instead of ignoring them.
  PIMINE_RETURN_IF_ERROR(options.Validate());
  return options;
}

/// --threads / --device_batch map onto ExecPolicy; the defaults reproduce
/// the paper's serial per-query measurement setup.
ExecPolicy ExecFromFlags(const FlagParser& flags) {
  ExecPolicy policy;
  policy.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  policy.device_batch =
      static_cast<size_t>(flags.GetInt("device_batch", 1));
  return policy;
}

void PrintRunStats(const RunStats& stats, const HostCostModel& model) {
  const ModeledTime modeled = ComposeModeledTime(stats, model);
  TablePrinter table({"metric", "value"});
  table.AddRow({"wall_ms (measured)", Fmt(stats.wall_ms)});
  table.AddRow({"model_ms (host+PIM)", Fmt(modeled.total_ms())});
  table.AddRow({"  host model_ms", Fmt(modeled.host.total_ns() / 1e6)});
  table.AddRow({"  PIM model_ms", Fmt(stats.pim_ns / 1e6, 4)});
  table.AddRow({"exact distance computations",
                std::to_string(stats.exact_count)});
  table.AddRow({"bound evaluations", std::to_string(stats.bound_count)});
  table.AddRow({"bytes from memory",
                std::to_string(stats.traffic.bytes_from_memory)});
  table.AddRow({"PIM results loaded",
                std::to_string(stats.traffic.pim_results_loaded)});
  if (stats.fault.Any()) {
    table.AddRow({"faults injected", std::to_string(stats.fault.injected)});
    table.AddRow({"faults detected", std::to_string(stats.fault.detected)});
    table.AddRow({"faults escaped", std::to_string(stats.fault.escaped)});
    table.AddRow({"fault retries", std::to_string(stats.fault.retries)});
    table.AddRow({"rows remapped",
                  std::to_string(stats.fault.remapped_rows)});
    table.AddRow({"host escalations",
                  std::to_string(stats.fault.escalated_to_host)});
    table.AddRow({"recovery model_ms", Fmt(stats.fault.recovery_ns / 1e6, 4)});
  }
  if (stats.fleet.Any()) {
    table.AddRow({"fleet shards",
                  std::to_string(stats.fleet.shards) + " (" +
                      std::string(ShardPlacementName(stats.fleet.placement)) +
                      ")"});
    table.AddRow({"scatter messages",
                  std::to_string(stats.fleet.scatter_messages)});
    table.AddRow({"gather messages",
                  std::to_string(stats.fleet.gather_messages)});
    table.AddRow({"reduce messages",
                  std::to_string(stats.fleet.reduce_messages)});
    table.AddRow({"fleet fail-overs", std::to_string(stats.fleet.failovers)});
    table.AddRow({"interconnect model_ms",
                  Fmt(stats.fleet.InterconnectNs() / 1e6, 4)});
  }
  table.Print();
}

int RunKnn(const FlagParser& flags) {
  const Status known = flags.CheckKnown(
      {"dataset", "algorithm", "k", "n", "queries", "distance", "alpha",
       "crossbars", "optimize", "threads", "device_batch", "shards",
       "placement", "fault_rate", "fault_seed", "fault_recovery", "trace_out",
       "metrics_out", "hist", "trace_wall", "trace_device", "trace_sched"});
  if (!known.ok()) return UsageError(known);
  const Result<Distance> distance = DistanceFromFlags(flags);
  if (!distance.ok()) return UsageError(distance.status());
  const std::string name = flags.GetString("algorithm", "standard");
  // SM, OST and FNN (and their PIM paths) bound ED only.
  if (*distance != Distance::kEuclidean && name != "standard" &&
      name != "standard-pim") {
    return UsageError(Status::InvalidArgument(
        "--distance=" + std::string(DistanceName(*distance)) +
        " needs --algorithm=standard or standard-pim"));
  }
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "MSD"), flags.GetInt("n", 0),
                   flags.GetInt("queries", 20));
  const Result<EngineOptions> options = EngineFromFlags(flags, workload);
  if (!options.ok()) return UsageError(options.status());

  std::unique_ptr<KnnAlgorithm> algorithm;
  if (name == "standard") {
    algorithm = std::make_unique<StandardKnn>(*distance);
  } else if (name == "standard-pim") {
    algorithm = std::make_unique<StandardPimKnn>(*distance, *options);
  } else if (name == "ost") {
    algorithm = std::make_unique<OstKnn>();
  } else if (name == "ost-pim") {
    algorithm = std::make_unique<OstPimKnn>(*options);
  } else if (name == "sm") {
    algorithm = std::make_unique<SmKnn>();
  } else if (name == "sm-pim") {
    algorithm = std::make_unique<SmPimKnn>(*options);
  } else if (name == "fnn") {
    algorithm = std::make_unique<FnnKnn>();
  } else if (name == "fnn-pim") {
    algorithm = std::make_unique<FnnPimKnn>(*options,
                                            flags.GetBool("optimize", false));
  } else {
    return UsageError(
        Status::InvalidArgument("unknown kNN algorithm '" + name + "'"));
  }

  const Result<ObsCliConfig> obs_cfg = SetupObservability(flags);
  if (!obs_cfg.ok()) return UsageError(obs_cfg.status());
  algorithm->set_exec_policy(ExecFromFlags(flags));
  const Status prepared = algorithm->Prepare(workload.data);
  if (!prepared.ok()) return RunError(prepared);
  auto result =
      algorithm->Search(workload.queries,
                        static_cast<int>(flags.GetInt("k", 10)));
  if (!result.ok()) return RunError(result.status());
  std::cout << algorithm->name() << " on " << workload.spec.name << " ("
            << workload.data.rows() << " x " << workload.data.cols()
            << "), k=" << flags.GetInt("k", 10) << ", "
            << workload.queries.rows() << " queries\n";
  PrintRunStats(result->stats, HostCostModel());
  FinishObservability(*obs_cfg, result->stats);
  return 0;
}

int RunKmeans(const FlagParser& flags) {
  const Status known = flags.CheckKnown(
      {"dataset", "algorithm", "k", "n", "iterations", "pim", "seed", "alpha",
       "crossbars", "threads", "device_batch", "shards", "placement",
       "fault_rate", "fault_seed", "fault_recovery", "trace_out",
       "metrics_out", "hist", "trace_wall", "trace_device", "trace_sched"});
  if (!known.ok()) return UsageError(known);
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "NUS-WIDE"),
                   flags.GetInt("n", 0), 1);
  KmeansOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 64));
  options.max_iterations = static_cast<int>(flags.GetInt("iterations", 5));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.use_pim = flags.GetBool("pim", false);
  const Result<EngineOptions> engine_options = EngineFromFlags(flags, workload);
  if (!engine_options.ok()) return UsageError(engine_options.status());
  options.engine_options = *engine_options;
  options.exec = ExecFromFlags(flags);

  const std::string name = flags.GetString("algorithm", "standard");
  std::unique_ptr<KmeansAlgorithm> algorithm;
  if (name == "standard") {
    algorithm = std::make_unique<LloydKmeans>();
  } else if (name == "elkan") {
    algorithm = std::make_unique<ElkanKmeans>();
  } else if (name == "drake") {
    algorithm = std::make_unique<DrakeKmeans>();
  } else if (name == "yinyang") {
    algorithm = std::make_unique<YinyangKmeans>();
  } else if (name == "hamerly") {
    algorithm = std::make_unique<HamerlyKmeans>();
  } else {
    return UsageError(
        Status::InvalidArgument("unknown k-means algorithm '" + name + "'"));
  }

  const Result<ObsCliConfig> obs_cfg = SetupObservability(flags);
  if (!obs_cfg.ok()) return UsageError(obs_cfg.status());
  auto result = algorithm->Run(workload.data, options);
  if (!result.ok()) return RunError(result.status());
  std::cout << algorithm->name() << (options.use_pim ? "-PIM" : "") << " on "
            << workload.spec.name << ", k=" << options.k << ": "
            << result->iterations << " iterations, inertia "
            << result->inertia << "\n";
  PrintRunStats(result->stats, HostCostModel());
  FinishObservability(*obs_cfg, result->stats);
  return 0;
}

int RunOutlier(const FlagParser& flags) {
  const Status known = flags.CheckKnown(
      {"dataset", "k", "top", "n", "pim", "alpha", "crossbars"});
  if (!known.ok()) return UsageError(known);
  const auto workload = LoadWorkload(flags.GetString("dataset", "MSD"),
                                     flags.GetInt("n", 4000), 1);
  OutlierOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 5));
  options.num_outliers = static_cast<int>(flags.GetInt("top", 10));

  const Result<EngineOptions> engine_options = EngineFromFlags(flags, workload);
  if (!engine_options.ok()) return UsageError(engine_options.status());
  Result<OutlierResult> result = [&]() -> Result<OutlierResult> {
    if (flags.GetBool("pim", false)) {
      OrcaPimOutlierDetector detector(*engine_options);
      return detector.Detect(workload.data, options);
    }
    OrcaOutlierDetector detector;
    return detector.Detect(workload.data, options);
  }();
  if (!result.ok()) return RunError(result.status());

  std::cout << "top-" << options.num_outliers << " outliers by "
            << options.k << "-NN distance on " << workload.spec.name << ":\n";
  for (const Neighbor& outlier : result->outliers) {
    std::printf("  object %-7d score %.6f\n", outlier.id, outlier.distance);
  }
  PrintRunStats(result->stats, HostCostModel());
  return 0;
}

int RunMotif(const FlagParser& flags) {
  const Status known =
      flags.CheckKnown({"length", "window", "pim", "seed", "alpha"});
  if (!known.ok()) return UsageError(known);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  std::vector<float> series(
      static_cast<size_t>(flags.GetInt("length", 4000)));
  double level = 0.0;
  for (float& v : series) {
    level += rng.NextGaussian(0.0, 1.0);
    v = static_cast<float>(level);
  }
  auto windows = ExtractWindows(series, flags.GetInt("window", 64));
  if (!windows.ok()) return RunError(windows.status());

  MotifOptions options;
  options.window = flags.GetInt("window", 64);
  EngineOptions engine_options;
  engine_options.alpha = flags.GetDouble("alpha", engine_options.alpha);
  const Status engine_valid = engine_options.Validate();
  if (!engine_valid.ok()) return UsageError(engine_valid);
  Result<MotifResult> result = [&]() -> Result<MotifResult> {
    if (flags.GetBool("pim", false)) {
      PimMotifDiscovery detector(engine_options);
      return detector.Find(*windows, options);
    }
    MotifDiscovery detector;
    return detector.Find(*windows, options);
  }();
  if (!result.ok()) return RunError(result.status());
  std::cout << "motif: windows " << result->first << " and "
            << result->second << " (squared ED " << result->distance
            << ") among " << windows->rows() << " windows\n";
  PrintRunStats(result->stats, HostCostModel());
  return 0;
}

int RunPlan(const FlagParser& flags) {
  const Status known =
      flags.CheckKnown({"dataset", "n", "crossbars", "copies"});
  if (!known.ok()) return UsageError(known);
  const auto workload = LoadWorkload(flags.GetString("dataset", "MSD"),
                                     flags.GetInt("n", 0), 1);
  PimConfig config;
  config.num_crossbars = flags.GetInt("crossbars", config.num_crossbars);
  auto plan = PlanPimLayout(static_cast<int64_t>(workload.data.rows()),
                            static_cast<int64_t>(workload.data.cols()), 32,
                            static_cast<int>(flags.GetInt("copies", 2)),
                            config);
  if (!plan.ok()) {
    std::cout << "no feasible layout: " << plan.status().ToString() << "\n";
    return 1;
  }
  std::cout << "Theorem 4 layout for " << workload.spec.name << " ("
            << workload.data.rows() << " x " << workload.data.cols()
            << ") on " << config.num_crossbars
            << " crossbars: " << plan->ToString() << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) return UsageError(flags_or.status());
  const FlagParser& flags = *flags_or;
  // Counts and sizes; seeds take any integer.
  const Status negative = flags.CheckNonNegative(
      {"n", "queries", "k", "threads", "device_batch", "shards", "crossbars",
       "iterations", "top", "length", "window", "copies"});
  if (!negative.ok()) return UsageError(negative);
  // An unknown --dataset is misuse, rejected before LoadWorkload aborts.
  const Result<DatasetSpec> dataset =
      Catalog::Find(flags.GetString("dataset", "MSD"));
  if (!dataset.ok()) {
    return UsageError(Status::InvalidArgument(dataset.status().message()));
  }

  if (command == "knn") return RunKnn(flags);
  if (command == "kmeans") return RunKmeans(flags);
  if (command == "outlier") return RunOutlier(flags);
  if (command == "motif") return RunMotif(flags);
  if (command == "plan") return RunPlan(flags);
  if (command == "config") {
    std::cout << FormatNvmTable() << "\n"
              << FormatPlatformConfig(DefaultPlatform());
    return 0;
  }
  std::cerr << "unknown command '" << command << "'\n";
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace pimine

int main(int argc, char** argv) { return pimine::cli::Main(argc, argv); }
