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

using bench::Fmt;
using bench::LoadWorkload;
using bench::ScaledEngineOptions;
using bench::TablePrinter;

int Usage() {
  std::cerr <<
      "usage: pimine_cli <command> [--flags]\n"
      "commands:\n"
      "  knn      --dataset=<name> --algorithm=<standard|ost|sm|fnn>[-pim]\n"
      "           [--k=10] [--n=0] [--queries=20] [--distance=ED|CS|PCC]\n"
      "           [--alpha=1e6] [--crossbars=0 (0=scaled)] [--optimize]\n"
      "           [--threads=1] [--block=512] [--device_batch=1]\n"
      "           [--shards=1] [--placement=contiguous|hash|cluster]\n"
      "           [--fault_rate=0] [--fault_seed=...] \n"
      "           [--fault_recovery=exact|slack|fail|none]\n"
      "  kmeans   --dataset=<name> --algorithm=<standard|elkan|drake|\n"
      "           yinyang|hamerly> [--k=64] [--n=0] [--iterations=5]\n"
      "           [--pim] [--seed=42] [--threads=1] [--block=512]\n"
      "           [--device_batch=1] [--shards=1]\n"
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

ObsCliConfig SetupObservability(const FlagParser& flags) {
  ObsCliConfig cfg;
  cfg.trace_out = flags.GetString("trace_out", "");
  cfg.metrics_out = flags.GetString("metrics_out", "");
  cfg.hist = flags.GetString("hist", "");
  if (!cfg.hist.empty()) {
    PIMINE_CHECK(cfg.hist == "latency")
        << "unknown --hist '" << cfg.hist << "' (want latency)";
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

EngineOptions EngineFromFlags(const FlagParser& flags,
                              const bench::BenchWorkload& workload) {
  const int64_t crossbars = flags.GetInt("crossbars", 0);
  EngineOptions options =
      crossbars == 0 ? ScaledEngineOptions(workload) : EngineOptions();
  if (crossbars > 0) options.pim_config.num_crossbars = crossbars;
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
    PIMINE_CHECK(false) << "unknown --fault_recovery '" << recovery
                        << "' (want exact|slack|fail|none)";
  }
  // --shards / --placement pick the fleet geometry (DESIGN.md section 9).
  // Results are bit-identical for every shard count; only the fleet
  // interconnect rows below vary.
  options.shard.shards = static_cast<int>(flags.GetInt("shards", 1));
  const Result<ShardPlacement> placement =
      ParseShardPlacement(flags.GetString("placement", "contiguous"));
  PIMINE_CHECK(placement.ok()) << placement.status().ToString();
  options.shard.placement = placement.value();
  return options;
}

/// --threads / --block / --device_batch map onto ExecPolicy; the defaults
/// reproduce the paper's serial per-query measurement setup.
ExecPolicy ExecFromFlags(const FlagParser& flags) {
  ExecPolicy policy;
  policy.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  policy.block_size = static_cast<size_t>(
      flags.GetInt("block", static_cast<int64_t>(policy.block_size)));
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
  PIMINE_CHECK_OK(flags.CheckKnown({"dataset", "algorithm", "k", "n",
                                    "queries", "distance", "alpha",
                                    "crossbars", "optimize", "threads",
                                    "block", "device_batch", "shards",
                                    "placement", "fault_rate",
                                    "fault_seed", "fault_recovery",
                                    "trace_out", "metrics_out", "hist",
                                    "trace_wall", "trace_device",
                                    "trace_sched"}));
  const std::string distance_name = flags.GetString("distance", "ED");
  Distance distance = Distance::kEuclidean;
  if (distance_name == "CS") {
    distance = Distance::kCosine;
  } else if (distance_name == "PCC") {
    distance = Distance::kPearson;
  } else if (distance_name != "ED") {
    std::cerr << "unknown --distance '" << distance_name
              << "' (want ED|CS|PCC)\n";
    return Usage();
  }
  const std::string name = flags.GetString("algorithm", "standard");
  // SM, OST and FNN (and their PIM paths) bound ED only.
  if (distance != Distance::kEuclidean && name != "standard" &&
      name != "standard-pim") {
    std::cerr << "--distance=" << distance_name
              << " needs --algorithm=standard or standard-pim\n";
    return Usage();
  }
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "MSD"), flags.GetInt("n", 0),
                   flags.GetInt("queries", 20));
  const EngineOptions options = EngineFromFlags(flags, workload);

  std::unique_ptr<KnnAlgorithm> algorithm;
  if (name == "standard") {
    algorithm = std::make_unique<StandardKnn>(distance);
  } else if (name == "standard-pim") {
    algorithm = std::make_unique<StandardPimKnn>(distance, options);
  } else if (name == "ost") {
    algorithm = std::make_unique<OstKnn>();
  } else if (name == "ost-pim") {
    algorithm = std::make_unique<OstPimKnn>(options);
  } else if (name == "sm") {
    algorithm = std::make_unique<SmKnn>();
  } else if (name == "sm-pim") {
    algorithm = std::make_unique<SmPimKnn>(options);
  } else if (name == "fnn") {
    algorithm = std::make_unique<FnnKnn>();
  } else if (name == "fnn-pim") {
    algorithm = std::make_unique<FnnPimKnn>(options,
                                            flags.GetBool("optimize", false));
  } else {
    std::cerr << "unknown kNN algorithm '" << name << "'\n";
    return Usage();
  }

  const ObsCliConfig obs_cfg = SetupObservability(flags);
  algorithm->set_exec_policy(ExecFromFlags(flags));
  PIMINE_CHECK_OK(algorithm->Prepare(workload.data));
  auto result =
      algorithm->Search(workload.queries,
                        static_cast<int>(flags.GetInt("k", 10)));
  PIMINE_CHECK(result.ok()) << result.status().ToString();
  std::cout << algorithm->name() << " on " << workload.spec.name << " ("
            << workload.data.rows() << " x " << workload.data.cols()
            << "), k=" << flags.GetInt("k", 10) << ", "
            << workload.queries.rows() << " queries\n";
  PrintRunStats(result->stats, HostCostModel());
  FinishObservability(obs_cfg, result->stats);
  return 0;
}

int RunKmeans(const FlagParser& flags) {
  PIMINE_CHECK_OK(flags.CheckKnown({"dataset", "algorithm", "k", "n",
                                    "iterations", "pim", "seed", "alpha",
                                    "crossbars", "threads", "block",
                                    "device_batch", "shards", "placement",
                                    "fault_rate",
                                    "fault_seed", "fault_recovery",
                                    "trace_out", "metrics_out", "hist",
                                    "trace_wall", "trace_device",
                                    "trace_sched"}));
  const auto workload =
      LoadWorkload(flags.GetString("dataset", "NUS-WIDE"),
                   flags.GetInt("n", 0), 1);
  KmeansOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 64));
  options.max_iterations = static_cast<int>(flags.GetInt("iterations", 5));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.use_pim = flags.GetBool("pim", false);
  options.engine_options = EngineFromFlags(flags, workload);
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
    std::cerr << "unknown k-means algorithm '" << name << "'\n";
    return Usage();
  }

  const ObsCliConfig obs_cfg = SetupObservability(flags);
  auto result = algorithm->Run(workload.data, options);
  PIMINE_CHECK(result.ok()) << result.status().ToString();
  std::cout << algorithm->name() << (options.use_pim ? "-PIM" : "") << " on "
            << workload.spec.name << ", k=" << options.k << ": "
            << result->iterations << " iterations, inertia "
            << result->inertia << "\n";
  PrintRunStats(result->stats, HostCostModel());
  FinishObservability(obs_cfg, result->stats);
  return 0;
}

int RunOutlier(const FlagParser& flags) {
  PIMINE_CHECK_OK(flags.CheckKnown(
      {"dataset", "k", "top", "n", "pim", "alpha", "crossbars"}));
  const auto workload = LoadWorkload(flags.GetString("dataset", "MSD"),
                                     flags.GetInt("n", 4000), 1);
  OutlierOptions options;
  options.k = static_cast<int>(flags.GetInt("k", 5));
  options.num_outliers = static_cast<int>(flags.GetInt("top", 10));

  Result<OutlierResult> result = [&]() -> Result<OutlierResult> {
    if (flags.GetBool("pim", false)) {
      OrcaPimOutlierDetector detector(EngineFromFlags(flags, workload));
      return detector.Detect(workload.data, options);
    }
    OrcaOutlierDetector detector;
    return detector.Detect(workload.data, options);
  }();
  PIMINE_CHECK(result.ok()) << result.status().ToString();

  std::cout << "top-" << options.num_outliers << " outliers by "
            << options.k << "-NN distance on " << workload.spec.name << ":\n";
  for (const Neighbor& outlier : result->outliers) {
    std::printf("  object %-7d score %.6f\n", outlier.id, outlier.distance);
  }
  PrintRunStats(result->stats, HostCostModel());
  return 0;
}

int RunMotif(const FlagParser& flags) {
  PIMINE_CHECK_OK(
      flags.CheckKnown({"length", "window", "pim", "seed", "alpha"}));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  std::vector<float> series(
      static_cast<size_t>(flags.GetInt("length", 4000)));
  double level = 0.0;
  for (float& v : series) {
    level += rng.NextGaussian(0.0, 1.0);
    v = static_cast<float>(level);
  }
  auto windows = ExtractWindows(series, flags.GetInt("window", 64));
  PIMINE_CHECK(windows.ok()) << windows.status().ToString();

  MotifOptions options;
  options.window = flags.GetInt("window", 64);
  Result<MotifResult> result = [&]() -> Result<MotifResult> {
    if (flags.GetBool("pim", false)) {
      EngineOptions engine_options;
      engine_options.alpha = flags.GetDouble("alpha", 1e6);
      PimMotifDiscovery detector(engine_options);
      return detector.Find(*windows, options);
    }
    MotifDiscovery detector;
    return detector.Find(*windows, options);
  }();
  PIMINE_CHECK(result.ok()) << result.status().ToString();
  std::cout << "motif: windows " << result->first << " and "
            << result->second << " (squared ED " << result->distance
            << ") among " << windows->rows() << " windows\n";
  PrintRunStats(result->stats, HostCostModel());
  return 0;
}

int RunPlan(const FlagParser& flags) {
  PIMINE_CHECK_OK(flags.CheckKnown({"dataset", "n", "crossbars", "copies"}));
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
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n";
    return Usage();
  }
  const FlagParser& flags = *flags_or;

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
