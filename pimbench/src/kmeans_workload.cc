// kmeans-nuswide: Table 7's workload. The PIM variants of Lloyd, Elkan,
// Hamerly, Drake and Yinyang run in rotation over one shared assign filter
// (NUS-WIDE d=500, n=6000, k=64, shards=4, device_batch=16), each run for
// a fixed number of iterations. The 64 centers are the device queries;
// bounds combine lazily per (point, center); there is no argsort; the
// update step merges per-shard ExactSum partials by a tree reduce.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/memory_planner.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "profiling/modeled_time.h"

namespace pimbench {
namespace {

using namespace pimine;

constexpr int64_t kRows = 6000;
constexpr int kK = 64;
constexpr int kIterations = 6;
constexpr size_t kDeviceBatch = 16;
constexpr int kShards = 4;
constexpr size_t kAlgos = 5;
/// Initial-center draws per run: a round runs every algorithm from one
/// draw, a cycle runs every round once.
constexpr size_t kInits = 3;
constexpr size_t kCycle = kAlgos * kInits;
constexpr int kSetupReps = 5;
const char* const kAlgoNames[kAlgos] = {"lloyd", "elkan", "hamerly", "drake",
                                        "yinyang"};

struct Setup {
  FloatMatrix data;
  std::unique_ptr<PimAssignFilter> filter;
  std::vector<std::unique_ptr<KmeansAlgorithm>> algos;
  /// One option set per initial-center draw (they differ in seed only).
  std::vector<KmeansOptions> options;
  double gen_ms = 0.0;
  double build_ms = 0.0;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  const DatasetSpec spec = *Catalog::Find("NUS-WIDE");
  int64_t t0 = NowNs();
  {
    SpanScope span(tracer, "data.gen");
    s->data = DatasetGenerator::Generate(spec, kRows, Mix(seed, 1));
  }
  s->gen_ms = (NowNs() - t0) / 1e6;

  EngineOptions engine;
  engine.pim_config =
      ScalePimArrayForDataset(spec.paper_n, kRows, engine.pim_config);
  engine.shard.shards = kShards;
  t0 = NowNs();
  {
    SpanScope span(tracer, "build");
    auto filter = PimAssignFilter::Build(s->data, engine);
    PIMINE_CHECK(filter.ok()) << filter.status().ToString();
    s->filter = std::move(filter).value();
  }
  s->build_ms = (NowNs() - t0) / 1e6;

  for (size_t j = 0; j < kInits; ++j) {
    KmeansOptions options;
    options.k = kK;
    options.max_iterations = kIterations;
    options.seed = Mix(seed, 3 + j);
    options.use_pim = true;
    options.engine_options = engine;
    options.filter = s->filter.get();
    options.exec.device_batch = kDeviceBatch;
    s->options.push_back(options);
  }
  s->algos.push_back(std::make_unique<LloydKmeans>());
  s->algos.push_back(std::make_unique<ElkanKmeans>());
  s->algos.push_back(std::make_unique<HamerlyKmeans>());
  s->algos.push_back(std::make_unique<DrakeKmeans>());
  s->algos.push_back(std::make_unique<YinyangKmeans>());
  return s;
}

struct AssignCounts {
  uint64_t bound_evals = 0;
  uint64_t pruned = 0;
  uint64_t exact = 0;
};

/// Lloyd-PIM rebuilt from public calls, one span per phase per iteration:
/// BeginIteration, the assign pass (LowerBound + KmeansExactDistance) and
/// UpdateCenters. Must match LloydKmeans::Run bit for bit.
KmeansResult TracedLloyd(const FloatMatrix& data, const KmeansOptions& options,
                         PimAssignFilter* filter, Tracer* tracer,
                         uint64_t request_base, AssignCounts* counts) {
  filter->set_fanout_policy(options.exec);
  KmeansResult result;
  result.centers = InitCenters(data, options.k, options.seed);
  result.assignments.assign(data.rows(), 0);
  const size_t k = static_cast<size_t>(options.k);
  bool first_iteration = true;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    tracer->set_request(request_base + static_cast<uint64_t>(iter));
    {
      SpanScope span(tracer, "kmeans.begin");
      PIMINE_CHECK_OK(filter->BeginIteration(
          result.centers, std::max<size_t>(1, options.exec.device_batch)));
    }
    size_t changed = 0;
    {
      SpanScope span(tracer, "kmeans.assign");
      for (size_t i = 0; i < data.rows(); ++i) {
        const auto p = data.row(i);
        const size_t start = result.assignments[i];
        size_t best_c = start;
        double best_d = KmeansExactDistance(p, result.centers.row(start));
        ++counts->exact;
        for (size_t c = 0; c < k; ++c) {
          if (c == start) continue;
          ++counts->bound_evals;
          if (filter->LowerBound(i, c) >= best_d) {
            ++counts->pruned;
            continue;
          }
          const double d = KmeansExactDistance(p, result.centers.row(c));
          ++counts->exact;
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
        if (best_c != static_cast<size_t>(result.assignments[i])) {
          result.assignments[i] = static_cast<int32_t>(best_c);
          ++changed;
        }
      }
    }
    {
      SpanScope span(tracer, "kmeans.update");
      result.centers = UpdateCenters(data, result.assignments, result.centers,
                                     nullptr, filter);
    }
    ++result.iterations;
    if (changed == 0 && !first_iteration) break;
    first_iteration = false;
  }
  return result;
}

bool SameClustering(const KmeansResult& a, const KmeansResult& b) {
  return a.assignments == b.assignments &&
         a.centers.values() == b.centers.values();
}

}  // namespace

Report RunKmeansWorkload(const Args& args) {
  Report report;
  const HostCostModel model;
  Tracer tracer;
  Tracer* const trace = args.trace ? &tracer : nullptr;

  double setup_s = 0.0;
  const std::unique_ptr<Setup> setup =
      RepeatSetup(args.trace ? 1 : kSetupReps, &setup_s,
                  [&] { return BuildSetup(args.seed, trace); });
  report.Set("setup_s", setup_s);
  const FloatMatrix& data = setup->data;

  // Oracle: host Lloyd from the same initial centers. Every PIM variant is
  // an exact acceleration and must follow its trajectory.
  std::vector<KmeansResult> oracle;
  for (const KmeansOptions& options : setup->options) {
    KmeansOptions host = options;
    host.use_pim = false;
    host.filter = nullptr;
    LloydKmeans lloyd;
    auto r = lloyd.Run(data, host);
    PIMINE_CHECK(r.ok()) << r.status().ToString();
    oracle.push_back(std::move(r).value());
  }
  report.Note("dataset", "NUS-WIDE n=" + std::to_string(data.rows()) +
                             " d=" + std::to_string(data.cols()) +
                             " k=64 shards=4 device_batch=16");
  report.Note("loop", "lloyd/elkan/hamerly/drake/yinyang PIM runs in "
                      "rotation, " + std::to_string(kIterations) +
                      " iterations each");

  // One library Run of algorithm r % kAlgos; checks it against the oracle.
  auto library_run = [&](size_t r, KmeansResult* out) {
    KmeansAlgorithm& algo = *setup->algos[r % kAlgos];
    const size_t j = (r / kAlgos) % kInits;
    setup->filter->ResetOnlineStats();
    const int64_t t0 = NowNs();
    auto result = algo.Run(data, setup->options[j]);
    const int64_t dt = NowNs() - t0;
    ++report.attempted;
    if (!result.ok()) {
      report.Fail(std::string(kAlgoNames[r % kAlgos]) + ": " +
                  result.status().ToString());
      return dt;
    }
    if (!SameClustering(*result, oracle[j])) {
      report.Fail(std::string(kAlgoNames[r % kAlgos]) +
                  ": assignments/centers differ from host Lloyd");
    }
    *out = std::move(result).value();
    return dt;
  };

  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    std::vector<uint64_t> run_digest(kCycle);
    std::vector<double> modeled_us_per_query;
    double modeled_ns_total = 0.0;
    int cycle_iterations = 0;
    Fingerprint fingerprint;
    BestOfRepeats best(kCycle);
    CpuRotation rotation;
    int64_t host_ns = 0;
    size_t runs = 0;
    while (runs % kCycle != 0 || host_ns < budget_ns) {
      const size_t r = runs++;
      KmeansResult result;
      rotation.MoveTo(r % kCycle, r / kCycle);
      const int64_t dt = library_run(r, &result);
      host_ns += dt;
      best.Record(r % kCycle, dt);
      Fingerprint digest;
      digest.Add("run", result.stats);
      digest.Add("iterations", static_cast<uint64_t>(result.iterations));
      if (r < kCycle) {
        run_digest[r] = digest.value();
        fingerprint.Add(kAlgoNames[r % kAlgos], result.stats);
        fingerprint.Add("iterations",
                        static_cast<uint64_t>(result.iterations));
        const double ns = ComposeModeledTime(result.stats, model).total_ns();
        modeled_ns_total += ns;
        cycle_iterations += result.iterations;
        modeled_us_per_query.push_back(
            ns / 1e3 / std::max(1, result.iterations) / kK);
      } else if (digest.value() != run_digest[r % kCycle]) {
        report.Fail("run " + std::to_string(r) +
                    ": modeled counters differ from the first cycle");
      }
    }
    report.Set("host_qps",
               cycle_iterations * static_cast<double>(kK) /
                   best.CycleSeconds());
    report.Set("modeled_us_per_query",
               modeled_ns_total / 1e3 / cycle_iterations / kK);
    report.Set("modeled_p50_us", Quantile(modeled_us_per_query, 0.5));
    report.Set("modeled_p99_us", Quantile(modeled_us_per_query, 0.99));
    report.fingerprint = fingerprint.Hex();
    report.Row("setup_s", report.values["setup_s"], "s");
    report.Row("host_iters_per_s", report.values["host_qps"] / kK,
               "iter/s (fastest repeat of each run, " +
                   std::to_string(runs / kCycle) + " repeats)");
    report.Row("host_qps", report.values["host_qps"],
               "center queries/s (k=64 per iteration)");
    report.Row("modeled_ms_per_iter", modeled_ns_total / 1e6 / cycle_iterations,
               "ms");
    report.Row("modeled_us_per_query", report.values["modeled_us_per_query"],
               "us per center query");
    report.Row("modeled_p50_us", report.values["modeled_p50_us"],
               "us (per-run us/center query, " + std::to_string(kCycle) +
                   " runs)");
    report.Row("modeled_p99_us", report.values["modeled_p99_us"], "us");
    report.Row("runs", static_cast<double>(runs), "");
  } else {
    // Whole cycles alternate between the library, untraced, and the traced
    // loop: Lloyd-PIM decomposed by phase, the other algorithms timed as one
    // Run span each. Host time per iteration of both gives the tracing
    // overhead over the same runs.
    AssignCounts counts;
    DeviceTotals device;
    FleetRunStats fleet;
    std::vector<double> algo_ns(kAlgos, 0.0);
    std::vector<int> algo_iters(kAlgos, 0);
    int traced_iters = 0;
    int untraced_iters = 0;
    int64_t traced_ns = 0;
    int64_t untraced_ns = 0;
    size_t runs = 0;
    uint64_t request = 0;
    bool lloyd_checked = false;
    while (runs % kCycle != 0 || runs < 2 * kCycle ||
           traced_ns + untraced_ns < budget_ns) {
      const size_t r = runs++;
      const size_t a = r % kAlgos;
      const size_t j = (r / kAlgos) % kInits;
      if ((r / kCycle) % 2 == 0) {
        KmeansResult result;
        untraced_ns += library_run(r, &result);
        untraced_iters += result.iterations;
        continue;
      }
      setup->filter->ResetOnlineStats();
      const int64_t t0 = NowNs();
      KmeansResult result;
      bool ok = true;
      if (a == 0) {
        SpanScope span(&tracer, "kmeans.lloyd");
        result = TracedLloyd(data, setup->options[j], setup->filter.get(),
                             &tracer, request, &counts);
      } else {
        tracer.set_request(request);
        SpanScope span(&tracer, std::string("kmeans.") + kAlgoNames[a]);
        auto run = setup->algos[a]->Run(data, setup->options[j]);
        ok = run.ok();
        if (ok) result = std::move(run).value();
      }
      const int64_t dt = NowNs() - t0;
      request += static_cast<uint64_t>(std::max(1, result.iterations));
      traced_ns += dt;
      traced_iters += result.iterations;
      algo_ns[a] += static_cast<double>(dt);
      algo_iters[a] += result.iterations;
      ++report.attempted;
      if (!ok || !SameClustering(result, oracle[j])) {
        report.Fail(std::string(kAlgoNames[a]) +
                    " (traced run) differs from host Lloyd");
      }
      // Every device and fleet counter since the reset belongs to this run.
      device += SumDevices(setup->filter->engine());
      const FleetRunStats f = setup->filter->FleetStats();
      fleet.scatter_bytes += f.scatter_bytes;
      fleet.gather_bytes += f.gather_bytes;
      fleet.reduce_messages += f.reduce_messages;
      fleet.scatter_ns += f.InterconnectNs();
      if (a == 0 && !lloyd_checked) {
        lloyd_checked = true;
        KmeansResult library;
        library_run(r, &library);
        if (!SameClustering(result, library)) {
          report.Fail("traced Lloyd-PIM decomposition differs from "
                      "LloydKmeans::Run");
        }
      }
    }

    const auto self = tracer.SelfNsByName();
    const double iters = static_cast<double>(algo_iters[0]);
    const double all_iters = static_cast<double>(traced_iters);
    const double n = static_cast<double>(data.rows());
    const double begin_ns = SelfNs(self, "kmeans.begin");
    report.Set("data.gen_ms", setup->gen_ms);
    report.Set("build.host_ms", setup->build_ms);
    report.Set("build.offline_modeled_ms", setup->filter->OfflineNs() / 1e6);
    report.Set("build.bytes_written",
               static_cast<double>(
                   setup->filter->engine().OfflineBytesWritten()));
    // BeginIteration is this workload's device layer: it prepares the 64
    // center queries once and runs one DeviceBatch per shard per group.
    report.Set("device.host_ms", begin_ns / 1e6 / iters);
    report.Set("device.products_per_s", iters * kK * n / (begin_ns / 1e9));
    const double ops = static_cast<double>(device.batch_ops);
    report.Set("device.batch_ops", ops / all_iters);
    report.Set("device.queries_per_batch",
               static_cast<double>(device.queries) / ops);
    report.Set("device.modeled_ns", device.compute_ns / all_iters);
    report.Set("device.pipelined_ns", device.pipelined_ns / all_iters);
    report.Set("kmeans.begin.host_ms", begin_ns / 1e6 / iters);
    report.Set("kmeans.assign.host_ms",
               SelfNs(self, "kmeans.assign") / 1e6 / iters);
    report.Set("kmeans.update.host_ms",
               SelfNs(self, "kmeans.update") / 1e6 / iters);
    report.Set("assign.bound_evals",
               static_cast<double>(counts.bound_evals) / iters);
    report.Set("assign.exact", static_cast<double>(counts.exact) / iters);
    report.Set("assign.prune_ratio",
               static_cast<double>(counts.pruned) /
                   static_cast<double>(counts.bound_evals));
    for (size_t a = 0; a < kAlgos; ++a) {
      report.Set(std::string("kmeans.") + kAlgoNames[a] + ".host_ms_per_iter",
                 algo_ns[a] / 1e6 / std::max(1, algo_iters[a]));
    }
    report.Set("fleet.scatter_bytes",
               static_cast<double>(fleet.scatter_bytes) / all_iters);
    report.Set("fleet.gather_bytes",
               static_cast<double>(fleet.gather_bytes) / all_iters);
    report.Set("fleet.reduce_messages",
               static_cast<double>(fleet.reduce_messages) / all_iters);
    report.Set("fleet.interconnect_modeled_ns", fleet.scatter_ns / all_iters);
    FinishTrace(args, tracer, all_iters, "iteration",
                untraced_ns / 1e6 / untraced_iters,
                traced_ns / 1e6 / traced_iters, &report);
    report.fingerprint = "(traced mode; see the untraced run)";
  }
  report.Set("error_rate", static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted));
  report.Row("error_rate", report.values["error_rate"], "");
  return report;
}

}  // namespace pimbench
