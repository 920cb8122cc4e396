// knn-msd: Fig. 13's workload. A closed loop with one client; each request
// is one Search over a 16-query device batch, rotating over the four PIM
// paths (Standard, SM, OST, FNN). MSD at d=420, n=20000 with the scaled
// crossbar budget, so Theorem 4 picks LB_PIM-FNN, k=10, ED.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/memory_planner.h"
#include "core/similarity.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "knn/fnn_pim_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"

namespace pimbench {
namespace {

using namespace pimine;

constexpr int64_t kRows = 20000;
constexpr int kK = 10;
constexpr size_t kBatch = 16;       // queries per request == device_batch.
constexpr size_t kPoolBatches = 16;  // distinct request batches.
constexpr size_t kModeledQueries = 256;  // per path, in the modeled pass.
constexpr size_t kPaths = 4;
constexpr size_t kCycle = kPaths * kPoolBatches;  // requests per full cycle.
constexpr int kSetupReps = 5;
const char* const kPathNames[kPaths] = {"standard", "sm", "ost", "fnn"};

struct Setup {
  DatasetSpec spec;
  FloatMatrix data;
  std::vector<std::unique_ptr<KnnAlgorithm>> paths;
  double gen_ms = 0.0;
  double build_ms = 0.0;
};

/// Data generation plus every Prepare the loop serves from (FNN-PIM's
/// Eq. 13 plan measurement included).
std::unique_ptr<Setup> BuildSetup(uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  s->spec = *Catalog::Find("MSD");
  int64_t t0 = NowNs();
  {
    SpanScope span(tracer, "data.gen");
    s->data = DatasetGenerator::Generate(s->spec, kRows, Mix(seed, 1));
  }
  s->gen_ms = (NowNs() - t0) / 1e6;

  EngineOptions options;
  options.pim_config = ScalePimArrayForDataset(s->spec.paper_n, kRows,
                                               options.pim_config);
  ExecPolicy policy;
  policy.device_batch = kBatch;
  s->paths.push_back(
      std::make_unique<StandardPimKnn>(Distance::kEuclidean, options));
  s->paths.push_back(std::make_unique<SmPimKnn>(options));
  s->paths.push_back(std::make_unique<OstPimKnn>(options));
  s->paths.push_back(std::make_unique<FnnPimKnn>(options, /*optimize=*/true));
  t0 = NowNs();
  for (auto& path : s->paths) {
    SpanScope span(tracer, "build");
    path->set_exec_policy(policy);
    PIMINE_CHECK_OK(path->Prepare(s->data));
  }
  s->build_ms = (NowNs() - t0) / 1e6;
  return s;
}

/// Counts every query of `got` that differs from the exact oracle.
size_t Mismatches(const std::vector<std::vector<Neighbor>>& got,
                  const std::vector<std::vector<Neighbor>>& oracle,
                  size_t first) {
  size_t bad = 0;
  for (size_t q = 0; q < got.size(); ++q) {
    bad += got[q] == oracle[first + q] ? 0 : 1;
  }
  return bad;
}

struct RefineCounts {
  uint64_t exact = 0;
  uint64_t evals = 0;
};

/// Standard-PIM's filter-and-refine loop rebuilt from public calls, with a
/// span around each layer: PrepareBatch, DeviceBatch, BoundFor over every
/// row, ArgsortAscending, and the early-abandon refine into TopK. Must
/// return neighbours bit-identical to StandardPimKnn::Search.
std::vector<std::vector<Neighbor>> TracedStandardSearch(
    const StandardPimKnn& path, const FloatMatrix& data,
    const FloatMatrix& queries, Tracer* tracer, RefineCounts* counts) {
  const ShardedPimEngine& fleet = *path.engine();
  const PimEngine& engine = fleet.shard_engine(0);
  const size_t n = data.rows();
  const size_t nq = queries.rows();
  ShardedPimEngine::QueryHandleBatch handle;
  handle.num_queries = nq;
  handle.shards.resize(1);
  PimEngine::QueryScratch scratch;
  {
    SpanScope span(tracer, "prepare");
    PIMINE_CHECK_OK(engine.PrepareBatch(
        std::span<const float>(queries.data(), nq * queries.cols()), nq,
        &scratch, &handle.shards[0]));
  }
  {
    SpanScope span(tracer, "device");
    PIMINE_CHECK_OK(engine.DeviceBatch(scratch, nq, &handle.shards[0]));
  }
  std::vector<std::vector<Neighbor>> out(nq);
  std::vector<double> bounds(n);
  for (size_t q = 0; q < nq; ++q) {
    {
      SpanScope span(tracer, "bound");
      for (size_t i = 0; i < n; ++i) bounds[i] = fleet.BoundFor(handle, q, i);
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
      topk.Push(SquaredEuclideanEarlyAbandon(data.row(idx), queries.row(q),
                                             topk.threshold()),
                static_cast<int32_t>(idx));
      ++counts->exact;
    }
    out[q] = topk.TakeSorted();
  }
  return out;
}

}  // namespace

Report RunKnnWorkload(const Args& args) {
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
  auto& std_path = static_cast<StandardPimKnn&>(*setup->paths[0]);
  const ShardedPimEngine& std_engine = *std_path.engine();

  // Request batches and the exact oracle, outside every timed phase.
  const FloatMatrix pool = DatasetGenerator::GenerateQueries(
      setup->spec, data, kPoolBatches * kBatch, Mix(args.seed, 2));
  std::vector<FloatMatrix> batches;
  for (size_t b = 0; b < kPoolBatches; ++b) {
    std::vector<float> values(pool.data() + b * kBatch * pool.cols(),
                              pool.data() + (b + 1) * kBatch * pool.cols());
    batches.emplace_back(kBatch, pool.cols(), std::move(values));
  }
  std::vector<std::vector<Neighbor>> oracle;
  {
    StandardKnn exact;
    PIMINE_CHECK_OK(exact.Prepare(data));
    auto r = exact.Search(pool, kK);
    PIMINE_CHECK(r.ok()) << r.status().ToString();
    oracle = std::move(r->neighbors);
  }

  report.Note("dataset", "MSD n=" + std::to_string(data.rows()) + " d=" +
                             std::to_string(data.cols()) + " k=10 ED");
  report.Note("plan", std::string(EngineModeName(std_engine.mode())) +
                          " s=" + std::to_string(std_engine.num_segments()));
  report.Note("loop", "closed loop, 1 client, 16-query Search requests "
                      "rotating standard/sm/ost/fnn");

  // Runs request r through the library (untraced) and checks its answers.
  // Returns the Search's host ns; fills the run stats.
  auto library_request = [&](size_t r, RunStats* stats,
                             std::vector<std::vector<Neighbor>>* got) {
    KnnAlgorithm& path = *setup->paths[r % kPaths];
    const size_t b = (r / kPaths) % kPoolBatches;
    const int64_t t0 = NowNs();
    auto result = path.Search(batches[b], kK);
    const int64_t dt = NowNs() - t0;
    report.attempted += kBatch;
    if (!result.ok()) {
      report.Fail(std::string(path.name()) + ": " + result.status().ToString(),
                  kBatch);
      return dt;
    }
    const size_t bad = Mismatches(result->neighbors, oracle, b * kBatch);
    if (bad > 0) {
      report.Fail(std::string(path.name()) + " batch " + std::to_string(b) +
                      ": queries differ from the exact oracle",
                  bad);
    }
    *stats = std::move(result->stats);
    if (got != nullptr) *got = std::move(result->neighbors);
    return dt;
  };

  if (!args.trace) {
    // Modeled pass: every path answers the first kModeledQueries pool
    // queries one at a time. Modeled time is invariant under device
    // batching, so each query's figure is exactly its share of a batched
    // request, and the tail percentiles get one sample per query.
    Fingerprint fingerprint;
    std::vector<double> modeled_us;
    for (size_t p = 0; p < kPaths; ++p) {
      for (size_t q = 0; q < kModeledQueries; ++q) {
        const auto row = pool.row(q);
        const FloatMatrix single(1, pool.cols(),
                                 std::vector<float>(row.begin(), row.end()));
        auto result = setup->paths[p]->Search(single, kK);
        ++report.attempted;
        if (!result.ok() || result->neighbors[0] != oracle[q]) {
          report.Fail(std::string(kPathNames[p]) + " query " +
                      std::to_string(q) + " differs from the exact oracle");
          continue;
        }
        fingerprint.Add(kPathNames[p], result->stats);
        modeled_us.push_back(
            ComposeModeledTime(result->stats, model).total_ns() / 1e3);
      }
    }

    // Closed loop of 16-query requests, ending on a whole cycle (every
    // batch on every path) once the budget is spent. Each later cycle
    // must repeat the first cycle's modeled counters request by request.
    std::vector<uint64_t> request_digest(kCycle);
    BestOfRepeats best(kCycle);
    CpuRotation rotation;
    int64_t host_ns = 0;
    size_t requests = 0;
    const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
    while (requests % kCycle != 0 || host_ns < budget_ns) {
      const size_t r = requests++;
      RunStats stats;
      rotation.MoveTo(r % kCycle, r / kCycle);
      const int64_t dt = library_request(r, &stats, nullptr);
      host_ns += dt;
      best.Record(r % kCycle, dt);
      Fingerprint digest;
      digest.Add("request", stats);
      if (r < kCycle) {
        request_digest[r] = digest.value();
      } else if (digest.value() != request_digest[r % kCycle]) {
        report.Fail("request " + std::to_string(r) +
                    ": modeled counters differ from the first cycle");
      }
    }
    double modeled_sum = 0.0;
    for (const double us : modeled_us) modeled_sum += us;
    report.Set("host_qps", kCycle * kBatch / best.CycleSeconds());
    report.Set("modeled_us_per_query", modeled_sum / modeled_us.size());
    report.Set("modeled_p50_us", Quantile(modeled_us, 0.5));
    report.Set("modeled_p99_us", Quantile(modeled_us, 0.99));
    report.fingerprint = fingerprint.Hex();
    report.Row("setup_s", report.values["setup_s"], "s");
    report.Row("host_qps", report.values["host_qps"],
               "queries/s (fastest repeat of each request, " +
                   std::to_string(requests / kCycle) + " repeats)");
    report.Row("modeled_us_per_query", report.values["modeled_us_per_query"],
               "us (Fig. 13 model: host cost model + PIM device)");
    report.Row("modeled_p50_us", report.values["modeled_p50_us"],
               "us (" + std::to_string(modeled_us.size()) +
                   " queries over 4 paths)");
    report.Row("modeled_p99_us", report.values["modeled_p99_us"], "us");
    report.Row("requests", static_cast<double>(requests), "");
  } else {
    // Whole cycles alternate between the library path, untraced, and the
    // traced path: Standard-PIM decomposed by layer, the other paths timed
    // as one Search span each. Their host times per request give the
    // tracing overhead over the same requests.
    RefineCounts counts;
    DeviceTotals device;
    std::vector<double> path_ns(kPaths, 0.0);
    std::vector<size_t> path_requests(kPaths, 0);
    size_t traced_requests = 0;
    size_t untraced_requests = 0;
    int64_t traced_ns = 0;
    int64_t untraced_ns = 0;
    size_t requests = 0;
    const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
    while (requests % kCycle != 0 || requests < 2 * kCycle ||
           traced_ns + untraced_ns < budget_ns) {
      const size_t r = requests++;
      const size_t p = r % kPaths;
      const size_t b = (r / kPaths) % kPoolBatches;
      if ((r / kCycle) % 2 == 0) {
        RunStats stats;
        untraced_ns += library_request(r, &stats, nullptr);
        ++untraced_requests;
        continue;
      }
      tracer.set_request(r);
      std::vector<std::vector<Neighbor>> got;
      const DeviceTotals before = SumDevices(std_engine);
      const int64_t t0 = NowNs();
      if (p == 0) {
        SpanScope span(&tracer, "knn.standard");
        got = TracedStandardSearch(std_path, data, batches[b], &tracer,
                                   &counts);
      } else {
        SpanScope span(&tracer, std::string("knn.") + kPathNames[p]);
        auto result = setup->paths[p]->Search(batches[b], kK);
        if (result.ok()) got = std::move(result->neighbors);
      }
      const int64_t dt = NowNs() - t0;
      traced_ns += dt;
      ++traced_requests;
      path_ns[p] += static_cast<double>(dt);
      ++path_requests[p];
      report.attempted += kBatch;
      if (got.size() != kBatch) {
        report.Fail(std::string(kPathNames[p]) + " Search failed", kBatch);
        continue;
      }
      if (const size_t bad = Mismatches(got, oracle, b * kBatch)) {
        report.Fail(std::string(kPathNames[p]) + " (traced) batch " +
                        std::to_string(b) + ": queries differ from the oracle",
                    bad);
      }
      if (p != 0) continue;
      device += SumDevices(std_engine) - before;
      if (r < 2 * kCycle) {
        auto library = std_path.Search(batches[b], kK);
        if (!library.ok() || library->neighbors != got) {
          report.Fail("traced Standard-PIM decomposition differs from "
                      "StandardPimKnn::Search on batch " +
                      std::to_string(b));
        }
      }
    }

    const auto self = tracer.SelfNsByName();
    const double sreq = static_cast<double>(path_requests[0]);
    const double squeries = sreq * kBatch;
    const double n = static_cast<double>(data.rows());
    report.Set("data.gen_ms", setup->gen_ms);
    report.Set("build.host_ms", setup->build_ms);
    double offline_ns = 0.0;
    double offline_bytes = 0.0;
    for (const auto& path : setup->paths) {
      offline_ns += path->OfflineModeledNs();
      offline_bytes += static_cast<double>(path->OfflineBytesWritten());
    }
    report.Set("build.offline_modeled_ms", offline_ns / 1e6);
    report.Set("build.bytes_written", offline_bytes);
    report.Set("prepare.ns_per_query", SelfNs(self, "prepare") / squeries);
    report.Set("device.host_ms", SelfNs(self, "device") / 1e6 / sreq);
    report.Set("device.products_per_s",
               squeries * n / (SelfNs(self, "device") / 1e9));
    const double ops = static_cast<double>(device.batch_ops);
    report.Set("device.batch_ops", ops / sreq);
    report.Set("device.queries_per_batch",
               static_cast<double>(device.queries) / ops);
    report.Set("device.modeled_ns", device.compute_ns / sreq);
    report.Set("device.pipelined_ns", device.pipelined_ns / sreq);
    report.Set("bound.host_ms", SelfNs(self, "bound") / 1e6 / sreq);
    report.Set("bound.ns_per_eval",
               SelfNs(self, "bound") / static_cast<double>(counts.evals));
    report.Set("bound.evals", static_cast<double>(counts.evals) / sreq);
    report.Set("order.host_ms", SelfNs(self, "order") / 1e6 / sreq);
    report.Set("order.ns_per_element",
               SelfNs(self, "order") / (squeries * n));
    report.Set("refine.host_ms", SelfNs(self, "refine") / 1e6 / sreq);
    report.Set("refine.exact", static_cast<double>(counts.exact) / sreq);
    report.Set("refine.prune_ratio",
               1.0 - static_cast<double>(counts.exact) /
                         static_cast<double>(counts.evals));
    for (size_t p = 0; p < kPaths; ++p) {
      report.Set(std::string("knn.") + kPathNames[p] + ".host_ms_per_query",
                 path_ns[p] / 1e6 / (path_requests[p] * kBatch));
    }
    FinishTrace(args, tracer, static_cast<double>(traced_requests),
                "request", untraced_ns / 1e6 / untraced_requests,
                traced_ns / 1e6 / traced_requests, &report);
    report.fingerprint = "(traced mode; see the untraced run)";
  }
  report.Set("error_rate", report.attempted == 0
                               ? 0.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
  report.Row("error_rate", report.values["error_rate"], "");
  return report;
}

}  // namespace pimbench
