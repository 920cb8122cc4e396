// The observability guarantee under test: with tracing enabled, the
// modeled-time trace JSON, the merged latency histograms, and every
// grouping-invariant counter are *bit-identical* across thread counts and
// device-batch sizes, and across repeated runs with the same seed. Only
// pimine_device_batch_ops_total may vary (it counts physical device calls,
// which legitimately depend on device_batch) and is excluded here.
//
// This file also runs under TSan in CI: it exercises concurrent span
// recording into per-thread buffers plus the cross-thread merges.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/standard_pim_knn.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "pim/fault_model.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace pimine {
namespace {

struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w;
  w.data = DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 33, seed + 1);
  return w;
}

/// Everything the bit-identity guarantee covers for one observed run.
struct ObservedRun {
  std::string trace_json;
  obs::Histogram stats_hist;     // RunStats::latency_hist.
  obs::Histogram registry_hist;  // the registry's merged copy.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

void ExpectIdenticalObservations(const ObservedRun& a, const ObservedRun& b,
                                 const std::string& label) {
  EXPECT_EQ(a.trace_json, b.trace_json) << label << ": trace bytes diverged";
  EXPECT_TRUE(a.stats_hist == b.stats_hist)
      << label << ": RunStats latency histogram diverged";
  EXPECT_TRUE(a.registry_hist == b.registry_hist)
      << label << ": registry histogram diverged";
  ASSERT_EQ(a.counters.size(), b.counters.size()) << label;
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i])
        << label << ": counter " << a.counters[i].first;
  }
}

std::vector<std::pair<std::string, uint64_t>> SnapshotCounters(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const std::string& name : names) {
    out.emplace_back(
        name, obs::Obs::Get()->metrics().GetCounter(name).Value());
  }
  return out;
}

// Counters whose totals must not depend on threads or device_batch.
const std::vector<std::string>& InvariantKnnCounters() {
  static const std::vector<std::string> names = {
      "pimine_queries_total",           "pimine_exact_distances_total",
      "pimine_bound_evaluations_total", "pimine_candidates_pruned_total",
      "pimine_device_queries_total",    "pimine_device_programs_total",
  };
  return names;
}

// The kNN counters that do not depend on the shard count either: every
// shard's devices count their own queries and programs.
const std::vector<std::string>& ShardInvariantKnnCounters() {
  static const std::vector<std::string> names = {
      "pimine_queries_total",           "pimine_exact_distances_total",
      "pimine_bound_evaluations_total", "pimine_candidates_pruned_total",
  };
  return names;
}

const std::vector<std::string>& InvariantKmeansCounters() {
  static const std::vector<std::string> names = {
      "pimine_exact_distances_total",
      "pimine_bound_evaluations_total",
      "pimine_candidates_pruned_total",
      "pimine_kmeans_iterations_total",
      "pimine_kmeans_reassignments_total",
      "pimine_device_queries_total",
      "pimine_device_programs_total",
  };
  return names;
}

ObservedRun ObserveKnnRun(
    const Workload& w, int threads, size_t device_batch,
    const EngineOptions& engine = EngineOptions(),
    const std::vector<std::string>& counters = InvariantKnnCounters()) {
  obs::Obs::Enable();
  StandardPimKnn algorithm(Distance::kEuclidean, engine);
  EXPECT_TRUE(algorithm.Prepare(w.data).ok());
  ExecPolicy policy = ExecPolicy::WithThreads(threads);
  policy.device_batch = device_batch;
  algorithm.set_exec_policy(policy);
  auto result = algorithm.Search(w.queries, 6);
  EXPECT_TRUE(result.ok());

  ObservedRun run;
  obs::Obs* o = obs::Obs::Get();
  EXPECT_EQ(o->trace().OpenSpans(), 0);  // balance after the run drains.
  run.trace_json = o->trace().ToChromeJson();
  run.stats_hist = result->stats.latency_hist;
  run.registry_hist =
      o->metrics().GetHistogramSnapshot("pimine_query_latency_ns");
  run.counters = SnapshotCounters(counters);
  obs::Obs::Disable();
  return run;
}

ObservedRun ObserveKmeansRun(const FloatMatrix& data, int threads,
                             size_t device_batch) {
  obs::Obs::Enable();
  KmeansOptions options;
  options.k = 12;
  options.max_iterations = 4;
  options.seed = 123;
  options.use_pim = true;
  options.exec = ExecPolicy::WithThreads(threads);
  options.exec.device_batch = device_batch;
  LloydKmeans algorithm;
  auto result = algorithm.Run(data, options);
  EXPECT_TRUE(result.ok());

  ObservedRun run;
  obs::Obs* o = obs::Obs::Get();
  EXPECT_EQ(o->trace().OpenSpans(), 0);
  run.trace_json = o->trace().ToChromeJson();
  run.stats_hist = result->stats.latency_hist;
  run.registry_hist =
      o->metrics().GetHistogramSnapshot("pimine_kmeans_iteration_ns");
  run.counters = SnapshotCounters(InvariantKmeansCounters());
  obs::Obs::Disable();
  return run;
}

TEST(ObsDeterminismTest, KnnTraceBitIdenticalAcrossThreadsAndBatches) {
  const Workload w = MakeWorkload(400, 32, 97);
  const ObservedRun baseline = ObserveKnnRun(w, /*threads=*/1,
                                             /*device_batch=*/1);
  EXPECT_GT(baseline.stats_hist.count(), 0u);
  EXPECT_NE(baseline.trace_json.find("pim_dot"), std::string::npos);

  for (int threads : {1, 4}) {
    for (size_t device_batch : {size_t{1}, size_t{16}}) {
      const ObservedRun run = ObserveKnnRun(w, threads, device_batch);
      ExpectIdenticalObservations(
          baseline, run,
          "kNN x" + std::to_string(threads) + " batch" +
              std::to_string(device_batch));
    }
  }
}

// The fleet emits the per-query device spans once for every shard count,
// whichever rung of the failover ladder served each shard: a one-shard
// fleet whose every device pass fails (kFailOp, no retries) and is
// recomputed on the host records the same pim_dot (and, for the FNN bound,
// pim_dot2) spans as three shards do, and as the fault-free run does.
TEST(ObsDeterminismTest, KnnTraceBitIdenticalAcrossShardCounts) {
  const Workload w = MakeWorkload(400, 32, 97);
  for (const EngineOptions::Bound bound :
       {EngineOptions::Bound::kDirectEd, EngineOptions::Bound::kSegmentFnn}) {
    const bool fnn = bound == EngineOptions::Bound::kSegmentFnn;
    EngineOptions clean;
    clean.bound = bound;
    EngineOptions failing = clean;
    failing.fault_config.transient_rate = 0.2;  // every pass fails.
    failing.recovery.verify_mode = VerifyMode::kFailOp;
    failing.recovery.max_retries = 0;
    const ObservedRun baseline =
        ObserveKnnRun(w, /*threads=*/1, /*device_batch=*/4, clean,
                      ShardInvariantKnnCounters());
    EXPECT_NE(baseline.trace_json.find("\"pim_dot\""), std::string::npos);
    EXPECT_EQ(baseline.trace_json.find("\"pim_dot2\"") != std::string::npos,
              fnn);
    for (const bool faulty : {false, true}) {
      for (const int shards : {1, 3}) {
        EngineOptions options = faulty ? failing : clean;
        options.shard.shards = shards;
        const ObservedRun run =
            ObserveKnnRun(w, /*threads=*/1, /*device_batch=*/4, options,
                          ShardInvariantKnnCounters());
        ExpectIdenticalObservations(
            baseline, run,
            std::string(fnn ? "FNN" : "ED") +
                (faulty ? " kFailOp" : " fault-free") +
                " M=" + std::to_string(shards));
      }
    }
  }
}

TEST(ObsDeterminismTest, KnnRunToRunIdenticalWithSameSeed) {
  const Workload w = MakeWorkload(300, 24, 5);
  const ObservedRun first = ObserveKnnRun(w, 4, 16);
  const ObservedRun second = ObserveKnnRun(w, 4, 16);
  ExpectIdenticalObservations(first, second, "kNN rerun");
}

TEST(ObsDeterminismTest, KmeansTraceBitIdenticalAcrossThreadsAndBatches) {
  const Workload w = MakeWorkload(420, 24, 17);
  const ObservedRun baseline = ObserveKmeansRun(w.data, /*threads=*/1,
                                                /*device_batch=*/1);
  EXPECT_GT(baseline.stats_hist.count(), 0u);  // per-iteration samples.
  EXPECT_NE(baseline.trace_json.find("iteration"), std::string::npos);

  for (int threads : {1, 4}) {
    for (size_t device_batch : {size_t{1}, size_t{16}}) {
      const ObservedRun run = ObserveKmeansRun(w.data, threads, device_batch);
      ExpectIdenticalObservations(
          baseline, run,
          "kmeans x" + std::to_string(threads) + " batch" +
              std::to_string(device_batch));
    }
  }
}

TEST(ObsDeterminismTest, KmeansRunToRunIdenticalWithSameSeed) {
  const Workload w = MakeWorkload(350, 20, 29);
  const ObservedRun first = ObserveKmeansRun(w.data, 4, 16);
  const ObservedRun second = ObserveKmeansRun(w.data, 4, 16);
  ExpectIdenticalObservations(first, second, "kmeans rerun");
}

struct ObservedReplay {
  std::string trace_json;
  std::vector<bool> served;  // by query id (= trace event index).
};

ObservedReplay ObserveServeReplay(const Workload& w, int scheduler_threads) {
  serve::ServeOptions options;
  options.max_batch = 8;
  options.exec.device_batch = 4;
  options.k = 5;
  options.scheduler_threads = scheduler_threads;
  options.tenants = {{"gold", 4}, {"free", 1}};
  serve::WorkloadSpec spec;
  spec.num_requests = 96;
  spec.offered_qps = 2e6;
  spec.tenant_share = {1.0, 1.0};
  spec.num_query_rows = static_cast<uint32_t>(w.queries.rows());
  spec.seed = 8;
  auto trace = serve::GeneratePoissonTrace(spec);
  EXPECT_TRUE(trace.ok());
  auto server = serve::PimServer::Build(w.data, Distance::kEuclidean,
                                        EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();

  obs::Obs::Enable();
  auto output = (*server)->Replay(*trace, w.queries);
  EXPECT_TRUE(output.ok()) << output.status().ToString();
  ObservedReplay run;
  run.trace_json = obs::Obs::Get()->trace().ToChromeJson();
  obs::Obs::Disable();
  for (const serve::ServedResult& r : output->results) {
    run.served.push_back(r.status.ok());
  }
  return run;
}

/// Span names per track of a ToChromeJson document, in document order.
std::map<int64_t, std::vector<std::string>> SpansByTrack(
    const std::string& json) {
  std::map<int64_t, std::vector<std::string>> tracks;
  for (size_t at = json.find("\"tid\":"); at != std::string::npos;
       at = json.find("\"tid\":", at + 1)) {
    const int64_t track = std::strtoll(json.c_str() + at + 6, nullptr, 10);
    const size_t name = json.find("\"name\":\"", at) + 8;
    tracks[track].push_back(json.substr(name, json.find('"', name) - name));
  }
  return tracks;
}

// A weighted-fair dispatch coalesces queries whose ids are not contiguous;
// each served query's engine spans still land on its own track, so the
// trace is the same at any scheduler_threads.
TEST(ObsDeterminismTest, ServeReplayLabelsEachQuerysOwnTrack) {
  const Workload w = MakeWorkload(400, 32, 41);
  const ObservedReplay one = ObserveServeReplay(w, 1);
  const std::map<int64_t, std::vector<std::string>> tracks =
      SpansByTrack(one.trace_json);
  size_t served = 0;
  for (size_t id = 0; id < one.served.size(); ++id) {
    const auto it = tracks.find(static_cast<int64_t>(id));
    if (!one.served[id]) {
      EXPECT_TRUE(it == tracks.end()) << "rejected query " << id;
      continue;
    }
    ++served;
    ASSERT_TRUE(it != tracks.end()) << "query " << id;
    std::vector<std::string> names = it->second;
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"pim_dot", "quantize",
                                               "query"}))
        << "query " << id;
  }
  EXPECT_GT(served, 0u);
  const ObservedReplay four = ObserveServeReplay(w, 4);
  EXPECT_EQ(one.trace_json, four.trace_json);
}

uint64_t PublishedPruned() {
  return obs::Obs::Get()
      ->metrics()
      .GetCounter("pimine_candidates_pruned_total")
      .Value();
}

// pimine_candidates_pruned_total counts the candidates a bound decided.
// Lloyd-PIM evaluates the bound of every pair but the start center, and
// each one is pruned or computed exactly; the n start-center distances per
// iteration are exact and gated by no bound.
TEST(PrunedCounterTest, LloydPimCountsThePairsItsBoundDecided) {
  const Workload w = MakeWorkload(300, 32, 4);
  for (const int threads : {1, 3}) {
    obs::Obs::Enable();
    KmeansOptions options;
    options.k = 8;
    options.max_iterations = 4;
    options.use_pim = true;
    options.exec = ExecPolicy::WithThreads(threads);
    LloydKmeans lloyd;
    auto result = lloyd.Run(w.data, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RunStats& s = result->stats;
    const uint64_t start_distances =
        w.data.rows() * static_cast<uint64_t>(result->iterations);
    EXPECT_GT(s.pruned_count, 0u) << threads;
    EXPECT_EQ(s.pruned_count, s.bound_count - s.exact_count + start_distances)
        << threads;
    EXPECT_EQ(PublishedPruned(), s.pruned_count) << threads;
    obs::Obs::Disable();
  }
}

// FNN-PIM evaluates the PIM bound of every row and its finer LB_FNN levels
// on some, so bound evaluations exceed the rows. A query prunes each live
// row it does not refine, however many levels decided it.
TEST(PrunedCounterTest, FnnPimCountsTheLiveRowsItDidNotRefine) {
  const Workload w = MakeWorkload(300, 64, 5);
  obs::Obs::Enable();
  FnnPimKnn fnn(EngineOptions(), /*optimize=*/false);
  ASSERT_TRUE(fnn.Prepare(w.data).ok());
  auto result = fnn.Search(w.queries, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunStats& s = result->stats;
  const uint64_t rows = w.queries.rows() * w.data.rows();
  EXPECT_GT(s.bound_count, rows);  // the cascade ran.
  EXPECT_EQ(s.pruned_count, rows - s.exact_count);
  EXPECT_EQ(PublishedPruned(), rows - s.exact_count);
  obs::Obs::Disable();
}

// A served query prunes each live row it does not refine, as the offline
// Standard-PIM Search does.
TEST(PrunedCounterTest, ServedQueriesCountTheLiveRowsTheyDidNotRefine) {
  const Workload w = MakeWorkload(400, 32, 41);
  serve::ServeOptions options;
  options.max_batch = 8;
  options.exec.device_batch = 4;
  options.k = 5;
  options.scheduler_threads = 2;
  auto server = serve::PimServer::Build(w.data, Distance::kEuclidean,
                                        EngineOptions(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  serve::WorkloadSpec spec;
  spec.num_requests = 64;
  spec.offered_qps = 2e6;
  spec.num_query_rows = static_cast<uint32_t>(w.queries.rows());
  spec.seed = 8;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());
  auto output = (*server)->Replay(*trace, w.queries);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  const RunStats& s = output->stats.exec;
  EXPECT_GT(output->stats.served, 0u);
  EXPECT_EQ(s.pruned_count, output->stats.served * w.data.rows() -
                                s.exact_count);
}

// With observability disabled (the default), the latency histogram must
// stay empty — the RunStats surface is bit-identical to an uninstrumented
// binary.
TEST(ObsDeterminismTest, DisabledRunLeavesHistogramEmpty) {
  ASSERT_FALSE(obs::Obs::Enabled());
  const Workload w = MakeWorkload(200, 16, 3);
  StandardPimKnn algorithm(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(algorithm.Prepare(w.data).ok());
  auto result = algorithm.Search(w.queries, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.latency_hist.count(), 0u);
}

}  // namespace
}  // namespace pimine
