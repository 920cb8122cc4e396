// Tests of the run ledger that drives every modeled number and the Fig. 6
// profile: the counted bytes must track what the algorithms actually touch,
// the PIM variants' lazy combines must be charged per inspected result, a
// run must count no other thread's work, and every run must time exactly
// the functions it executes.

#include <algorithm>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "data/generator.h"
#include "data/simhash.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "knn/approximate_pim_knn.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/hamming_knn.h"
#include "knn/motif.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/outlier.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "sim/traffic.h"
#include "test_helpers.h"
#include "util/top_k.h"
#include "util/random.h"

namespace pimine {
namespace {

using testing_util::Charged;
using testing_util::RandomUnitMatrix;
using testing_util::RandomUnitVector;

FloatMatrix Clustered(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "traffic";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

TEST(TrafficAccountingTest, StandardScanBoundedByFullPayload) {
  const size_t n = 1000;
  const size_t d = 64;
  const FloatMatrix data = Clustered(n, d, 1);
  const FloatMatrix queries = RandomUnitMatrix(4, d, 2);

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(data).ok());
  auto result = standard.Search(queries, 5);
  ASSERT_TRUE(result.ok());

  const uint64_t full = 4ull * n * d * sizeof(float);
  // Early abandoning can only reduce the scan's traffic...
  EXPECT_LE(result->stats.traffic.bytes_from_memory, full);
  // ...but a meaningful fraction must still be read.
  EXPECT_GE(result->stats.traffic.bytes_from_memory, full / 20);
  EXPECT_EQ(result->stats.traffic.pim_results_loaded, 0u);
}

TEST(TrafficAccountingTest, PimVariantLoadsResultsNotVectors) {
  const size_t n = 2000;
  const size_t d = 128;
  const FloatMatrix data = Clustered(n, d, 3);
  const FloatMatrix queries = RandomUnitMatrix(3, d, 4);

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(data).ok());
  auto result = pim.Search(queries, 5);
  ASSERT_TRUE(result.ok());

  // One combine per object per query: exactly that many PIM result loads
  // (the Fig. 8 "3*b bits" story).
  EXPECT_EQ(result->stats.traffic.pim_results_loaded, 3ull * n);
  // Vector payload read only for the refined candidates.
  EXPECT_LT(result->stats.traffic.bytes_from_memory,
            3ull * n * d * sizeof(float) / 4);
}

TEST(TrafficAccountingTest, LazyCombineChargesPerInspection) {
  const FloatMatrix data = RandomUnitMatrix(100, 16, 5);
  auto engine_or =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine_or.ok());
  const ShardedPimEngine& engine = **engine_or;

  auto handle_or = engine.RunQueryBatch(RandomUnitVector(16, 6), 1);
  ASSERT_TRUE(handle_or.ok());

  traffic::AggregateScope scope;
  engine.BoundFor(*handle_or, 0, 0);
  engine.BoundFor(*handle_or, 0, 1);
  const TrafficCounters delta = scope.Delta().traffic;
  EXPECT_EQ(delta.pim_results_loaded, 2u);
}

// A run counts the ledger of the thread that opened it and of the slot
// passes it fanned out, never another thread's concurrent work: two threads
// searching at once, both fanning out over the shared pool, each read a
// solo serial run's traffic, exact/bound/pruned counts and charged
// functions in every run. FNN's cascade counts bounds per candidate.
TEST(TrafficIsolationTest, ConcurrentSearchesReportOnlyTheirOwnLedger) {
  const FloatMatrix data = Clustered(2000, 64, 7);
  const FloatMatrix queries = RandomUnitMatrix(8, 64, 8);
  FnnKnn solo;
  ASSERT_TRUE(solo.Prepare(data).ok());
  auto alone = solo.Search(queries, 5);
  ASSERT_TRUE(alone.ok());
  const RunStats& want = alone->stats;
  ASSERT_GT(want.traffic.bytes_from_memory, 0u);
  ASSERT_GT(want.exact_count, 0u);
  ASSERT_GT(want.bound_count, 8u * 2000u);  // the cascade's levels too.
  ASSERT_GT(want.pruned_count, 0u);
  const std::vector<std::string> want_fns = {"ED", "LB_FNN"};
  ASSERT_EQ(Charged(want.profile), want_fns);

  constexpr int kRuns = 20;
  std::vector<std::vector<RunStats>> runs(2);
  std::latch start(2);
  auto search = [&](size_t t) {
    FnnKnn knn;
    knn.set_exec_policy(ExecPolicy::WithThreads(2));
    ASSERT_TRUE(knn.Prepare(data).ok());
    start.arrive_and_wait();
    for (int r = 0; r < kRuns; ++r) {
      auto result = knn.Search(queries, 5);
      ASSERT_TRUE(result.ok());
      runs[t].push_back(result->stats);
    }
  };
  std::thread first(search, 0);
  std::thread second(search, 1);
  first.join();
  second.join();
  for (size_t t = 0; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), static_cast<size_t>(kRuns));
    for (int r = 0; r < kRuns; ++r) {
      SCOPED_TRACE("thread " + std::to_string(t) + " run " +
                   std::to_string(r));
      const RunStats& got = runs[t][r];
      EXPECT_TRUE(got.traffic == want.traffic)
          << got.traffic.ToString() << " vs " << want.traffic.ToString();
      EXPECT_EQ(got.exact_count, want.exact_count);
      EXPECT_EQ(got.bound_count, want.bound_count);
      EXPECT_EQ(got.pruned_count, want.pruned_count);
      EXPECT_EQ(Charged(got.profile), want_fns);
    }
  }
}

// An AggregateScope measures its own thread: charges another thread makes
// while the scope is open, traffic, counts and function time alike, never
// reach its delta.
TEST(TrafficIsolationTest, AggregateScopeSeesNoOtherThreadsCharges) {
  const traffic::AggregateScope scope;
  std::thread other([] {
    ScopedFunctionTimer timer(Fn::kEd);
    traffic::CountRead(100);
    traffic::CountExact(3);
    traffic::CountBounds(4);
    traffic::CountPruned(5);
  });
  other.join();
  const RunLedger seen = scope.Delta();
  EXPECT_TRUE(seen.traffic == TrafficCounters()) << seen.traffic.ToString();
  EXPECT_EQ(seen.exact_count, 0u);
  EXPECT_EQ(seen.bound_count, 0u);
  EXPECT_EQ(seen.pruned_count, 0u);
  EXPECT_EQ(seen.profile.TotalNs(), 0);

  traffic::CountRead(7);
  traffic::CountExact(1);
  const RunLedger own = scope.Delta();
  EXPECT_EQ(own.traffic.bytes_from_memory, 7u);
  EXPECT_EQ(own.exact_count, 1u);
}

// One serial run of every algorithm family: the run must charge time to
// exactly the Fig. 6 functions it executes (listed in Fn order), and since
// its timers never overlap and all run inside the run's scope, the profile
// total is at most the run's wall time.
struct ProfiledCase {
  std::string label;
  std::function<RunStats()> run;
  std::vector<std::string> functions;
};

// The stats of a run that must succeed.
template <typename R>
RunStats StatsOf(const Result<R>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->stats : RunStats();
}

std::vector<ProfiledCase> ProfiledCases() {
  static const FloatMatrix data = Clustered(600, 64, 11);
  static const FloatMatrix queries = RandomUnitMatrix(4, 64, 12);
  std::vector<ProfiledCase> cases;
  const auto knn = [&](std::string label,
                       std::function<std::unique_ptr<KnnAlgorithm>()> make,
                       std::vector<std::string> functions) {
    cases.push_back({std::move(label),
                     [make] {
                       const std::unique_ptr<KnnAlgorithm> algorithm = make();
                       EXPECT_TRUE(algorithm->Prepare(data).ok());
                       return StatsOf(algorithm->Search(queries, 5));
                     },
                     std::move(functions)});
  };
  knn("Standard", [] { return std::make_unique<StandardKnn>(); }, {"ED"});
  knn("SM", [] { return std::make_unique<SmKnn>(); }, {"ED", "LB_SM"});
  knn("OST", [] { return std::make_unique<OstKnn>(); }, {"ED", "LB_OST"});
  knn("FNN", [] { return std::make_unique<FnnKnn>(); }, {"ED", "LB_FNN"});
  knn("Standard-PIM",
      [] {
        return std::make_unique<StandardPimKnn>(Distance::kEuclidean,
                                                EngineOptions());
      },
      {"ED", "LB_PIM"});
  knn("SM-PIM", [] { return std::make_unique<SmPimKnn>(EngineOptions()); },
      {"ED", "LB_PIM"});
  knn("OST-PIM", [] { return std::make_unique<OstPimKnn>(EngineOptions()); },
      {"ED", "LB_PIM"});
  knn("FNN-PIM",
      [] {
        return std::make_unique<FnnPimKnn>(EngineOptions(),
                                           /*optimize=*/false);
      },
      {"ED", "LB_PIM", "LB_FNN"});
  knn("Approx-PIM",
      [] { return std::make_unique<ApproximatePimKnn>(EngineOptions()); },
      {"ED_approx", "LB_PIM"});

  const auto kmeans = [&](std::string label,
                          std::shared_ptr<const KmeansAlgorithm> algorithm,
                          bool use_pim, std::vector<std::string> functions) {
    cases.push_back({std::move(label),
                     [algorithm, use_pim] {
                       KmeansOptions options;
                       options.k = 8;
                       options.max_iterations = 4;
                       options.use_pim = use_pim;
                       return StatsOf(algorithm->Run(data, options));
                     },
                     std::move(functions)});
  };
  const std::vector<std::shared_ptr<const KmeansAlgorithm>> bounded = {
      std::make_shared<ElkanKmeans>(), std::make_shared<HamerlyKmeans>(),
      std::make_shared<DrakeKmeans>(), std::make_shared<YinyangKmeans>()};
  const auto lloyd = std::make_shared<LloydKmeans>();
  kmeans("Lloyd", lloyd, false, {"ED", "update"});
  kmeans("Lloyd-PIM", lloyd, true, {"ED", "LB_PIM", "update"});
  for (const auto& algorithm : bounded) {
    const std::string name(algorithm->name());
    kmeans(name, algorithm, false, {"ED", "bound update", "update"});
    kmeans(name + "-PIM", algorithm, true,
           {"ED", "LB_PIM", "bound update", "update"});
  }

  cases.push_back({"Outlier",
                   [] {
                     return StatsOf(OrcaOutlierDetector().Detect(data, {}));
                   },
                   {"ED"}});
  cases.push_back({"Outlier-PIM",
                   [] {
                     return StatsOf(OrcaPimOutlierDetector(EngineOptions())
                                        .Detect(data, {}));
                   },
                   {"ED", "LB_PIM"}});
  static const FloatMatrix windows = RandomUnitMatrix(300, 32, 13);
  static const MotifOptions motif{.window = 32};
  cases.push_back(
      {"Motif", [] { return StatsOf(MotifDiscovery().Find(windows, motif)); },
       {"ED"}});
  cases.push_back({"Motif-PIM",
                   [] {
                     PimMotifDiscovery pim(EngineOptions{});
                     return StatsOf(pim.Find(windows, motif));
                   },
                   {"ED", "LB_PIM"}});

  static const SimHashEncoder encoder(64, 256, 5);
  static const BitMatrix codes = encoder.Encode(data);
  static const BitMatrix query_codes = encoder.Encode(queries);
  cases.push_back({"Hamming",
                   [] {
                     HammingScanKnn scan;
                     EXPECT_TRUE(scan.Prepare(codes).ok());
                     return StatsOf(scan.Search(query_codes, 5));
                   },
                   {"HD"}});
  cases.push_back({"Hamming-PIM",
                   [] {
                     HammingPimKnn pim;
                     EXPECT_TRUE(pim.Prepare(codes).ok());
                     return StatsOf(pim.Search(query_codes, 5));
                   },
                   {"HD_PIM"}});
  return cases;
}

TEST(RunProfileTest, EachRunTimesExactlyItsFunctions) {
  for (const ProfiledCase& c : ProfiledCases()) {
    SCOPED_TRACE(c.label);
    const RunStats stats = c.run();
    EXPECT_EQ(Charged(stats.profile), c.functions);
    EXPECT_LE(static_cast<double>(stats.profile.TotalNs()),
              stats.wall_ms * 1e6);
  }
}

// Reference check of TopK against a full sort, randomized.
TEST(TopKReferenceTest, MatchesSortedPrefix) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 50 + rng.NextBounded(200);
    const size_t k = 1 + rng.NextBounded(20);
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng.NextDouble();
      // Inject duplicates to exercise tie handling.
      if (rng.NextBool(0.2)) v = 0.5;
    }
    TopK topk(k);
    for (size_t i = 0; i < n; ++i) {
      topk.Push(values[i], static_cast<int32_t>(i));
    }
    const auto got = topk.TakeSorted();

    std::vector<Neighbor> expected;
    for (size_t i = 0; i < n; ++i) {
      expected.push_back({values[i], static_cast<int32_t>(i)});
    }
    std::sort(expected.begin(), expected.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    expected.resize(std::min(k, n));
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "trial " << trial;
      EXPECT_DOUBLE_EQ(got[i].distance, expected[i].distance);
    }
  }
}

}  // namespace
}  // namespace pimine
