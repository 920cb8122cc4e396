// Tests of the traffic accounting that drives every modeled number: the
// counted bytes must track what the algorithms actually touch, the PIM
// variants' lazy combines must be charged per inspected result, and a run
// must count no other thread's work.

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "data/generator.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "sim/traffic.h"
#include "test_helpers.h"
#include "util/top_k.h"
#include "util/random.h"

namespace pimine {
namespace {

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
  const TrafficCounters delta = scope.Delta();
  EXPECT_EQ(delta.pim_results_loaded, 2u);
}

// A run counts the traffic of the thread that opened it and of the slot
// passes it fanned out, never another thread's concurrent work: two threads
// searching at once, both fanning out over the shared pool, each read a
// solo run's figures in every run.
TEST(TrafficIsolationTest, ConcurrentSearchesReportOnlyTheirOwnTraffic) {
  const FloatMatrix data = Clustered(2000, 64, 7);
  const FloatMatrix queries = RandomUnitMatrix(8, 64, 8);
  StandardKnn solo;
  ASSERT_TRUE(solo.Prepare(data).ok());
  auto alone = solo.Search(queries, 5);
  ASSERT_TRUE(alone.ok());
  ASSERT_GT(alone->stats.traffic.bytes_from_memory, 0u);

  constexpr int kRuns = 20;
  std::vector<std::vector<TrafficCounters>> traffic(2);
  std::latch start(2);
  auto search = [&](size_t t) {
    StandardKnn knn;
    knn.set_exec_policy(ExecPolicy::WithThreads(2));
    ASSERT_TRUE(knn.Prepare(data).ok());
    start.arrive_and_wait();
    for (int r = 0; r < kRuns; ++r) {
      auto result = knn.Search(queries, 5);
      ASSERT_TRUE(result.ok());
      traffic[t].push_back(result->stats.traffic);
    }
  };
  std::thread first(search, 0);
  std::thread second(search, 1);
  first.join();
  second.join();
  for (size_t t = 0; t < traffic.size(); ++t) {
    ASSERT_EQ(traffic[t].size(), static_cast<size_t>(kRuns));
    for (int r = 0; r < kRuns; ++r) {
      EXPECT_TRUE(traffic[t][r] == alone->stats.traffic)
          << "thread " << t << " run " << r << ": "
          << traffic[t][r].ToString() << " vs "
          << alone->stats.traffic.ToString();
    }
  }
}

// An AggregateScope measures its own thread: charges another thread makes
// while the scope is open never reach its delta.
TEST(TrafficIsolationTest, AggregateScopeSeesNoOtherThreadsCharges) {
  traffic::AggregateScope scope;
  std::thread other([] { traffic::CountRead(100); });
  other.join();
  EXPECT_TRUE(scope.Delta() == TrafficCounters()) << scope.Delta().ToString();
  traffic::CountRead(7);
  EXPECT_EQ(scope.Delta().bytes_from_memory, 7u);
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
