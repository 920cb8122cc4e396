#include <memory>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/simhash.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/hamming_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

// Clustered data makes bounds meaningful; shared across tests.
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
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 6, seed + 1);
  return w;
}

void ExpectSameNeighbors(const KnnRunResult& expected,
                         const KnnRunResult& actual,
                         const std::string& label) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << label;
  for (size_t q = 0; q < expected.neighbors.size(); ++q) {
    ASSERT_EQ(expected.neighbors[q].size(), actual.neighbors[q].size())
        << label << " query " << q;
    for (size_t j = 0; j < expected.neighbors[q].size(); ++j) {
      EXPECT_EQ(expected.neighbors[q][j].id, actual.neighbors[q][j].id)
          << label << " query " << q << " rank " << j;
      EXPECT_NEAR(expected.neighbors[q][j].distance,
                  actual.neighbors[q][j].distance, 1e-9)
          << label << " query " << q << " rank " << j;
    }
  }
}

// The paper's headline accuracy claim: every algorithm — baseline or
// PIM-optimized — returns exactly the linear scan's results.
TEST(KnnEquivalenceTest, AllEuclideanAlgorithmsMatchStandard) {
  const Workload w = MakeWorkload(500, 64, 42);
  const int k = 10;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  std::vector<std::unique_ptr<KnnAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<SmKnn>());
  algorithms.push_back(std::make_unique<OstKnn>());
  algorithms.push_back(std::make_unique<FnnKnn>());
  algorithms.push_back(std::make_unique<StandardPimKnn>(
      Distance::kEuclidean, EngineOptions()));
  algorithms.push_back(std::make_unique<SmPimKnn>(EngineOptions()));
  algorithms.push_back(
      std::make_unique<OstPimKnn>(EngineOptions(), /*prefix_divisor=*/8));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/false));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/true));

  for (auto& algorithm : algorithms) {
    ASSERT_TRUE(algorithm->Prepare(w.data).ok())
        << algorithm->name();
    auto result = algorithm->Search(w.queries, k);
    ASSERT_TRUE(result.ok()) << algorithm->name() << ": "
                             << result.status().ToString();
    ExpectSameNeighbors(*golden, *result, std::string(algorithm->name()));
  }
}

struct KCase {
  int k;
};
class KnnKSweepTest : public ::testing::TestWithParam<KCase> {};

TEST_P(KnnKSweepTest, PimMatchesStandardAcrossK) {
  const Workload w = MakeWorkload(300, 40, 7);
  const int k = GetParam().k;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, k);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "k=" + std::to_string(k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnnKSweepTest,
                         ::testing::Values(KCase{1}, KCase{2}, KCase{10},
                                           KCase{50}, KCase{100},
                                           KCase{300}));

class KnnSimilarityMeasureTest : public ::testing::TestWithParam<Distance> {};

TEST_P(KnnSimilarityMeasureTest, PimMatchesStandard) {
  const Distance distance = GetParam();
  const Workload w = MakeWorkload(250, 32, 11);

  StandardKnn standard(distance);
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, 10);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(distance, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, std::string(DistanceName(distance)));
}

INSTANTIATE_TEST_SUITE_P(Measures, KnnSimilarityMeasureTest,
                         ::testing::Values(Distance::kEuclidean,
                                           Distance::kCosine,
                                           Distance::kPearson));

TEST(KnnPruningTest, BoundAlgorithmsComputeFewerExactDistances) {
  const Workload w = MakeWorkload(2000, 128, 21);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto base = standard.Search(w.queries, 10);
  ASSERT_TRUE(base.ok());

  FnnKnn fnn;
  ASSERT_TRUE(fnn.Prepare(w.data).ok());
  auto accel = fnn.Search(w.queries, 10);
  ASSERT_TRUE(accel.ok());
  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count / 2)
      << "FNN should prune most exact computations on clustered data";

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto pim_result = pim.Search(w.queries, 10);
  ASSERT_TRUE(pim_result.ok());
  EXPECT_LT(pim_result->stats.exact_count, base->stats.exact_count / 2);
  // The PIM variant moves drastically fewer bytes from memory.
  EXPECT_LT(pim_result->stats.traffic.bytes_from_memory,
            base->stats.traffic.bytes_from_memory / 4);
  EXPECT_GT(pim_result->stats.pim_ns, 0.0);
}

TEST(KnnErrorTest, InvalidUsage) {
  const Workload w = MakeWorkload(50, 16, 31);
  StandardKnn standard;
  // Search before Prepare.
  EXPECT_EQ(standard.Search(w.queries, 5).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  // k out of range.
  EXPECT_FALSE(standard.Search(w.queries, 0).ok());
  EXPECT_FALSE(standard.Search(w.queries, 51).ok());
  // Dimensionality mismatch.
  const FloatMatrix wrong = RandomUnitMatrix(2, 8, 1);
  EXPECT_FALSE(standard.Search(wrong, 5).ok());
  // Empty dataset.
  EXPECT_FALSE(standard.Prepare(FloatMatrix()).ok());
}

// Misuse of a kNN constructor is refused by Prepare with InvalidArgument
// (the process keeps running), and a later Search reports the missing
// Prepare instead of crashing.
void ExpectPrepareRejects(KnnAlgorithm& algorithm) {
  const Workload w = MakeWorkload(50, 16, 37);
  EXPECT_EQ(algorithm.Prepare(w.data).code(), StatusCode::kInvalidArgument)
      << algorithm.name();
  EXPECT_EQ(algorithm.Search(w.queries, 5).status().code(),
            StatusCode::kFailedPrecondition)
      << algorithm.name();
}

TEST(KnnMisuseTest, StandardRejectsHamming) {
  StandardKnn standard(Distance::kHamming);
  ExpectPrepareRejects(standard);
}

TEST(KnnMisuseTest, StandardPimRejectsHamming) {
  StandardPimKnn pim(Distance::kHamming, EngineOptions());
  ExpectPrepareRejects(pim);
}

TEST(KnnMisuseTest, SmRejectsZeroSegmentDivisor) {
  SmKnn sm(/*segment_divisor=*/0);
  ExpectPrepareRejects(sm);
}

TEST(KnnMisuseTest, OstRejectsZeroPrefixDivisor) {
  OstKnn ost(/*prefix_divisor=*/0);
  ExpectPrepareRejects(ost);
}

TEST(KnnMisuseTest, OstPimRejectsZeroPrefixDivisor) {
  OstPimKnn ost(EngineOptions(), /*prefix_divisor=*/0);
  ExpectPrepareRejects(ost);
}

TEST(KnnMisuseTest, FnnRejectsBadLevels) {
  FnnKnn no_levels(std::vector<int64_t>{});
  ExpectPrepareRejects(no_levels);
  FnnKnn zero_divisor({16, 0});
  ExpectPrepareRejects(zero_divisor);
}

TEST(KnnMisuseTest, FnnPimRejectsBadLevelsAndPlanKnobs) {
  FnnPimKnn no_levels(EngineOptions(), false, {});
  ExpectPrepareRejects(no_levels);
  FnnPimKnn zero_divisor(EngineOptions(), false, {64, 0});
  ExpectPrepareRejects(zero_divisor);
  FnnPimKnn no_samples(EngineOptions(), true, {64, 16, 4},
                       /*plan_sample_queries=*/0);
  ExpectPrepareRejects(no_samples);
  FnnPimKnn zero_k(EngineOptions(), true, {64, 16, 4}, 4, /*plan_k=*/0);
  ExpectPrepareRejects(zero_k);
}

TEST(KnnPlanTest, OptimizedPlanPrefersPimBound) {
  const Workload w = MakeWorkload(800, 256, 41);
  FnnPimKnn optimized(EngineOptions(), /*optimize=*/true);
  ASSERT_TRUE(optimized.Prepare(w.data).ok());
  // The PIM bound costs 3*b bits vs hundreds for original levels; with its
  // high measured pruning ratio the plan must select it.
  ASSERT_FALSE(optimized.plan().selected.empty());
  EXPECT_EQ(optimized.plan().selected[0], 0u);
  EXPECT_TRUE(optimized.candidates()[0].is_pim);
  EXPECT_GT(optimized.candidates()[0].pruning_ratio, 0.5);
}

TEST(HammingKnnTest, PimMatchesScan) {
  const FloatMatrix raw = RandomUnitMatrix(400, 64, 3);
  const SimHashEncoder encoder(64, 256, 5);
  const BitMatrix codes = encoder.Encode(raw);
  const FloatMatrix raw_queries = RandomUnitMatrix(5, 64, 4);
  const BitMatrix query_codes = encoder.Encode(raw_queries);

  HammingScanKnn scan;
  ASSERT_TRUE(scan.Prepare(codes).ok());
  auto golden = scan.Search(query_codes, 10);
  ASSERT_TRUE(golden.ok());

  HammingPimKnn pim;
  ASSERT_TRUE(pim.Prepare(codes).ok());
  auto result = pim.Search(query_codes, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "hamming");
  EXPECT_GT(result->stats.pim_ns, 0.0);
}

TEST(HammingKnnTest, Validation) {
  HammingScanKnn scan;
  EXPECT_FALSE(scan.Prepare(BitMatrix()).ok());
  BitMatrix codes(10, 64);
  ASSERT_TRUE(scan.Prepare(codes).ok());
  BitMatrix wrong(1, 128);
  EXPECT_FALSE(scan.Search(wrong, 3).ok());
  EXPECT_FALSE(scan.Search(codes, 11).ok());
}

}  // namespace
}  // namespace pimine
