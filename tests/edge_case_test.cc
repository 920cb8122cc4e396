// Edge-case battery across module boundaries: degenerate sizes, duplicate
// data, extreme parameters — places where off-by-ones and division-by-zero
// hide.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/segments.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "data/bit_matrix.h"
#include "kmeans/lloyd.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "pim/crossbar.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::QueryBounds;
using testing_util::RandomUnitMatrix;
using testing_util::RandomUnitVector;

TEST(SegmentEdgeTest, OneSegmentAndPerDimensionSegments) {
  const auto v = RandomUnitVector(12, 1);
  // d0 == d: each segment is one value -> mean = value, std = 0.
  std::vector<float> means(12), stds(12);
  ComputeSegments(v, 12, means, stds);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(means[i], v[i]);
    EXPECT_FLOAT_EQ(stds[i], 0.0f);
  }
  // d0 == 1: single segment covering everything.
  std::vector<float> mean1(1), std1(1);
  ComputeSegments(v, 1, mean1, std1);
  double sum = 0.0;
  for (float x : v) sum += x;
  EXPECT_NEAR(mean1[0], sum / 12.0, 1e-6);
}

TEST(EngineEdgeTest, SingleObjectSingleDimension) {
  FloatMatrix data(1, 1);
  data(0, 0) = 0.42f;
  auto engine =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<double> bounds;
  const std::vector<float> q = {0.9f};
  ASSERT_TRUE(QueryBounds(**engine, q, &bounds).ok());
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_LE(bounds[0], SquaredEuclidean(data.row(0), q) + 1e-9);
}

TEST(EngineEdgeTest, DuplicateObjectsGetEqualBounds) {
  FloatMatrix data(4, 8);
  const auto row = RandomUnitVector(8, 2);
  for (size_t i = 0; i < 4; ++i) {
    std::copy(row.begin(), row.end(), data.mutable_row(i).begin());
  }
  auto engine =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<double> bounds;
  ASSERT_TRUE(QueryBounds(**engine, RandomUnitVector(8, 3), &bounds).ok());
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[0]);
  }
}

TEST(EngineEdgeTest, AllZeroAndAllOneData) {
  FloatMatrix data(3, 6, 0.0f);
  for (float& v : data.mutable_row(1)) v = 1.0f;
  auto engine =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<double> bounds;
  const std::vector<float> q(6, 1.0f);
  ASSERT_TRUE(QueryBounds(**engine, q, &bounds).ok());
  EXPECT_LE(bounds[0], 6.0 + 1e-9);  // exact distance to all-zero row is 6.
  EXPECT_LE(bounds[1], 1e-9);       // identical to the query.
}

TEST(KnnEdgeTest, KEqualsNReturnsAllSorted) {
  const FloatMatrix data = RandomUnitMatrix(20, 8, 4);
  const FloatMatrix queries = RandomUnitMatrix(1, 8, 5);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(data).ok());
  auto result = standard.Search(queries, 20);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->neighbors[0].size(), 20u);
  for (size_t i = 1; i < 20; ++i) {
    EXPECT_GE(result->neighbors[0][i].distance,
              result->neighbors[0][i - 1].distance);
  }

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(data).ok());
  auto accel = pim.Search(queries, 20);
  ASSERT_TRUE(accel.ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(accel->neighbors[0][i].id, result->neighbors[0][i].id);
  }
}

TEST(KnnEdgeTest, QueryIdenticalToDataPoint) {
  FloatMatrix data = RandomUnitMatrix(50, 16, 6);
  FloatMatrix queries(1, 16);
  std::copy(data.row(7).begin(), data.row(7).end(),
            queries.mutable_row(0).begin());
  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(data).ok());
  auto result = pim.Search(queries, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors[0][0].id, 7);
  EXPECT_NEAR(result->neighbors[0][0].distance, 0.0, 1e-12);
}

TEST(KmeansEdgeTest, KEqualsNGivesZeroInertia) {
  const FloatMatrix data = RandomUnitMatrix(10, 4, 7);
  KmeansOptions options;
  options.k = 10;
  options.max_iterations = 3;
  LloydKmeans lloyd;
  auto result = lloyd.Run(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->inertia, 0.0, 1e-9);
}

TEST(KmeansEdgeTest, SingleIterationIsValid) {
  const FloatMatrix data = RandomUnitMatrix(40, 6, 8);
  KmeansOptions options;
  options.k = 4;
  options.max_iterations = 1;
  LloydKmeans lloyd;
  auto result = lloyd.Run(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, 1);
}

TEST(BitMatrixEdgeTest, AllZeroCodes) {
  BitMatrix codes(2, 64);
  EXPECT_EQ(BitMatrix::HammingDistance(codes.row(0), codes.row(1)), 0);
  codes.Set(0, 63, true);
  EXPECT_EQ(BitMatrix::HammingDistance(codes.row(0), codes.row(1)), 1);
}

TEST(CrossbarEdgeTest, AllZeroOperandsGiveZero) {
  Crossbar xbar(8, 2);
  ASSERT_TRUE(
      xbar.ProgramVector(0, std::vector<uint32_t>(8, 0), 8).ok());
  auto result = xbar.DotProduct(std::vector<uint32_t>(8, 3), 8, 8, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values[0], 0u);
}

TEST(SimilarityEdgeTest, EmptyVectors) {
  const std::vector<float> empty;
  EXPECT_DOUBLE_EQ(SquaredEuclidean(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(DotProduct(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(empty, empty), 0.0);
}

}  // namespace
}  // namespace pimine
