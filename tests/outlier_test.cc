#include "knn/outlier.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "data/generator.h"
#include "test_helpers.h"

namespace pimine {
namespace {

FloatMatrix OutlierData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 5;
  spec.cluster_std = 0.05;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

/// Reference: exact k-th NN distance per point, top-n by brute force.
std::vector<Neighbor> BruteForceOutliers(const FloatMatrix& data, int k,
                                         int n_out) {
  std::vector<Neighbor> scores;
  for (size_t i = 0; i < data.rows(); ++i) {
    std::vector<double> dists;
    for (size_t j = 0; j < data.rows(); ++j) {
      if (j == i) continue;
      dists.push_back(SquaredEuclidean(data.row(i), data.row(j)));
    }
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    scores.push_back({dists[k - 1], static_cast<int32_t>(i)});
  }
  std::sort(scores.begin(), scores.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance > b.distance;
              return a.id < b.id;
            });
  scores.resize(n_out);
  return scores;
}

struct OutlierCase {
  int k;
  int num_outliers;
};

class OutlierEquivalenceTest
    : public ::testing::TestWithParam<OutlierCase> {};

TEST_P(OutlierEquivalenceTest, BaselineAndPimMatchBruteForce) {
  const auto [k, n_out] = GetParam();
  const FloatMatrix data = OutlierData(300, 24, 77);
  const std::vector<Neighbor> golden = BruteForceOutliers(data, k, n_out);

  OutlierOptions options;
  options.k = k;
  options.num_outliers = n_out;

  OrcaOutlierDetector baseline;
  auto base = baseline.Detect(data, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->outliers.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(base->outliers[i].id, golden[i].id) << "rank " << i;
    EXPECT_NEAR(base->outliers[i].distance, golden[i].distance, 1e-9);
  }

  OrcaPimOutlierDetector pim((EngineOptions()));
  auto accel = pim.Detect(data, options);
  ASSERT_TRUE(accel.ok()) << accel.status().ToString();
  ASSERT_EQ(accel->outliers.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(accel->outliers[i].id, golden[i].id) << "rank " << i;
    EXPECT_NEAR(accel->outliers[i].distance, golden[i].distance, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OutlierEquivalenceTest,
                         ::testing::Values(OutlierCase{1, 5},
                                           OutlierCase{5, 10},
                                           OutlierCase{10, 3},
                                           OutlierCase{3, 30}));

TEST(OutlierTest, PimComputesFewerExactDistances) {
  const FloatMatrix data = OutlierData(800, 64, 9);
  OutlierOptions options;
  options.k = 5;
  options.num_outliers = 10;

  OrcaOutlierDetector baseline;
  auto base = baseline.Detect(data, options);
  ASSERT_TRUE(base.ok());

  OrcaPimOutlierDetector pim((EngineOptions()));
  auto accel = pim.Detect(data, options);
  ASSERT_TRUE(accel.ok());

  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count / 4);
  EXPECT_GT(accel->stats.pim_ns, 0.0);
}

// The PIM detector builds a fleet like every PIM path: two shards under
// host-exact fault recovery report the fault-free outliers, and the run's
// RunStats carry the injected faults and the fleet.
TEST(OutlierTest, ShardedFaultyFleetMatchesFaultFreeRun) {
  const FloatMatrix data = OutlierData(300, 24, 77);
  OutlierOptions options;
  options.k = 5;
  options.num_outliers = 10;
  OrcaPimOutlierDetector clean((EngineOptions()));
  auto expected = clean.Detect(data, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineOptions engine;
  engine.shard.shards = 2;
  engine.fault_config.cell_rate = 0.01;
  engine.fault_config.transient_rate = 0.01;
  engine.recovery.verify_mode = VerifyMode::kHostExact;
  OrcaPimOutlierDetector pim(engine);
  auto result = pim.Detect(data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->outliers.size(), expected->outliers.size());
  for (size_t i = 0; i < expected->outliers.size(); ++i) {
    EXPECT_EQ(result->outliers[i].id, expected->outliers[i].id) << i;
    EXPECT_EQ(result->outliers[i].distance, expected->outliers[i].distance)
        << i;
  }
  EXPECT_GT(result->stats.fault.injected, 0u);
  EXPECT_EQ(result->stats.fleet.shards, 2);
}

TEST(OutlierTest, PlantedOutlierIsFound) {
  FloatMatrix data = OutlierData(200, 16, 3);
  // Plant an extreme point far from every cluster (clusters live around
  // [0.2, 0.8] with tiny spread).
  auto row = data.mutable_row(0);
  for (float& v : row) v = 1.0f;
  OutlierOptions options;
  options.k = 3;
  options.num_outliers = 1;
  OrcaOutlierDetector detector;
  auto result = detector.Detect(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outliers[0].id, 0);
}

TEST(OutlierTest, Validation) {
  const FloatMatrix data = OutlierData(20, 8, 1);
  OrcaOutlierDetector detector;
  OutlierOptions options;
  options.k = 0;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.k = 20;  // k must be < n.
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.k = 3;
  options.num_outliers = 0;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.num_outliers = 21;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.num_outliers = 5;
  EXPECT_FALSE(detector.Detect(FloatMatrix(), options).ok());
}

}  // namespace
}  // namespace pimine
