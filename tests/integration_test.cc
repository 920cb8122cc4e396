// End-to-end exercises of the public API across module boundaries: dataset
// generation -> normalization -> engine/algorithms -> cost model, on the
// catalog's paper datasets (scaled down).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/memory_planner.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "data/catalog.h"
#include "data/generator.h"
#include "data/normalize.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "profiling/modeled_time.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

class CatalogDatasetTest : public ::testing::TestWithParam<const char*> {};

// For every paper dataset profile: PIM-accelerated kNN returns the linear
// scan's results and the modeled time favors PIM (the paper's headline).
TEST_P(CatalogDatasetTest, PimKnnExactAndModeledFaster) {
  auto spec = Catalog::Find(GetParam());
  ASSERT_TRUE(spec.ok());
  // Scaled-down instance; dimensionality stays the paper's.
  const FloatMatrix data = DatasetGenerator::Generate(*spec, 600, 11);
  const FloatMatrix queries =
      DatasetGenerator::GenerateQueries(*spec, data, 3, 12);

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(data).ok());
  auto base = standard.Search(queries, 10);
  ASSERT_TRUE(base.ok());

  EngineOptions options;
  // Crossbar budget scaled as in the bench harness so Theorem 4 pressure
  // matches the paper's full-size run.
  options.pim_config =
      ScalePimArrayForDataset(spec->paper_n, 600, options.pim_config);
  StandardPimKnn pim(Distance::kEuclidean, options);
  ASSERT_TRUE(pim.Prepare(data).ok());
  auto accel = pim.Search(queries, 10);
  ASSERT_TRUE(accel.ok()) << accel.status().ToString();

  ASSERT_EQ(base->neighbors.size(), accel->neighbors.size());
  for (size_t q = 0; q < base->neighbors.size(); ++q) {
    for (size_t j = 0; j < base->neighbors[q].size(); ++j) {
      EXPECT_EQ(base->neighbors[q][j].id, accel->neighbors[q][j].id)
          << GetParam() << " q=" << q << " rank=" << j;
    }
  }

  // Modeled comparison (how the bench composes figures): PIM must move far
  // fewer bits than the scan on every dataset profile.
  EXPECT_LT(accel->stats.traffic.bytes_from_memory,
            base->stats.traffic.bytes_from_memory);
}

INSTANTIATE_TEST_SUITE_P(PaperDatasets, CatalogDatasetTest,
                         ::testing::Values("ImageNet", "MSD", "GIST", "Trevi",
                                           "Year", "Notre", "NUS-WIDE",
                                           "Enron"));

TEST(EndToEndTest, RawDataNeedsNormalization) {
  // User flow: raw (unnormalized) data -> MinMaxScaler -> engine.
  FloatMatrix raw(50, 8);
  Rng rng(21);
  for (size_t i = 0; i < raw.rows(); ++i) {
    for (float& v : raw.mutable_row(i)) {
      v = static_cast<float>(rng.NextUniform(-10.0, 30.0));
    }
  }
  // Unnormalized data is rejected...
  EXPECT_FALSE(
      ShardedPimEngine::Build(raw, Distance::kEuclidean, EngineOptions())
          .ok());
  // ...normalized data is accepted and bounds hold in the scaled space.
  const MinMaxScaler scaler = MinMaxScaler::Fit(raw);
  const FloatMatrix normalized = scaler.Transform(raw);
  auto engine = ShardedPimEngine::Build(normalized, Distance::kEuclidean,
                                        EngineOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<double> bounds;
  ASSERT_TRUE(
      testing_util::QueryBounds(**engine, normalized.row(0), &bounds).ok());
  for (size_t i = 0; i < normalized.rows(); ++i) {
    EXPECT_LE(bounds[i],
              SquaredEuclidean(normalized.row(i), normalized.row(0)) + 1e-9);
  }
}

TEST(EndToEndTest, ModeledSpeedupShapeOnScan) {
  // The Fig. 13a shape: modeled speedup of Standard-PIM over Standard grows
  // with dimensionality.
  const HostCostModel model;
  double previous_speedup = 0.0;
  for (int64_t d : {64, 256, 1024}) {
    DatasetSpec spec;
    spec.name = "synthetic";
    spec.dims = static_cast<int32_t>(d);
    spec.profile = ClusterProfile::kClustered;
    spec.num_clusters = 8;
    spec.cluster_std = 0.08;
    const FloatMatrix data = DatasetGenerator::Generate(spec, 800, 31);
    const FloatMatrix queries =
        DatasetGenerator::GenerateQueries(spec, data, 3, 32);

    StandardKnn standard;
    ASSERT_TRUE(standard.Prepare(data).ok());
    auto base = standard.Search(queries, 10);
    ASSERT_TRUE(base.ok());

    StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
    ASSERT_TRUE(pim.Prepare(data).ok());
    auto accel = pim.Search(queries, 10);
    ASSERT_TRUE(accel.ok());

    const double base_ms = ComposeModeledTime(base->stats, model).total_ms();
    const double pim_ms = ComposeModeledTime(accel->stats, model).total_ms();
    const double speedup = base_ms / pim_ms;
    EXPECT_GT(speedup, 1.0) << "d=" << d;
    EXPECT_GT(speedup, previous_speedup * 0.8)
        << "speedup should broadly grow with d";
    previous_speedup = speedup;
  }
}

TEST(EndToEndTest, KmeansPimMatchesAndSavesTraffic) {
  auto spec = Catalog::Find("NUS-WIDE");
  ASSERT_TRUE(spec.ok());
  const FloatMatrix data = DatasetGenerator::Generate(*spec, 400, 41);
  KmeansOptions options;
  options.k = 16;
  options.max_iterations = 4;

  YinyangKmeans yinyang;
  auto base = yinyang.Run(data, options);
  ASSERT_TRUE(base.ok());

  options.use_pim = true;
  auto accel = yinyang.Run(data, options);
  ASSERT_TRUE(accel.ok());
  EXPECT_EQ(base->assignments, accel->assignments);
  EXPECT_LE(accel->stats.exact_count, base->stats.exact_count);
}

TEST(EndToEndTest, PlanOptimizationNeverSlowerInModel) {
  auto spec = Catalog::Find("MSD");
  ASSERT_TRUE(spec.ok());
  const FloatMatrix data = DatasetGenerator::Generate(*spec, 700, 51);

  EngineOptions options;
  options.pim_config =
      ScalePimArrayForDataset(spec->paper_n, 700, options.pim_config);

  FnnPimKnn plain(options, /*optimize=*/false);
  FnnPimKnn optimized(options, /*optimize=*/true);
  ASSERT_TRUE(plain.Prepare(data).ok());
  ASSERT_TRUE(optimized.Prepare(data).ok());
  // Eq. 13: the optimized plan's estimated cost cannot exceed the default
  // plan's (the optimizer minimizes over a superset of choices).
  EXPECT_LE(optimized.plan().cost_bits_per_object,
            plain.plan().cost_bits_per_object + 1e-9);
}

}  // namespace
}  // namespace pimine
