// Property tests sweeping the PIM hardware geometry: the engine's bound
// guarantees and the device's functional results must hold for any
// crossbar size, cell precision, operand width or scaling factor — the
// quantization math is hardware-independent, and the layout math must stay
// self-consistent.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/partitioned_engine.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "pim/crossbar_math.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::QueryBounds;
using testing_util::RandomUnitMatrix;
using testing_util::RandomUnitVector;

struct Geometry {
  int crossbar_dim;
  int cell_bits;
  int dac_bits;
  int operand_bits;
  double alpha;
};

class EngineGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(EngineGeometryTest, BoundsHoldUnderAnyHardware) {
  const auto [m, h, dac, b, alpha] = GetParam();
  EngineOptions options;
  options.pim_config.crossbar_dim = m;
  options.pim_config.cell_bits = h;
  options.pim_config.dac_bits = dac;
  options.operand_bits = b;
  options.alpha = alpha;

  const FloatMatrix data = RandomUnitMatrix(80, 40, 0xabc ^ m);
  auto engine_or = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  const ShardedPimEngine& engine = **engine_or;

  std::vector<double> bounds;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const auto q = RandomUnitVector(40, 0xdef + seed);
    ASSERT_TRUE(QueryBounds(engine, q, &bounds).ok());
    for (size_t i = 0; i < data.rows(); ++i) {
      EXPECT_LE(bounds[i], SquaredEuclidean(data.row(i), q) + 1e-9)
          << "m=" << m << " h=" << h << " alpha=" << alpha;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineGeometryTest,
    ::testing::Values(Geometry{128, 2, 2, 32, 1e6},
                      Geometry{256, 2, 2, 32, 1e6},
                      Geometry{512, 4, 4, 32, 1e6},
                      Geometry{256, 1, 1, 24, 1e5},
                      Geometry{64, 2, 2, 16, 1e4},
                      Geometry{256, 8, 8, 32, 1e6},
                      Geometry{256, 2, 2, 12, 1e3}));

// Crossbar accounting stays consistent across geometries: if Theorem 4
// says a dataset fits, the device accepts it; if not, the device rejects.
TEST(LayoutConsistencyTest, PlannerAndDeviceAgree) {
  for (int64_t crossbars : {1, 2, 7, 64}) {
    PimConfig config;
    config.num_crossbars = crossbars;
    for (int64_t n : {10, 300, 5000}) {
      for (int64_t d : {8, 256, 300}) {
        const bool fits = FitsInPimArray(n, 32, d, config);
        IntMatrix data(static_cast<size_t>(n), static_cast<size_t>(d), 1);
        PimDevice device(config);
        EXPECT_EQ(device.ProgramDataset(data).ok(), fits)
            << "crossbars=" << crossbars << " n=" << n << " d=" << d;
      }
    }
  }
}

// A partitioned engine with a single partition must produce exactly the
// direct engine's Theorem 1 bounds.
TEST(PartitionedVsDirectTest, IdenticalWhenOnePartition) {
  const FloatMatrix data = RandomUnitMatrix(60, 24, 9);
  const FloatMatrix queries = RandomUnitMatrix(3, 24, 10);
  EngineOptions options;

  auto direct_or =
      ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_TRUE(direct_or.ok());
  ASSERT_EQ((*direct_or)->mode(), EngineMode::kDirectEd);

  auto part_or = PartitionedPimEngine::Build(data, options);
  ASSERT_TRUE(part_or.ok());
  ASSERT_EQ((*part_or)->num_partitions(), 1);

  std::vector<std::vector<double>> part_bounds;
  ASSERT_TRUE((*part_or)->ComputeBoundsBatch(queries, &part_bounds).ok());
  std::vector<double> direct_bounds;
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_TRUE(
        QueryBounds(**direct_or, queries.row(q), &direct_bounds).ok());
    for (size_t i = 0; i < data.rows(); ++i) {
      EXPECT_DOUBLE_EQ(part_bounds[q][i], direct_bounds[i]);
    }
  }
}

// Energy accounting: more batches, more energy; resets cleanly.
TEST(EnergyAccountingTest, AccumulatesPerBatch) {
  PimDevice device;
  IntMatrix data(32, 16, 3);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  std::vector<uint64_t> out;
  const std::vector<int32_t> query(16, 2);
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  const double after_one = device.stats().compute_energy_pj;
  EXPECT_GT(after_one, 0.0);
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  EXPECT_NEAR(device.stats().compute_energy_pj, 2 * after_one, 1e-9);
  device.ResetOnlineStats();
  EXPECT_DOUBLE_EQ(device.stats().compute_energy_pj, 0.0);
}

}  // namespace
}  // namespace pimine
