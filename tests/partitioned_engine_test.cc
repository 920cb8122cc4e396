#include "core/partitioned_engine.h"

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

EngineOptions TinyArray(int64_t crossbars) {
  EngineOptions options;
  options.pim_config.num_crossbars = crossbars;
  return options;
}

TEST(PartitionedEngineTest, SplitsWhenDatasetOverflowsArray) {
  const FloatMatrix data = RandomUnitMatrix(512, 64, 1);
  // 64 dims x 16 cells = 1024 cells/vector; one 256x256 crossbar holds 64
  // vectors; 2 crossbars -> 128 rows/partition -> 4 partitions.
  auto engine = PartitionedPimEngine::Build(data, TinyArray(2));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->partition_rows(), 128);
  EXPECT_EQ((*engine)->num_partitions(), 4);
}

TEST(PartitionedEngineTest, BoundsHoldAcrossPartitions) {
  const FloatMatrix data = RandomUnitMatrix(200, 48, 2);
  const FloatMatrix queries = RandomUnitMatrix(4, 48, 3);
  auto engine = PartitionedPimEngine::Build(data, TinyArray(1));
  ASSERT_TRUE(engine.ok());
  EXPECT_GT((*engine)->num_partitions(), 1);

  std::vector<std::vector<double>> bounds;
  ASSERT_TRUE((*engine)->ComputeBoundsBatch(queries, &bounds).ok());
  ASSERT_EQ(bounds.size(), 4u);
  for (size_t q = 0; q < 4; ++q) {
    ASSERT_EQ(bounds[q].size(), 200u);
    for (size_t i = 0; i < 200; ++i) {
      EXPECT_LE(bounds[q][i],
                SquaredEuclidean(data.row(i), queries.row(q)) + 1e-9)
          << "q=" << q << " i=" << i;
    }
  }
}

TEST(PartitionedEngineTest, ReprogramCostAndEnduranceAccumulate) {
  const FloatMatrix data = RandomUnitMatrix(256, 64, 4);
  const FloatMatrix queries = RandomUnitMatrix(2, 64, 5);
  auto engine_or = PartitionedPimEngine::Build(data, TinyArray(1));
  ASSERT_TRUE(engine_or.ok());
  PartitionedPimEngine& engine = **engine_or;
  const int64_t partitions = engine.num_partitions();
  ASSERT_GT(partitions, 1);

  std::vector<std::vector<double>> bounds;
  ASSERT_TRUE(engine.ComputeBoundsBatch(queries, &bounds).ok());
  EXPECT_EQ(engine.ProgrammingEvents(), static_cast<uint64_t>(partitions));
  EXPECT_GT(engine.ReprogramNs(), 0.0);
  const double endurance_after_one = engine.EnduranceRemainingFraction();

  // A second batch reprograms every partition again (amortized per batch,
  // not per query).
  ASSERT_TRUE(engine.ComputeBoundsBatch(queries, &bounds).ok());
  EXPECT_EQ(engine.ProgrammingEvents(),
            static_cast<uint64_t>(2 * partitions));
  EXPECT_LT(engine.EnduranceRemainingFraction(), endurance_after_one);
}

// A batch is checked before any partition is programmed for it.
TEST(PartitionedEngineTest, RejectedBatchProgramsNothing) {
  const FloatMatrix data = RandomUnitMatrix(256, 64, 10);
  auto engine_or = PartitionedPimEngine::Build(data, TinyArray(1));
  ASSERT_TRUE(engine_or.ok());
  PartitionedPimEngine& engine = **engine_or;
  std::vector<std::vector<double>> bounds;
  ASSERT_TRUE(
      engine.ComputeBoundsBatch(RandomUnitMatrix(2, 64, 11), &bounds).ok());
  const uint64_t events = engine.ProgrammingEvents();
  FloatMatrix bad = RandomUnitMatrix(2, 64, 12);
  bad(1, 5) = 1.5f;
  EXPECT_EQ(engine.ComputeBoundsBatch(bad, &bounds).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ProgrammingEvents(), events);
}

TEST(PartitionedEngineTest, SinglePartitionWhenEverythingFits) {
  const FloatMatrix data = RandomUnitMatrix(64, 32, 6);
  auto engine = PartitionedPimEngine::Build(data, EngineOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_partitions(), 1);
}

TEST(PartitionedEngineTest, Validation) {
  EXPECT_FALSE(
      PartitionedPimEngine::Build(FloatMatrix(), EngineOptions()).ok());

  FloatMatrix bad = RandomUnitMatrix(4, 8, 7);
  bad(0, 0) = 1.5f;
  EXPECT_FALSE(PartitionedPimEngine::Build(bad, EngineOptions()).ok());

  const FloatMatrix data = RandomUnitMatrix(16, 8, 8);
  auto engine = PartitionedPimEngine::Build(data, EngineOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<std::vector<double>> bounds;
  const FloatMatrix wrong = RandomUnitMatrix(1, 9, 9);
  EXPECT_FALSE((*engine)->ComputeBoundsBatch(wrong, &bounds).ok());
}

}  // namespace
}  // namespace pimine
