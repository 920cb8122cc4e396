#include "core/engine.h"

#include <bit>
#include <span>

#include <gtest/gtest.h>

#include "core/quantize.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "pim/crossbar.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::QueryBounds;
using testing_util::RandomUnitMatrix;
using testing_util::RandomUnitVector;

EngineOptions SmallArrayOptions(int64_t crossbars) {
  EngineOptions options;
  options.pim_config.num_crossbars = crossbars;
  return options;
}

TEST(EngineBuildTest, AutoPicksDirectWhenFitting) {
  const FloatMatrix data = RandomUnitMatrix(64, 32, 1);
  auto engine =
      PimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->mode(), EngineMode::kDirectEd);
  EXPECT_FALSE((*engine)->plan().compressed);
}

TEST(EngineBuildTest, AutoFallsBackToSegmentsWhenTight) {
  const FloatMatrix data = RandomUnitMatrix(256, 128, 2);
  // Capacity for roughly half of the full-dimensionality dataset.
  auto engine = PimEngine::Build(data, Distance::kEuclidean,
                                 SmallArrayOptions(4));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->mode(), EngineMode::kSegmentFnn);
  EXPECT_LT((*engine)->num_segments(), 128);
  EXPECT_GE((*engine)->num_segments(), 1);
}

TEST(EngineBuildTest, RejectsUnnormalizedData) {
  FloatMatrix data = RandomUnitMatrix(8, 4, 3);
  data(0, 0) = 1.5f;
  EXPECT_FALSE(
      PimEngine::Build(data, Distance::kEuclidean, EngineOptions()).ok());
}

TEST(EngineBuildTest, RejectsEmpty) {
  EXPECT_FALSE(
      PimEngine::Build(FloatMatrix(), Distance::kEuclidean, EngineOptions())
          .ok());
}

TEST(EngineBuildTest, ForceSegmentsHonored) {
  const FloatMatrix data = RandomUnitMatrix(32, 64, 5);
  EngineOptions options;
  options.bound = EngineOptions::Bound::kSegmentFnn;
  options.force_segments = 16;
  auto engine = PimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_segments(), 16);
  EXPECT_EQ((*engine)->segment_length(), 4);
}

TEST(EngineBuildTest, ForceSegmentsBeyondCapacityFails) {
  const FloatMatrix data = RandomUnitMatrix(4096, 64, 6);
  EngineOptions options = SmallArrayOptions(2);
  options.bound = EngineOptions::Bound::kSegmentFnn;
  options.force_segments = 64;
  EXPECT_EQ(
      PimEngine::Build(data, Distance::kEuclidean, options).status().code(),
      StatusCode::kCapacityExceeded);
}

struct ModeCase {
  EngineOptions::Bound bound;
  int64_t force_segments;
};

class EngineBoundPropertyTest : public ::testing::TestWithParam<ModeCase> {};

// The central accuracy invariant of the paper (§V-B): engine bounds never
// exceed the exact squared ED, for any mode.
TEST_P(EngineBoundPropertyTest, EuclideanLowerBoundHolds) {
  const auto [bound, force_segments] = GetParam();
  const FloatMatrix data = RandomUnitMatrix(60, 48, 7);
  EngineOptions options;
  options.bound = bound;
  options.force_segments = force_segments;
  auto engine_or = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  const ShardedPimEngine& engine = **engine_or;

  std::vector<double> bounds;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const auto q = RandomUnitVector(48, 70 + seed);
    ASSERT_TRUE(QueryBounds(engine, q, &bounds).ok());
    ASSERT_EQ(bounds.size(), 60u);
    for (size_t i = 0; i < 60; ++i) {
      EXPECT_LE(bounds[i], SquaredEuclidean(data.row(i), q) + 1e-9)
          << "object " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineBoundPropertyTest,
    ::testing::Values(ModeCase{EngineOptions::Bound::kDirectEd, 0},
                      ModeCase{EngineOptions::Bound::kSegmentFnn, 0},
                      ModeCase{EngineOptions::Bound::kSegmentFnn, 12},
                      ModeCase{EngineOptions::Bound::kSegmentFnn, 48},
                      ModeCase{EngineOptions::Bound::kSegmentSm, 0},
                      ModeCase{EngineOptions::Bound::kSegmentSm, 6}));

TEST(EngineCosineTest, UpperBoundHolds) {
  const FloatMatrix data = RandomUnitMatrix(40, 32, 8);
  auto engine_or =
      ShardedPimEngine::Build(data, Distance::kCosine, EngineOptions());
  ASSERT_TRUE(engine_or.ok());
  const ShardedPimEngine& engine = **engine_or;
  EXPECT_EQ(engine.mode(), EngineMode::kCosine);

  std::vector<double> bounds;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const auto q = RandomUnitVector(32, 200 + seed);
    ASSERT_TRUE(QueryBounds(engine, q, &bounds).ok());
    for (size_t i = 0; i < 40; ++i) {
      EXPECT_GE(bounds[i], CosineSimilarity(data.row(i), q) - 1e-9);
    }
  }
}

TEST(EnginePearsonTest, UpperBoundHolds) {
  const FloatMatrix data = RandomUnitMatrix(40, 32, 9);
  auto engine_or =
      ShardedPimEngine::Build(data, Distance::kPearson, EngineOptions());
  ASSERT_TRUE(engine_or.ok());
  const ShardedPimEngine& engine = **engine_or;
  EXPECT_EQ(engine.mode(), EngineMode::kPearson);

  std::vector<double> bounds;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const auto q = RandomUnitVector(32, 300 + seed);
    ASSERT_TRUE(QueryBounds(engine, q, &bounds).ok());
    for (size_t i = 0; i < 40; ++i) {
      EXPECT_GE(bounds[i], PearsonCorrelation(data.row(i), q) - 1e-9);
    }
  }
}

TEST(EngineQueryValidationTest, RejectsBadQueries) {
  const FloatMatrix data = RandomUnitMatrix(8, 16, 10);
  auto engine_or =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine_or.ok());
  std::vector<double> bounds;
  // Wrong dimensionality.
  EXPECT_FALSE(QueryBounds(**engine_or, RandomUnitVector(15, 1), &bounds).ok());
  // Out-of-range values.
  std::vector<float> bad = RandomUnitVector(16, 2);
  bad[0] = 2.0f;
  EXPECT_FALSE(QueryBounds(**engine_or, bad, &bounds).ok());
}

TEST(EngineStatsTest, PimTimeAccumulatesAndResets) {
  const FloatMatrix data = RandomUnitMatrix(16, 8, 11);
  auto fleet_or =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(fleet_or.ok());
  ShardedPimEngine& fleet = **fleet_or;
  const PimEngine& engine = fleet.shard_engine(0);
  EXPECT_GT(engine.OfflineNs(), 0.0);
  EXPECT_GT(engine.OfflineBytesWritten(), 0u);
  EXPECT_DOUBLE_EQ(engine.DeviceStatsTotal().pim_ns, 0.0);
  std::vector<double> bounds;
  ASSERT_TRUE(QueryBounds(fleet, RandomUnitVector(8, 3), &bounds).ok());
  EXPECT_GT(engine.DeviceStatsTotal().pim_ns, 0.0);
  fleet.ResetOnlineStats();
  EXPECT_DOUBLE_EQ(engine.DeviceStatsTotal().pim_ns, 0.0);
  EXPECT_DOUBLE_EQ(engine.TransferBitsPerCandidate(), 96.0);  // 3 * 32.
}

// Offline time is the program time of the engine's devices, Phi store
// included, in every mode.
TEST(EngineStatsTest, OfflineNsIsTheDevicesProgramTime) {
  const FloatMatrix data = RandomUnitMatrix(200, 64, 12);
  struct Case {
    Distance distance;
    EngineOptions::Bound bound;
    EngineMode mode;
  };
  for (const Case& c :
       {Case{Distance::kEuclidean, EngineOptions::Bound::kDirectEd,
             EngineMode::kDirectEd},
        Case{Distance::kEuclidean, EngineOptions::Bound::kSegmentSm,
             EngineMode::kSegmentSm},
        Case{Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn,
             EngineMode::kSegmentFnn},
        Case{Distance::kCosine, EngineOptions::Bound::kAuto,
             EngineMode::kCosine},
        Case{Distance::kPearson, EngineOptions::Bound::kAuto,
             EngineMode::kPearson}}) {
    EngineOptions options;
    options.bound = c.bound;
    auto engine = PimEngine::Build(data, c.distance, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const PimEngine& e = **engine;
    ASSERT_EQ(e.mode(), c.mode);
    double program_ns = 0.0;
    for (size_t k = 0; k < e.num_devices(); ++k) {
      program_ns += e.device(k).stats().program_ns;
    }
    EXPECT_EQ(e.OfflineNs(), program_ns) << EngineModeName(c.mode);
  }
}

// The bounds of every query in `queries` against every object of `engine`,
// query-major, through the engine's own batch halves: one PrepareBatch and
// DeviceBatch, then one BoundsFor per query.
std::vector<double> EngineBounds(const PimEngine& engine,
                                 const FloatMatrix& queries) {
  PimEngine::QueryScratch scratch;
  PimEngine::QueryHandleBatch batch;
  const size_t nq = queries.rows();
  EXPECT_TRUE(engine
                  .PrepareBatch(std::span<const float>(queries.data(),
                                                       queries.size()),
                                nq, &scratch, &batch)
                  .ok());
  EXPECT_TRUE(engine.DeviceBatch(scratch, nq, &batch).ok());
  const size_t n = engine.num_objects();
  std::vector<double> bounds(nq * n);
  for (size_t q = 0; q < nq; ++q) {
    engine.BoundsFor(batch, q, std::span<double>(bounds).subspan(q * n, n));
  }
  return bounds;
}

// Reprogramming an engine built on rows A with rows B gives the bounds of a
// fresh Build on B, bit for bit.
TEST(EngineReprogramTest, BoundsEqualAFreshBuild) {
  const FloatMatrix a = RandomUnitMatrix(40, 24, 20);
  const FloatMatrix b = RandomUnitMatrix(30, 24, 21);
  for (Distance distance : {Distance::kEuclidean, Distance::kCosine}) {
    auto reprogrammed = PimEngine::Build(a, distance, EngineOptions());
    ASSERT_TRUE(reprogrammed.ok());
    ASSERT_TRUE((*reprogrammed)->Reprogram(b).ok());
    ASSERT_EQ((*reprogrammed)->num_objects(), b.rows());
    auto fresh = PimEngine::Build(b, distance, EngineOptions());
    ASSERT_TRUE(fresh.ok());
    for (size_t nq : {size_t{1}, size_t{3}}) {
      const FloatMatrix queries = RandomUnitMatrix(nq, 24, 22 + nq);
      const std::vector<double> got = EngineBounds(**reprogrammed, queries);
      const std::vector<double> want = EngineBounds(**fresh, queries);
      ASSERT_EQ(got.size(), nq * b.rows());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want[i]))
            << "distance " << static_cast<int>(distance) << " queries " << nq
            << " at " << i;
      }
    }
  }
}

// A reprogram is one full program: it replaces the base and the appended
// rows and is charged and counted against endurance.
TEST(EngineReprogramTest, ClearsMutationsAndChargesAFullProgram) {
  auto built = PimEngine::Build(RandomUnitMatrix(40, 24, 30),
                                Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(built.ok());
  PimEngine& engine = **built;
  ASSERT_TRUE(engine.AppendRows(RandomUnitMatrix(5, 24, 31)).ok());
  ASSERT_EQ(engine.num_objects(), 45u);
  ASSERT_EQ(engine.device(0).stats().programmed_vectors, 45);
  const PimDeviceStats before = engine.device(0).stats();
  const double offline_before = engine.OfflineNs();

  ASSERT_TRUE(engine.Reprogram(RandomUnitMatrix(20, 24, 32)).ok());
  EXPECT_EQ(engine.num_objects(), 20u);
  const PimDeviceStats& after = engine.device(0).stats();
  EXPECT_EQ(after.programmed_vectors, 20);
  EXPECT_EQ(after.programming_events, before.programming_events + 1);
  EXPECT_EQ(after.row_writes, before.row_writes + 20);
  // The Phi store holds the new rows' terms only.
  EXPECT_EQ(after.aux_bytes_stored, 20 * sizeof(double));
  EXPECT_GT(after.program_ns, before.program_ns);
  EXPECT_DOUBLE_EQ(engine.OfflineNs() - offline_before,
                   after.program_ns - before.program_ns);
}

TEST(EngineReprogramTest, RejectsBadRows) {
  auto built = PimEngine::Build(RandomUnitMatrix(10, 8, 40),
                                Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(built.ok());
  PimEngine& engine = **built;
  EXPECT_EQ(engine.Reprogram(RandomUnitMatrix(10, 9, 41)).code(),
            StatusCode::kInvalidArgument);
  FloatMatrix out_of_range = RandomUnitMatrix(10, 8, 42);
  out_of_range(4, 2) = 1.5f;
  EXPECT_EQ(engine.Reprogram(out_of_range).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Reprogram(FloatMatrix()).code(),
            StatusCode::kInvalidArgument);
  // A rejected reprogram leaves the engine as it was.
  EXPECT_EQ(engine.device(0).stats().programming_events, 1u);
  EXPECT_EQ(engine.num_objects(), 10u);
}

// Hardware-fidelity cross-check: the engine's batch dot products (direct
// integer emulation) equal what the cycle-level crossbar pipeline computes
// on the same quantized data.
TEST(EngineFidelityTest, MatchesCycleLevelCrossbar) {
  const size_t n = 3;
  const size_t d = 4;
  const FloatMatrix data = RandomUnitMatrix(n, d, 12);
  EngineOptions options;
  options.alpha = 100.0;  // keep operands small: floor values < 128.
  options.operand_bits = 8;
  auto engine_or = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_TRUE(engine_or.ok());
  const ShardedPimEngine& engine = **engine_or;
  ASSERT_EQ(engine.mode(), EngineMode::kDirectEd);

  const auto q = RandomUnitVector(d, 13);
  auto handle_or = engine.RunQueryBatch(q, 1);
  ASSERT_TRUE(handle_or.ok());
  const std::vector<uint64_t>& dots = handle_or->shards[0].dots[0];

  // Rebuild the same layout on explicit crossbars: one logical column per
  // object, the object's quantized vector along the rows.
  const Quantizer quant(options.alpha);
  Crossbar xbar(32, 2);
  std::vector<int32_t> ints(d);
  for (size_t i = 0; i < n; ++i) {
    quant.QuantizeRow(data.row(i), ints);
    std::vector<uint32_t> operands(ints.begin(), ints.end());
    ASSERT_TRUE(
        xbar.ProgramVector(static_cast<int>(i), operands, 8).ok());
  }
  quant.QuantizeRow(q, ints);
  const std::vector<uint32_t> input(ints.begin(), ints.end());
  auto pipeline = xbar.DotProduct(input, 8, 8, 2);
  ASSERT_TRUE(pipeline.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dots[i], pipeline->values[i]) << "object " << i;
  }
}

}  // namespace
}  // namespace pimine
