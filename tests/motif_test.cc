#include "knn/motif.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "util/random.h"

namespace pimine {
namespace {

/// Random-walk series with a repeated pattern planted at two known offsets.
std::vector<float> SeriesWithPlantedMotif(size_t length, size_t motif_len,
                                          size_t at_a, size_t at_b,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<float> series(length);
  double level = 0.0;
  for (float& v : series) {
    level += rng.NextGaussian(0.0, 1.0);
    v = static_cast<float>(level);
  }
  // Plant a distinctive, nearly identical pattern twice.
  std::vector<float> pattern(motif_len);
  for (size_t j = 0; j < motif_len; ++j) {
    pattern[j] = static_cast<float>(5.0 * std::sin(j * 0.7) +
                                    0.05 * rng.NextGaussian());
  }
  for (size_t j = 0; j < motif_len; ++j) {
    series[at_a + j] = pattern[j];
    series[at_b + j] =
        pattern[j] + static_cast<float>(0.01 * rng.NextGaussian());
  }
  return series;
}

TEST(ExtractWindowsTest, ShapeAndRange) {
  const std::vector<float> series = {0.0f, 2.0f, 4.0f, 6.0f, 8.0f};
  auto windows = ExtractWindows(series, 3);
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(windows->rows(), 3u);
  EXPECT_EQ(windows->cols(), 3u);
  // Global min-max into [0, 1]: 0 -> 0, 8 -> 1.
  EXPECT_FLOAT_EQ((*windows)(0, 0), 0.0f);
  EXPECT_FLOAT_EQ((*windows)(2, 2), 1.0f);
  EXPECT_FLOAT_EQ((*windows)(1, 0), 0.25f);

  EXPECT_FALSE(ExtractWindows(series, 0).ok());
  EXPECT_FALSE(ExtractWindows(series, 6).ok());
}

TEST(MotifTest, FindsPlantedMotif) {
  const size_t motif_len = 48;
  const auto series =
      SeriesWithPlantedMotif(1500, motif_len, 200, 900, /*seed=*/3);
  auto windows = ExtractWindows(series, static_cast<int64_t>(motif_len));
  ASSERT_TRUE(windows.ok());

  MotifOptions options;
  options.window = static_cast<int64_t>(motif_len);
  MotifDiscovery baseline;
  auto result = baseline.Find(*windows, options);
  ASSERT_TRUE(result.ok());
  // The planted pair (or a 1-2 sample shifted variant) must win.
  EXPECT_NEAR(result->first, 200, 2);
  EXPECT_NEAR(result->second, 900, 2);
}

TEST(MotifTest, PimMatchesBaselineExactly) {
  for (uint64_t seed : {1, 7, 42}) {
    const auto series = SeriesWithPlantedMotif(1000, 32, 150, 600, seed);
    auto windows = ExtractWindows(series, 32);
    ASSERT_TRUE(windows.ok());

    MotifOptions options;
    options.window = 32;
    MotifDiscovery baseline;
    auto base = baseline.Find(*windows, options);
    ASSERT_TRUE(base.ok());

    PimMotifDiscovery pim((EngineOptions()));
    auto accel = pim.Find(*windows, options);
    ASSERT_TRUE(accel.ok());

    EXPECT_EQ(accel->first, base->first) << "seed " << seed;
    EXPECT_EQ(accel->second, base->second);
    EXPECT_NEAR(accel->distance, base->distance, 1e-12);
    EXPECT_LT(accel->stats.exact_count, base->stats.exact_count)
        << "PIM bounds should prune candidate pairs";
  }
}

// The PIM finder builds a fleet like every PIM path: two shards under
// host-exact fault recovery find the fault-free motif, and the run's
// RunStats carry the injected faults and the fleet.
TEST(MotifTest, ShardedFaultyFleetMatchesFaultFreeRun) {
  const auto series = SeriesWithPlantedMotif(1000, 32, 150, 600, 7);
  auto windows = ExtractWindows(series, 32);
  ASSERT_TRUE(windows.ok());
  MotifOptions options;
  options.window = 32;
  PimMotifDiscovery clean((EngineOptions()));
  auto expected = clean.Find(*windows, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineOptions engine;
  engine.shard.shards = 2;
  engine.fault_config.cell_rate = 0.01;
  engine.fault_config.transient_rate = 0.01;
  engine.recovery.verify_mode = VerifyMode::kHostExact;
  PimMotifDiscovery pim(engine);
  auto result = pim.Find(*windows, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->first, expected->first);
  EXPECT_EQ(result->second, expected->second);
  EXPECT_EQ(result->distance, expected->distance);
  EXPECT_GT(result->stats.fault.injected, 0u);
  EXPECT_EQ(result->stats.fleet.shards, 2);
}

TEST(MotifTest, ExclusionZonePreventsTrivialMatches) {
  // Pure random walk, no planted motif: adjacent windows share all but one
  // sample and are therefore the closest pairs by construction.
  Rng rng(9);
  std::vector<float> series(600);
  double level = 0.0;
  for (float& v : series) {
    level += rng.NextGaussian(0.0, 1.0);
    v = static_cast<float>(level);
  }
  auto windows = ExtractWindows(series, 32);
  ASSERT_TRUE(windows.ok());

  MotifOptions options;
  options.window = 32;
  options.exclusion = 1;  // nearly-overlapping windows allowed.
  MotifDiscovery detector;
  auto trivial = detector.Find(*windows, options);
  ASSERT_TRUE(trivial.ok());
  // With a 1-sample exclusion the best pair is an overlapping pair.
  EXPECT_LE(std::abs(trivial->second - trivial->first), 32);

  options.exclusion = 32;
  auto proper = detector.Find(*windows, options);
  ASSERT_TRUE(proper.ok());
  EXPECT_GT(std::abs(proper->second - proper->first), 32);
}

TEST(MotifTest, Validation) {
  MotifDiscovery detector;
  MotifOptions options;
  options.window = 8;
  EXPECT_FALSE(detector.Find(FloatMatrix(), options).ok());
  FloatMatrix tiny(3, 8, 0.5f);
  options.exclusion = 5;  // leaves no valid pair among 3 windows.
  EXPECT_FALSE(detector.Find(tiny, options).ok());
}

}  // namespace
}  // namespace pimine
