#include "core/similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/decompose.h"
#include "core/segments.h"
#include "core/bounds.h"
#include "sim/traffic.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitVector;

TEST(SquaredEuclideanTest, KnownValues) {
  const std::vector<float> p = {1.0f, 0.0f, 0.5f};
  const std::vector<float> q = {0.0f, 1.0f, 0.5f};
  EXPECT_DOUBLE_EQ(SquaredEuclidean(p, q), 2.0);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(p, p), 0.0);
}

TEST(SquaredEuclideanTest, Symmetric) {
  const auto p = RandomUnitVector(37, 1);
  const auto q = RandomUnitVector(37, 2);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(p, q), SquaredEuclidean(q, p));
}

TEST(EarlyAbandonTest, ExactWhenBelowThreshold) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = RandomUnitVector(200, seed);
    const auto q = RandomUnitVector(200, seed + 50);
    const double exact = SquaredEuclidean(p, q);
    // Threshold above the result: must return the exact value.
    EXPECT_DOUBLE_EQ(SquaredEuclideanEarlyAbandon(p, q, exact + 1.0), exact);
    // Threshold below: the returned value must still exceed the threshold
    // (so the candidate is correctly prunable).
    const double abandoned = SquaredEuclideanEarlyAbandon(p, q, exact / 2);
    EXPECT_GT(abandoned, exact / 2);
  }
}

TEST(EarlyAbandonTest, InfiniteThresholdMatchesExact) {
  const auto p = RandomUnitVector(130, 3);
  const auto q = RandomUnitVector(130, 4);
  EXPECT_DOUBLE_EQ(SquaredEuclideanEarlyAbandon(p, q, HUGE_VAL),
                   SquaredEuclidean(p, q));
}

// The lane kernel's checkpoints against SquaredEuclideanEarlyAbandon's
// partial sums, bit for bit, for 1-8 lanes, dimensions around the 4-wide
// blocks and the 64-dimension checkpoints, and thresholds that stop every
// lane at the first checkpoint (0), some lanes early (mid-distance) or none
// (+inf). The call must write no checkpoint after the last lane's first
// one above the threshold, and the replay must return the scalar loop's
// value and charge its traffic.
TEST(EdLanesTest, CheckpointsMatchTheScalarLoop) {
  if (!EdLanesSupported()) {
    GTEST_SKIP() << "this host cannot run the AVX2 lane kernel";
  }
  for (const size_t d : {1, 3, 63, 64, 65, 420, 4096}) {
    const std::vector<float> query = RandomUnitVector(d, d);
    std::vector<std::vector<float>> rows;
    std::vector<const float*> pointers;
    // partial[r][c]: row r's sum over the first min(d, 64 (c + 1)) dims.
    std::vector<std::vector<double>> partial(kEdLanes);
    const size_t count = EdCheckpoints(d);
    for (size_t r = 0; r < kEdLanes; ++r) {
      rows.push_back(RandomUnitVector(d, 1000 * d + r));
      pointers.push_back(rows.back().data());
      for (size_t c = 0; c < count; ++c) {
        const size_t dims = std::min(d, (c + 1) * kEdCheckStride);
        partial[r].push_back(SquaredEuclideanEarlyAbandon(
            std::span<const float>(rows[r]).first(dims),
            std::span<const float>(query).first(dims), HUGE_VAL));
      }
    }
    for (size_t lanes = 1; lanes <= kEdLanes; ++lanes) {
      std::vector<double> full;
      for (size_t r = 0; r < lanes; ++r) full.push_back(partial[r].back());
      std::sort(full.begin(), full.end());
      for (const double threshold :
           {0.0, full[lanes / 2] * 0.75, static_cast<double>(HUGE_VAL)}) {
        SCOPED_TRACE("d=" + std::to_string(d) + " lanes=" +
                     std::to_string(lanes) +
                     " threshold=" + std::to_string(threshold));
        std::vector<double> checkpoints(
            kEdLanes * count, std::numeric_limits<double>::quiet_NaN());
        SquaredEuclideanLanes(
            std::span<const float* const>(pointers).first(lanes), query,
            threshold, checkpoints);
        size_t last_stop = 0;
        for (size_t l = 0; l < lanes; ++l) {
          size_t stop = 0;
          while (stop + 1 < count && !(partial[l][stop] > threshold)) ++stop;
          last_stop = std::max(last_stop, stop);
          for (size_t c = 0; c <= stop; ++c) {
            ASSERT_EQ(std::bit_cast<uint64_t>(checkpoints[c * kEdLanes + l]),
                      std::bit_cast<uint64_t>(partial[l][c]))
                << "lane " << l << " checkpoint " << c;
          }
          traffic::AggregateScope want_scope;
          const double want =
              SquaredEuclideanEarlyAbandon(rows[l], query, threshold);
          const TrafficCounters want_traffic = want_scope.Delta().traffic;
          traffic::AggregateScope got_scope;
          const double got = ReplayEarlyAbandon(checkpoints, l, d, threshold);
          EXPECT_EQ(got_scope.Delta().traffic, want_traffic) << "lane " << l;
          EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
              << "lane " << l;
        }
        for (size_t c = last_stop + 1; c < count; ++c) {
          for (size_t l = 0; l < kEdLanes; ++l) {
            EXPECT_TRUE(std::isnan(checkpoints[c * kEdLanes + l]))
                << "checkpoint " << c << " lane " << l << " written";
          }
        }
      }
    }
  }
}

TEST(CosineTest, RangeAndKnownValues) {
  const std::vector<float> x = {1.0f, 0.0f};
  const std::vector<float> y = {0.0f, 1.0f};
  const std::vector<float> d = {1.0f, 1.0f};
  EXPECT_NEAR(CosineSimilarity(x, y), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(x, x), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(x, d), 1.0 / std::sqrt(2.0), 1e-12);
  // Zero vector convention.
  const std::vector<float> z = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, z), 0.0);
}

TEST(PearsonTest, RangeAndInvariance) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = RandomUnitVector(64, seed);
    const auto q = RandomUnitVector(64, seed + 31);
    const double r = PearsonCorrelation(p, q);
    EXPECT_GE(r, -1.0 - 1e-9);
    EXPECT_LE(r, 1.0 + 1e-9);
  }
  // Perfect correlation with itself; zero for a constant vector.
  const auto p = RandomUnitVector(64, 5);
  EXPECT_NEAR(PearsonCorrelation(p, p), 1.0, 1e-9);
  const std::vector<float> c(64, 0.25f);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(p, c), 0.0);
}

TEST(DistanceNameTest, AllNames) {
  EXPECT_EQ(DistanceName(Distance::kEuclidean), "ED");
  EXPECT_EQ(DistanceName(Distance::kCosine), "CS");
  EXPECT_EQ(DistanceName(Distance::kPearson), "PCC");
  EXPECT_FALSE(IsSimilarityMeasure(Distance::kEuclidean));
  EXPECT_TRUE(IsSimilarityMeasure(Distance::kCosine));
  EXPECT_TRUE(IsSimilarityMeasure(Distance::kPearson));
}

// Eq. 3 / Table 4: the exact decompositions reproduce the direct formulas.
TEST(DecompositionTest, EdMatchesDirect) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    const auto p = RandomUnitVector(50, seed);
    const auto q = RandomUnitVector(50, seed + 7);
    const double via_g = EdDecomposition::Combine(
        EdDecomposition::Phi(p), EdDecomposition::Phi(q), DotProduct(p, q));
    EXPECT_NEAR(via_g, SquaredEuclidean(p, q), 1e-9);
  }
}

TEST(DecompositionTest, CsMatchesDirect) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    const auto p = RandomUnitVector(50, seed);
    const auto q = RandomUnitVector(50, seed + 7);
    const double via_g = CsDecomposition::Combine(
        CsDecomposition::Phi(p), CsDecomposition::Phi(q), DotProduct(p, q));
    EXPECT_NEAR(via_g, CosineSimilarity(p, q), 1e-9);
  }
}

TEST(DecompositionTest, PccMatchesDirect) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    const auto p = RandomUnitVector(50, seed);
    const auto q = RandomUnitVector(50, seed + 7);
    const double via_g = PccDecomposition::Combine(
        PccDecomposition::ComputePhi(p), PccDecomposition::ComputePhi(q),
        DotProduct(p, q), 50);
    EXPECT_NEAR(via_g, PearsonCorrelation(p, q), 1e-9);
  }
}

TEST(DecompositionTest, FnnMatchesLbFnn) {
  const size_t dims = 80;
  const int64_t d0 = 8;
  const int64_t l = SegmentLength(dims, d0);
  std::vector<float> pm(d0), ps(d0), qm(d0), qs(d0);
  for (uint64_t seed = 0; seed < 15; ++seed) {
    const auto p = RandomUnitVector(dims, seed);
    const auto q = RandomUnitVector(dims, seed + 3);
    ComputeSegments(p, d0, pm, ps);
    ComputeSegments(q, d0, qm, qs);
    double mean_dot = 0.0, std_dot = 0.0;
    for (int64_t s = 0; s < d0; ++s) {
      mean_dot += static_cast<double>(pm[s]) * qm[s];
      std_dot += static_cast<double>(ps[s]) * qs[s];
    }
    const double via_g = FnnDecomposition::Combine(
        FnnDecomposition::Phi(pm, ps, l), FnnDecomposition::Phi(qm, qs, l),
        mean_dot, std_dot, l);
    EXPECT_NEAR(via_g, LbFnn(pm, ps, qm, qs, l), 1e-6);
  }
}

TEST(DecompositionTest, HdMatchesDefinition) {
  EXPECT_EQ(HdDecomposition::Combine(3, 2, 8), 3);  // 8 bits, 3 both-ones,
                                                    // 2 both-zeros -> HD 3.
}

}  // namespace
}  // namespace pimine
