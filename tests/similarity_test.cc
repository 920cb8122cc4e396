#include "core/similarity.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/decompose.h"
#include "core/segments.h"
#include "core/bounds.h"
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
