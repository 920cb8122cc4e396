#include "core/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/segments.h"
#include "core/similarity.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitVector;

struct Case {
  size_t dims;
  int64_t segments;
};

class ClassicalBoundTest : public ::testing::TestWithParam<Case> {};

// Table 3 invariants: every lower bound stays below the exact squared ED;
// UB_part stays above the exact dot product.
TEST_P(ClassicalBoundTest, BoundsHold) {
  const auto [dims, d0] = GetParam();
  const int64_t l = SegmentLength(static_cast<int64_t>(dims), d0);
  std::vector<float> p_means(d0), p_stds(d0), q_means(d0), q_stds(d0);
  for (uint64_t seed = 0; seed < 25; ++seed) {
    const auto p = RandomUnitVector(dims, 100 + seed);
    const auto q = RandomUnitVector(dims, 900 + seed);
    const double exact = SquaredEuclidean(p, q);

    ComputeSegments(p, d0, p_means, p_stds);
    ComputeSegments(q, d0, q_means, q_stds);
    EXPECT_LE(LbSm(p_means, q_means, l), exact + 1e-9);
    EXPECT_LE(LbFnn(p_means, p_stds, q_means, q_stds, l), exact + 1e-9);

    const double pn = SuffixNorm(p, d0);
    const double qn = SuffixNorm(q, d0);
    EXPECT_LE(LbOst(p, q, d0, pn, qn), exact + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClassicalBoundTest,
                         ::testing::Values(Case{8, 2}, Case{64, 4},
                                           Case{64, 16}, Case{420, 105},
                                           Case{100, 7},  // uneven tail.
                                           Case{960, 15}, Case{33, 33},
                                           Case{5, 1}));

// LB_FNN dominates LB_SM (it adds a non-negative stddev term).
TEST(BoundRelationTest, FnnTighterThanSm) {
  const size_t dims = 128;
  const int64_t d0 = 16;
  const int64_t l = SegmentLength(dims, d0);
  std::vector<float> p_means(d0), p_stds(d0), q_means(d0), q_stds(d0);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto p = RandomUnitVector(dims, seed);
    const auto q = RandomUnitVector(dims, seed + 77);
    ComputeSegments(p, d0, p_means, p_stds);
    ComputeSegments(q, d0, q_means, q_stds);
    EXPECT_GE(LbFnn(p_means, p_stds, q_means, q_stds, l),
              LbSm(p_means, q_means, l) - 1e-12);
  }
}

// More segments means a tighter (or equal) LB_SM on average; exact per-pair
// monotonicity is not guaranteed, so test the identical-vector anchor and a
// sample mean.
TEST(BoundRelationTest, IdenticalVectorsGiveZeroBounds) {
  const size_t dims = 96;
  const auto p = RandomUnitVector(dims, 5);
  for (int64_t d0 : {1, 4, 12, 96}) {
    std::vector<float> means(d0), stds(d0);
    ComputeSegments(p, d0, means, stds);
    const int64_t l = SegmentLength(dims, d0);
    EXPECT_NEAR(LbSm(means, means, l), 0.0, 1e-9);
    EXPECT_NEAR(LbFnn(means, stds, means, stds, l), 0.0, 1e-9);
    const double n = SuffixNorm(p, d0);
    EXPECT_NEAR(LbOst(p, p, d0, n, n), 0.0, 1e-9);
  }
}

TEST(SuffixNormTest, PrefixZeroEqualsFullNorm) {
  const auto p = RandomUnitVector(10, 3);
  double full = 0.0;
  for (float v : p) full += static_cast<double>(v) * v;
  EXPECT_NEAR(SuffixNorm(p, 0), std::sqrt(full), 1e-9);
  EXPECT_NEAR(SuffixNorm(p, 10), 0.0, 1e-12);
}

// Segment stats: the nominal l underestimates the tail segment, which keeps
// the bound valid (documented in segments.h); verify on a non-dividing case.
TEST(SegmentStatsTest, UnevenTailStillBounds) {
  const size_t dims = 10;
  const int64_t d0 = 3;  // segments of 3, 3, 4.
  std::vector<float> p_means(d0), p_stds(d0), q_means(d0), q_stds(d0);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const auto p = RandomUnitVector(dims, 7000 + seed);
    const auto q = RandomUnitVector(dims, 8000 + seed);
    ComputeSegments(p, d0, p_means, p_stds);
    ComputeSegments(q, d0, q_means, q_stds);
    EXPECT_LE(LbFnn(p_means, p_stds, q_means, q_stds,
                    SegmentLength(dims, d0)),
              SquaredEuclidean(p, q) + 1e-9);
  }
}

}  // namespace
}  // namespace pimine
