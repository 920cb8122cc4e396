#include "core/pim_bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/decompose.h"
#include "core/quantize.h"
#include "core/segments.h"
#include "core/similarity.h"
#include "test_helpers.h"
#include "util/bits.h"
#include "util/random.h"

namespace pimine {
namespace {

using testing_util::RandomUnitVector;

// Helper: exact floor dot product of the quantized vectors.
uint64_t FloorDot(const std::vector<float>& p, const std::vector<float>& q,
                  const Quantizer& quant) {
  uint64_t acc = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    acc += static_cast<uint64_t>(quant.QuantizeValue(p[i])) *
           static_cast<uint64_t>(quant.QuantizeValue(q[i]));
  }
  return acc;
}

struct BoundCase {
  size_t dims;
  double alpha;
};

class PimEdBoundTest : public ::testing::TestWithParam<BoundCase> {};

// Theorem 1: LB_PIM-ED is a lower bound on squared ED, and the gap obeys
// the Theorem 3 error bound.
TEST_P(PimEdBoundTest, LowerBoundsSquaredEuclidean) {
  const auto [dims, alpha] = GetParam();
  const Quantizer quant(alpha);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = RandomUnitVector(dims, 1000 + seed);
    const auto q = RandomUnitVector(dims, 2000 + seed);
    const double exact = SquaredEuclidean(p, q);
    const double lb = LbPimEd(quant.PhiEd(p), quant.PhiEd(q),
                                     FloorDot(p, q, quant),
                                     static_cast<int64_t>(dims), alpha);
    EXPECT_LE(lb, exact + 1e-9) << "dims=" << dims << " alpha=" << alpha;
    EXPECT_LE(exact - lb, LbPimEdErrorBound(dims, alpha) + 1e-9);
  }
}

// Identical vectors: exact distance 0, bound must be <= 0 but within error.
TEST_P(PimEdBoundTest, IdenticalVectors) {
  const auto [dims, alpha] = GetParam();
  const Quantizer quant(alpha);
  const auto p = RandomUnitVector(dims, 7);
  const double lb = LbPimEd(quant.PhiEd(p), quant.PhiEd(p),
                                   FloorDot(p, p, quant),
                                   static_cast<int64_t>(dims), alpha);
  EXPECT_LE(lb, 1e-9);
  EXPECT_GE(lb, -LbPimEdErrorBound(dims, alpha) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PimEdBoundTest,
    ::testing::Values(BoundCase{1, 1e6}, BoundCase{8, 1e6},
                      BoundCase{128, 1e6}, BoundCase{420, 1e6},
                      BoundCase{960, 1e6}, BoundCase{128, 1e3},
                      BoundCase{128, 1e4}, BoundCase{128, 1e7},
                      BoundCase{37, 1e5}, BoundCase{4096, 1e6}));

struct SegmentCase {
  size_t dims;
  int64_t segments;
  double alpha;
};

class PimFnnBoundTest : public ::testing::TestWithParam<SegmentCase> {};

// Theorem 2: LB_PIM-FNN lower-bounds squared ED through segment stats.
TEST_P(PimFnnBoundTest, LowerBoundsSquaredEuclidean) {
  const auto [dims, segments, alpha] = GetParam();
  const Quantizer quant(alpha);
  const int64_t l = SegmentLength(static_cast<int64_t>(dims), segments);
  std::vector<float> p_means(segments), p_stds(segments);
  std::vector<float> q_means(segments), q_stds(segments);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto p = RandomUnitVector(dims, 3000 + seed);
    const auto q = RandomUnitVector(dims, 4000 + seed);
    ComputeSegments(p, segments, p_means, p_stds);
    ComputeSegments(q, segments, q_means, q_stds);

    uint64_t mean_dot = 0;
    uint64_t std_dot = 0;
    for (int64_t s = 0; s < segments; ++s) {
      mean_dot += static_cast<uint64_t>(quant.QuantizeValue(p_means[s])) *
                  static_cast<uint64_t>(quant.QuantizeValue(q_means[s]));
      std_dot += static_cast<uint64_t>(quant.QuantizeValue(p_stds[s])) *
                 static_cast<uint64_t>(quant.QuantizeValue(q_stds[s]));
    }
    const double exact = SquaredEuclidean(p, q);
    const double lb_fnn =
        LbPimFnn(quant.PhiFnn(p_means, p_stds),
                        quant.PhiFnn(q_means, q_stds), mean_dot, std_dot,
                        segments, l, alpha);
    EXPECT_LE(lb_fnn, exact + 1e-9)
        << "dims=" << dims << " segments=" << segments;

    const double lb_sm =
        LbPimSm(quant.PhiSm(p_means), quant.PhiSm(q_means), mean_dot,
                       segments, l, alpha);
    EXPECT_LE(lb_sm, exact + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PimFnnBoundTest,
    ::testing::Values(SegmentCase{64, 4, 1e6}, SegmentCase{64, 16, 1e6},
                      SegmentCase{420, 105, 1e6}, SegmentCase{420, 7, 1e6},
                      SegmentCase{100, 3, 1e6},  // uneven tail segment.
                      SegmentCase{960, 60, 1e5}, SegmentCase{8, 8, 1e6},
                      SegmentCase{33, 5, 1e4}));

// Upper bound on the dot product, and through it CS and PCC.
TEST(PimDotUpperBoundTest, BoundsDotCosinePearson) {
  const double alpha = 1e6;
  const Quantizer quant(alpha);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const size_t dims = 16 + (seed % 5) * 77;
    const auto p = RandomUnitVector(dims, 5000 + seed);
    const auto q = RandomUnitVector(dims, 6000 + seed);

    const double exact_dot = DotProduct(p, q);
    const double ub_dot =
        UbPimDot(FloorDot(p, q, quant), quant.SumFloors(p),
                        quant.SumFloors(q), static_cast<int64_t>(dims), alpha);
    EXPECT_GE(ub_dot, exact_dot - 1e-9);

    const double cs = CosineSimilarity(p, q);
    const double ub_cs = UbPimCosine(ub_dot, CsDecomposition::Phi(p),
                                     CsDecomposition::Phi(q));
    EXPECT_GE(ub_cs, cs - 1e-9);

    const double pcc = PearsonCorrelation(p, q);
    const auto phi_p = PccDecomposition::ComputePhi(p);
    const auto phi_q = PccDecomposition::ComputePhi(q);
    const double ub_pcc =
        UbPimPearson(ub_dot, static_cast<int64_t>(dims), phi_p.b, phi_q.b,
                     phi_p.a, phi_q.a);
    EXPECT_GE(ub_pcc, pcc - 1e-9);
  }
}

// HD combine reproduces the XOR popcount distance exactly.
TEST(HdPimCombineTest, MatchesXorPopcount) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t d = 1 + static_cast<int64_t>(rng.NextBounded(200));
    uint32_t code_dot = 0;
    uint32_t comp_dot = 0;
    int64_t xor_distance = 0;
    for (int64_t i = 0; i < d; ++i) {
      const bool a = rng.NextBool();
      const bool b = rng.NextBool();
      code_dot += (a && b) ? 1 : 0;
      comp_dot += (!a && !b) ? 1 : 0;
      xor_distance += (a != b) ? 1 : 0;
    }
    EXPECT_EQ(HdPim(code_dot, comp_dot, d), xor_distance);
  }
}

// The Theorem 3 error bound shrinks as alpha grows.
TEST(ErrorBoundTest, InverselyProportionalToAlpha) {
  EXPECT_GT(LbPimEdErrorBound(128, 1e3), LbPimEdErrorBound(128, 1e4));
  EXPECT_GT(LbPimEdErrorBound(128, 1e4), LbPimEdErrorBound(128, 1e6));
  EXPECT_NEAR(LbPimEdErrorBound(100, 1e6), 4.0 * 100 / 1e6 + 2.0 * 100 / 1e12,
              1e-15);
}

}  // namespace
}  // namespace pimine
