#include "core/quantize.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/segments.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitVector;

TEST(QuantizerTest, FloorScaling) {
  const Quantizer quant(1000.0);
  EXPECT_EQ(quant.QuantizeValue(0.0f), 0);
  EXPECT_EQ(quant.QuantizeValue(0.5532f), 553);  // the paper's Fig. 9 value.
  EXPECT_EQ(quant.QuantizeValue(1.0f), 1000);
  EXPECT_EQ(quant.QuantizeValue(0.9994f), 999);
}

TEST(QuantizerTest, RowQuantization) {
  const Quantizer quant(100.0);
  const std::vector<float> row = {0.125f, 0.999f, 0.0f};
  std::vector<int32_t> out(3);
  quant.QuantizeRow(row, out);
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[1], 99);
  EXPECT_EQ(out[2], 0);
}

TEST(QuantizerTest, PhiEdMatchesDefinition) {
  const double alpha = 1e4;
  const Quantizer quant(alpha);
  const auto p = RandomUnitVector(64, 3);
  double expected = 0.0;
  for (float v : p) {
    const double scaled = static_cast<double>(v) * alpha;
    expected += scaled * scaled - 2.0 * std::floor(scaled);
  }
  EXPECT_NEAR(quant.PhiEd(p), expected, 1e-6);
}

TEST(QuantizerTest, PhiFnnAndSmDefinitions) {
  const double alpha = 1e3;
  const Quantizer quant(alpha);
  const auto p = RandomUnitVector(32, 4);
  std::vector<float> means(4), stds(4);
  ComputeSegments(p, 4, means, stds);

  double expected_fnn = 0.0;
  double expected_sm = 0.0;
  for (int s = 0; s < 4; ++s) {
    const double mu = static_cast<double>(means[s]) * alpha;
    const double sigma = static_cast<double>(stds[s]) * alpha;
    expected_fnn += mu * mu + sigma * sigma - 2.0 * std::floor(mu) -
                    2.0 * std::floor(sigma);
    expected_sm += mu * mu - 2.0 * std::floor(mu);
  }
  EXPECT_NEAR(quant.PhiFnn(means, stds), expected_fnn, 1e-6);
  EXPECT_NEAR(quant.PhiSm(means), expected_sm, 1e-6);
}

TEST(QuantizerTest, SumFloors) {
  const Quantizer quant(10.0);
  const std::vector<float> p = {0.15f, 0.98f, 0.5f};
  EXPECT_DOUBLE_EQ(quant.SumFloors(p), 1.0 + 9.0 + 5.0);
}

TEST(QuantizerTest, AlphaAccessor) {
  EXPECT_DOUBLE_EQ(Quantizer(12345.0).alpha(), 12345.0);
  EXPECT_DOUBLE_EQ(Quantizer().alpha(), 1e6);
}

}  // namespace
}  // namespace pimine
