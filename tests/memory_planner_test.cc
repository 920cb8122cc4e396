#include "core/memory_planner.h"

#include <gtest/gtest.h>

namespace pimine {
namespace {

TEST(PlanPimLayoutTest, FullDimensionalityWhenRoomy) {
  PimConfig config;
  auto plan = PlanPimLayout(1000, 128, 32, 1, config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->s, 128);
  EXPECT_FALSE(plan->compressed);
  EXPECT_GT(plan->data_crossbars, 0);
}

TEST(PlanPimLayoutTest, CompressesUnderPressure) {
  PimConfig config;
  config.num_crossbars = 8;
  auto plan = PlanPimLayout(4096, 512, 32, 1, config);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->compressed);
  EXPECT_LT(plan->s, 512);
  EXPECT_GE(plan->s, 1);
  EXPECT_NE(plan->ToString().find("compressed"), std::string::npos);
}

TEST(PlanPimLayoutTest, CopiesHalveTheBudget) {
  PimConfig config;
  config.num_crossbars = 16;
  auto one = PlanPimLayout(4096, 512, 32, 1, config);
  auto two = PlanPimLayout(4096, 512, 32, 2, config);
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_GE(one->s, two->s);
}

TEST(PlanPimLayoutTest, RejectsBadArguments) {
  PimConfig config;
  EXPECT_FALSE(PlanPimLayout(0, 10, 32, 1, config).ok());
  EXPECT_FALSE(PlanPimLayout(10, 0, 32, 1, config).ok());
  EXPECT_FALSE(PlanPimLayout(10, 10, 32, 0, config).ok());
}

TEST(ScaleTest, ProportionalCrossbarBudget) {
  PimConfig base;  // 131072 crossbars.
  const PimConfig scaled = ScalePimArrayForDataset(992272, 20000, base);
  EXPECT_NEAR(static_cast<double>(scaled.num_crossbars),
              131072.0 * 20000 / 992272, 2.0);
  // Other parameters unchanged.
  EXPECT_EQ(scaled.crossbar_dim, base.crossbar_dim);
  EXPECT_EQ(scaled.cell_bits, base.cell_bits);
}

// The reproduction mechanism (DESIGN.md): with the crossbar budget scaled
// to the dataset, Theorem 4 yields a compressed dimensionality in the same
// regime as the paper's full-size run (s ~ 105-270 on MSD).
TEST(ScaleTest, MsdRegimeReproduced) {
  PimConfig base;
  const PimConfig scaled = ScalePimArrayForDataset(992272, 20000, base);
  auto plan = PlanPimLayout(20000, 420, 32, 2, scaled);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->compressed);
  EXPECT_GT(plan->s, 50);
  EXPECT_LT(plan->s, 420);
}

}  // namespace
}  // namespace pimine
