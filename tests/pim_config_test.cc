#include "pim/pim_config.h"

#include <gtest/gtest.h>

namespace pimine {
namespace {

TEST(PimConfigTest, DefaultsMatchPaperSection6A) {
  const PimConfig config;
  EXPECT_EQ(config.crossbar_dim, 256);
  EXPECT_EQ(config.cell_bits, 2);
  EXPECT_EQ(config.num_crossbars, 131072);
  EXPECT_DOUBLE_EQ(config.read_ns, 29.31);
  EXPECT_DOUBLE_EQ(config.write_ns, 50.88);
  // 131072 crossbars x 256x256 cells x 2 bits = 2 GB PIM array (Table 5).
  EXPECT_EQ(config.TotalCellBits() / 8, 2ull * 1024 * 1024 * 1024);
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_NE(config.ToString().find("256x256"), std::string::npos);
}

TEST(PimConfigTest, ValidationCatchesBadGeometry) {
  PimConfig config;
  config.crossbar_dim = 100;  // not a power of two.
  EXPECT_FALSE(config.Validate().ok());

  config = PimConfig();
  config.cell_bits = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.cell_bits = 9;
  EXPECT_FALSE(config.Validate().ok());

  config = PimConfig();
  config.num_crossbars = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = PimConfig();
  config.dac_bits = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.dac_bits = 64;
  EXPECT_FALSE(config.Validate().ok());

  config = PimConfig();
  config.read_ns = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace pimine
