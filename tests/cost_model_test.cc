#include "sim/cost_model.h"

#include <gtest/gtest.h>

#include "sim/platform.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

TEST(PlatformTest, Table5Values) {
  const PlatformConfig& config = DefaultPlatform();
  EXPECT_DOUBLE_EQ(config.reram_read_ns, 29.31);
  EXPECT_DOUBLE_EQ(config.reram_write_ns, 50.88);
  EXPECT_EQ(config.l3_bytes, 20ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(config.internal_bus_gbps, 50.0);
  EXPECT_NE(FormatPlatformConfig(config).find("29.31"), std::string::npos);
}

TEST(PlatformTest, Table1Rows) {
  const auto& rows = NvmTable();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "DRAM");
  EXPECT_FALSE(rows[0].non_volatile);
  EXPECT_EQ(rows[1].name, "ReRAM");
  EXPECT_TRUE(rows[1].non_volatile);
  EXPECT_DOUBLE_EQ(rows[1].write_latency_ns_low, 50.0);
  EXPECT_NE(FormatNvmTable().find("ReRAM"), std::string::npos);
}

TEST(CostModelTest, BreakdownComponentsScaleWithCounters) {
  const HostCostModel model;
  TrafficCounters counters;
  counters.arithmetic_ops = 1000000;
  counters.bytes_from_memory = 1 << 20;
  counters.long_ops = 1000;
  counters.branches = 100000;

  const auto small_footprint = model.EstimateBreakdown(counters, 16 * 1024);
  const auto big_footprint =
      model.EstimateBreakdown(counters, 1ull << 30);
  EXPECT_GT(small_footprint.tc_ns, 0.0);
  EXPECT_GT(small_footprint.talu_ns, 0.0);
  EXPECT_GT(small_footprint.tbr_ns, 0.0);
  EXPECT_GT(small_footprint.tfe_ns, 0.0);
  // A working set beyond L3 stalls much more than an L1-resident one.
  EXPECT_GT(big_footprint.tcache_ns, small_footprint.tcache_ns);
  EXPECT_GT(big_footprint.total_ns(), big_footprint.tcache_ns);
}

TEST(CostModelTest, Equation1Composition) {
  const HostCostModel model;
  TrafficCounters counters;
  counters.arithmetic_ops = 100;
  const auto b = model.EstimateBreakdown(counters, 1024);
  EXPECT_NEAR(b.total_ns(),
              b.tc_ns + b.tcache_ns + b.talu_ns + b.tbr_ns + b.tfe_ns, 1e-9);
}

TEST(CostModelTest, MemoryStallDominatesForScanWorkloads) {
  // The Fig. 5 observation: a d-dimensional scan is ~3 arithmetic ops per
  // 4-byte element; with a DRAM-resident working set the stall share must
  // dominate (65-83% in the paper).
  const HostCostModel model;
  TrafficCounters counters;
  const uint64_t elements = 100'000'000;
  counters.bytes_from_memory = elements * 4;
  counters.arithmetic_ops = elements * 3;
  counters.branches = elements / 64;
  const auto b = model.EstimateBreakdown(counters, 3ull << 30);
  EXPECT_GT(b.tcache_ns / b.total_ns(), 0.5);
}

TEST(CostModelTest, TransferHelpers) {
  const HostCostModel model;
  EXPECT_GT(model.DramStreamNs(1 << 20), 0.0);
  EXPECT_GT(model.ReramWriteNs(1 << 20), model.DramWriteNs(1 << 20))
      << "ReRAM writes are slower than DRAM writes (Table 1)";
  EXPECT_GT(model.BufferLoadNs(1000, 64), 0.0);
  EXPECT_DOUBLE_EQ(model.BufferLoadNs(0, 64), 0.0);
}

TEST(CostModelTest, CacheSimVariantUsesMeasuredHits) {
  const HostCostModel model;
  TrafficCounters counters;
  counters.arithmetic_ops = 1000;
  CacheStats cold;
  cold.accesses = 1000;
  cold.memory_accesses = 1000;
  CacheStats warm;
  warm.accesses = 1000;
  warm.hits[0] = 1000;
  const auto cold_b = model.EstimateBreakdownFromCache(counters, cold);
  const auto warm_b = model.EstimateBreakdownFromCache(counters, warm);
  EXPECT_GT(cold_b.tcache_ns, warm_b.tcache_ns);
  EXPECT_DOUBLE_EQ(warm_b.tcache_ns, 0.0);
}

TEST(TrafficCountersTest, ArithmeticAndScopes) {
  traffic::Reset();
  traffic::CountRead(100);
  traffic::CountArithmetic(5);
  traffic::AggregateScope scope;
  traffic::CountRead(50);
  traffic::CountWrite(7);
  traffic::CountLongOps(2);
  traffic::CountBranches(3);
  traffic::CountPimResults(4);
  const TrafficCounters delta = scope.Delta().traffic;
  EXPECT_EQ(delta.bytes_from_memory, 50u);
  EXPECT_EQ(delta.bytes_to_memory, 7u);
  EXPECT_EQ(delta.long_ops, 2u);
  EXPECT_EQ(delta.branches, 3u);
  EXPECT_EQ(delta.pim_results_loaded, 4u);
  EXPECT_EQ(delta.arithmetic_ops, 0u);
  EXPECT_EQ(traffic::Local().traffic.bytes_from_memory, 150u);

  TrafficCounters sum;
  sum += delta;
  sum += delta;
  EXPECT_EQ(sum.bytes_from_memory, 100u);
  EXPECT_NE(delta.ToString().find("read=50B"), std::string::npos);
  traffic::Reset();
  EXPECT_EQ(traffic::Local().traffic.bytes_from_memory, 0u);
}

TEST(BreakdownTest, ToStringAndAccumulate) {
  HardwareBreakdown a;
  a.tc_ns = 10;
  a.tcache_ns = 90;
  HardwareBreakdown b;
  b.tc_ns = 5;
  a += b;
  EXPECT_DOUBLE_EQ(a.tc_ns, 15.0);
  EXPECT_NE(a.ToString().find("Tcache="), std::string::npos);
}

}  // namespace
}  // namespace pimine
