#include <string>

#include <gtest/gtest.h>

#include "profiling/modeled_time.h"
#include "profiling/run_stats.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

// Each Fig. 6 function prints its paper name, and Eq. 2's set F holds the
// similarity and bound functions: not the approximate kNN's distances, the
// k-means bound maintenance or the center update.
TEST(FunctionProfileTest, NamesAndOffloadableSet) {
  std::string names;
  std::string offloadable;
  for (const FnInfo& fn : kFns) {
    names += std::string(fn.name) + ";";
    if (fn.offloadable) offloadable += std::string(fn.name) + ";";
  }
  EXPECT_EQ(names,
            "ED;ED_approx;CS;PCC;HD;HD_PIM;LB_PIM;LB_OST;LB_SM;LB_FNN;"
            "bound update;update;");
  EXPECT_EQ(offloadable, "ED;CS;PCC;HD;HD_PIM;LB_PIM;LB_OST;LB_SM;LB_FNN;");
  EXPECT_STREQ(FnName(Fn::kBoundUpdate), "bound update");
}

TEST(FunctionProfileTest, AddSubtractAndOffloadableSum) {
  FunctionProfile a;
  a[Fn::kEd] = 100;
  a[Fn::kLbFnn] = 50;
  a[Fn::kEdApprox] = 11;
  a[Fn::kBoundUpdate] = 3;
  a[Fn::kUpdate] = 7;
  EXPECT_EQ(a.TotalNs(), 171);
  EXPECT_EQ(a.OffloadableNs(), 150);

  FunctionProfile b;
  b[Fn::kEd] = 5;
  b[Fn::kPcc] = 2;
  FunctionProfile sum = a;
  sum += b;
  EXPECT_EQ(sum[Fn::kEd], 105);
  EXPECT_EQ(sum[Fn::kPcc], 2);
  EXPECT_EQ(sum[Fn::kUpdate], 7);
  EXPECT_EQ(sum.TotalNs(), 178);
  EXPECT_EQ(sum.OffloadableNs(), 157);
  EXPECT_EQ((sum - b).ns, a.ns);
  EXPECT_EQ((sum - a).ns, b.ns);
}

// A timer charges its scope to its function in the calling thread's
// ledger, or in the sink a ScopedSink installed.
TEST(ScopedFunctionTimerTest, ChargesTheCallingThreadsLedger) {
  const traffic::AggregateScope scope;
  {
    ScopedFunctionTimer timer(Fn::kUpdate);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
  }
  const FunctionProfile charged = scope.Delta().profile;
  EXPECT_GT(charged[Fn::kUpdate], 0);
  EXPECT_EQ(charged.TotalNs(), charged[Fn::kUpdate]);

  RunLedger sink;
  {
    const traffic::ScopedSink to_sink(&sink);
    ScopedFunctionTimer timer(Fn::kLbPim);
  }
  EXPECT_GT(sink.profile[Fn::kLbPim], 0);
  EXPECT_EQ(scope.Delta().profile[Fn::kLbPim], 0);
}

TEST(ModeledTimeTest, ComposesHostAndPim) {
  RunStats stats;
  stats.traffic.arithmetic_ops = 1000000;
  stats.traffic.bytes_from_memory = 1 << 22;
  stats.footprint_bytes = 1ull << 30;
  stats.pim_ns = 5000.0;
  const HostCostModel model;
  const ModeledTime time = ComposeModeledTime(stats, model);
  EXPECT_GT(time.host.total_ns(), 0.0);
  EXPECT_DOUBLE_EQ(time.pim_ns, 5000.0);
  EXPECT_NEAR(time.total_ns(), time.host.total_ns() + 5000.0, 1e-9);
  EXPECT_NEAR(time.total_ms(), time.total_ns() / 1e6, 1e-12);
  EXPECT_NE(time.ToString().find("pim="), std::string::npos);
}

TEST(PimOracleTest, Equation2) {
  // Eq. 2: oracle = total - offloadable, floored at 0.
  EXPECT_DOUBLE_EQ(PimOracleNs(100.0, 80.0), 20.0);
  EXPECT_DOUBLE_EQ(PimOracleNs(100.0, 120.0), 0.0);
  EXPECT_DOUBLE_EQ(PimOracleNs(0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace pimine
