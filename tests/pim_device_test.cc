#include "pim/pim_device.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pim/timing.h"
#include "util/random.h"

namespace pimine {
namespace {

IntMatrix RandomIntMatrix(size_t rows, size_t cols, uint32_t limit,
                          uint64_t seed) {
  IntMatrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (int32_t& v : m.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(limit));
    }
  }
  return m;
}

TEST(PimDeviceTest, DotProductsMatchIntegerMath) {
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(50, 37, 1 << 20, 1);
  ASSERT_TRUE(device.ProgramDataset(data).ok());

  Rng rng(2);
  std::vector<int32_t> query(37);
  for (auto& v : query) v = static_cast<int32_t>(rng.NextBounded(1 << 20));

  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  ASSERT_EQ(out.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    uint64_t expected = 0;
    for (size_t j = 0; j < 37; ++j) {
      expected += static_cast<uint64_t>(data(i, j)) *
                  static_cast<uint64_t>(query[j]);
    }
    EXPECT_EQ(out[i], expected);
  }
}

TEST(PimDeviceTest, RejectsBadPrograms) {
  PimDevice device;
  EXPECT_FALSE(device.ProgramDataset(IntMatrix()).ok());

  IntMatrix negative(2, 2);
  negative(0, 0) = -1;
  EXPECT_FALSE(device.ProgramDataset(negative).ok());

  IntMatrix too_wide(1, 1);
  too_wide(0, 0) = 256;
  EXPECT_FALSE(device.ProgramDataset(too_wide, /*operand_bits=*/8).ok());
}

TEST(PimDeviceTest, RejectsOversizedDataset) {
  PimConfig config;
  config.num_crossbars = 1;
  PimDevice device(config);
  // 1000 vectors x 256 dims x 16 cells ≫ one 256x256 crossbar.
  const IntMatrix data = RandomIntMatrix(1000, 256, 100, 3);
  const Status status = device.ProgramDataset(data);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCapacityExceeded);
}

TEST(PimDeviceTest, QueryValidation) {
  PimDevice device;
  std::vector<uint64_t> out;
  // Not programmed.
  EXPECT_EQ(device.DotProductBatch(std::vector<int32_t>{1}, 1, &out).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(device.ProgramDataset(RandomIntMatrix(4, 8, 10, 4)).ok());
  // Wrong dimensionality.
  EXPECT_FALSE(
      device.DotProductBatch(std::vector<int32_t>(7, 1), 1, &out).ok());
  // Negative input.
  std::vector<int32_t> bad(8, 1);
  bad[3] = -2;
  EXPECT_FALSE(device.DotProductBatch(bad, 1, &out).ok());
}

TEST(PimDeviceTest, StatsAccumulate) {
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(100, 64, 1000, 5);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  EXPECT_EQ(device.stats().programmed_vectors, 100);
  EXPECT_EQ(device.stats().programmed_dims, 64);
  EXPECT_GT(device.stats().data_crossbars, 0);
  EXPECT_EQ(device.stats().gather_crossbars, 0);  // 64 <= 256.
  EXPECT_GT(device.stats().program_ns, 0.0);

  std::vector<uint64_t> out;
  const std::vector<int32_t> query(64, 1);
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  EXPECT_EQ(device.stats().batch_ops, 2u);
  EXPECT_EQ(device.stats().results_produced, 200u);
  EXPECT_EQ(device.stats().result_bytes_to_host, 200u * sizeof(uint64_t));
  EXPECT_GT(device.stats().compute_ns, 0.0);

  device.ResetOnlineStats();
  EXPECT_EQ(device.stats().batch_ops, 0u);
  EXPECT_GT(device.stats().program_ns, 0.0);  // offline stats retained.
}

TEST(PimDeviceTest, EnduranceTracksReprogramming) {
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(10, 8, 10, 6);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const double after_one = device.EnduranceRemainingFraction();
  ASSERT_TRUE(device.ReprogramDataset(data).ok());
  EXPECT_LT(device.EnduranceRemainingFraction(), after_one);
  EXPECT_GT(device.EnduranceRemainingFraction(), 0.999);
}

TEST(PimDeviceTest, ProgramDatasetRefusesSilentOverwrite) {
  // Reprogramming must be explicit (ReprogramDataset): a second
  // ProgramDataset call is a caller bug, not a free rewrite.
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(10, 8, 10, 6);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  EXPECT_EQ(device.ProgramDataset(data).code(), StatusCode::kInvalidArgument);
}

TEST(PimDeviceTest, AuxStorageCapacity) {
  PimConfig config;
  config.memory_array_bytes = 1000;
  PimDevice device(config);
  EXPECT_TRUE(device.StoreAux(600).ok());
  EXPECT_TRUE(device.StoreAux(400).ok());
  EXPECT_EQ(device.StoreAux(1).code(), StatusCode::kCapacityExceeded);
}

TEST(PimDeviceTest, WraparoundImplementsTruncation) {
  // Values large enough that the 64-bit accumulator wraps: the device must
  // return the least-significant 64 bits (the paper's overflow rule).
  PimConfig config;
  PimDevice device(config);
  IntMatrix data(1, 8);
  for (int32_t& v : data.mutable_row(0)) v = (1 << 30);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  std::vector<int32_t> query(8, 1 << 30);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  // 8 * 2^60 = 2^63 -- still fits; now force a wrap with more dims.
  IntMatrix data2(1, 32);
  for (int32_t& v : data2.mutable_row(0)) v = (1 << 30);
  PimDevice device2(config);
  ASSERT_TRUE(device2.ProgramDataset(data2).ok());
  std::vector<int32_t> query2(32, 1 << 30);
  ASSERT_TRUE(device2.DotProductBatch(query2, 1, &out).ok());
  // 32 * 2^60 = 2^65 -> LS-64 truncation keeps 2^65 mod 2^64 = 0? No:
  // 32 * 2^60 = 2^5 * 2^60 = 2^65, mod 2^64 = 0.
  EXPECT_EQ(out[0], 0u);
}

// DotProductBatch against a triple loop over `rows`, the device's current
// contents.
void ExpectDotsMatchTripleLoop(PimDevice& device, const IntMatrix& rows,
                               const std::vector<int32_t>& queries,
                               size_t num_queries) {
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());
  ASSERT_EQ(out.size(), num_queries * rows.rows());
  const size_t s = rows.cols();
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t v = 0; v < rows.rows(); ++v) {
      uint64_t expected = 0;
      for (size_t j = 0; j < s; ++j) {
        expected += static_cast<uint64_t>(rows(v, j)) *
                    static_cast<uint64_t>(queries[q * s + j]);
      }
      ASSERT_EQ(out[q * rows.rows() + v], expected) << "q=" << q << " v=" << v;
    }
  }
}

// The largest programmed operand decides whether the device GEMM may run
// on its IFMA kernels, which add only the low 52 bits of each product. It
// must follow every program path: a delta row raises it, a compaction that
// drops that row lowers it, and a reprogram replaces it. The queries sit
// near 2^31, so a bound left at the base program's 2^20 would let IFMA
// truncate the products of a 2^31 - 1 row. 39 base rows and one delta row
// fill 4-row tiles; 23 queries take a 16-query tile and a 7-query pass.
TEST(PimDeviceTest, OperandBoundFollowsEveryProgramPath) {
  const size_t s = 45, num_queries = 23;
  const IntMatrix base = RandomIntMatrix(39, s, 1 << 20, 3);
  IntMatrix big(1, s);
  for (int32_t& v : big.mutable_row(0)) v = 0x7FFFFFFF;
  Rng rng(4);
  std::vector<int32_t> queries(num_queries * s);
  for (int32_t& v : queries) {
    v = static_cast<int32_t>(0x7FFFFFFFu - rng.NextBounded(1 << 16));
  }

  PimDevice device;
  ASSERT_TRUE(device.ProgramDataset(base).ok());
  ExpectDotsMatchTripleLoop(device, base, queries, num_queries);

  ASSERT_TRUE(device.ProgramDelta(big).ok());
  IntMatrix grown = base;
  grown.AppendRows(big);
  ExpectDotsMatchTripleLoop(device, grown, queries, num_queries);

  std::vector<uint32_t> live(base.rows());
  for (size_t i = 0; i < live.size(); ++i) live[i] = static_cast<uint32_t>(i);
  ASSERT_TRUE(device.CompactRows(live).ok());
  ExpectDotsMatchTripleLoop(device, base, queries, num_queries);

  ASSERT_TRUE(device.ReprogramDataset(grown).ok());
  ExpectDotsMatchTripleLoop(device, grown, queries, num_queries);
}

// A delta append builds fault state only from its first row on, yet lands
// on the state one program of the merged rows builds: the same stuck data
// cells, so the same corrupted dot products with verification off, and the
// same checksum columns, so the same recovery with it on. The 13 base rows
// end inside a 16-row checksum group (256-cell crossbars, 16 two-bit
// slices per operand), which the delta completes before opening another.
TEST(PimDeviceTest, DeltaFaultStateEqualsMergedProgram) {
  const size_t s = 29, num_queries = 3;
  const IntMatrix base = RandomIntMatrix(13, s, 1 << 20, 5);
  const IntMatrix delta = RandomIntMatrix(10, s, 1 << 20, 6);
  IntMatrix merged = base;
  merged.AppendRows(delta);
  Rng rng(7);
  std::vector<int32_t> queries(num_queries * s);
  for (int32_t& v : queries) {
    v = static_cast<int32_t>(rng.NextBounded(1 << 20));
  }
  FaultConfig fault;
  fault.cell_rate = 1e-2;
  for (VerifyMode mode : {VerifyMode::kNone, VerifyMode::kHostExact}) {
    SCOPED_TRACE(std::string(VerifyModeName(mode)));
    RecoveryPolicy recovery;
    recovery.verify_mode = mode;
    PimDevice appended(PimConfig(), fault, recovery);
    ASSERT_TRUE(appended.ProgramDataset(base).ok());
    ASSERT_TRUE(appended.ProgramDelta(delta).ok());
    PimDevice programmed(PimConfig(), fault, recovery);
    ASSERT_TRUE(programmed.ProgramDataset(merged).ok());

    std::vector<uint64_t> got, want;
    ASSERT_TRUE(appended.DotProductBatch(queries, num_queries, &got).ok());
    ASSERT_TRUE(programmed.DotProductBatch(queries, num_queries, &want).ok());
    EXPECT_EQ(got, want);
    const FaultStats& a = appended.stats().fault;
    const FaultStats& p = programmed.stats().fault;
    EXPECT_GT(a.stuck_cells, 0u);
    EXPECT_GT(a.injected, 0u);
    EXPECT_EQ(a.stuck_cells, p.stuck_cells);
    EXPECT_EQ(a.ToString(), p.ToString());
  }
}

TEST(PimTimingTest, LatencyScalesWithGatherDepthAndBits) {
  PimConfig config;
  PimTimingModel timing(config);
  // 32-bit input on a 2-bit DAC: 16 cycles.
  EXPECT_EQ(timing.InputCycles(32), 16);
  EXPECT_EQ(timing.InputCycles(1), 1);
  // Deeper gather tree -> strictly more latency.
  EXPECT_LT(timing.BatchDotLatencyNs(256, 32),
            timing.BatchDotLatencyNs(257, 32));
  // Wider input -> more latency.
  EXPECT_LT(timing.BatchDotLatencyNs(256, 8),
            timing.BatchDotLatencyNs(256, 32));
  EXPECT_GT(timing.ProgramLatencyNs(10), 0.0);
}

}  // namespace
}  // namespace pimine
