// Write-endurance / wear model: per-slot program accounting sums exactly
// (base programs + delta appends + compaction rewrites), worn slots hand
// off to the stuck-at fault process and the checksum detection/recovery
// ladder keeps results bit-exact, and FaultStats stays balanced
// (injected == detected + escaped) under mutation + compaction.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "knn/standard_pim_knn.h"
#include "pim/fault_model.h"
#include "pim/pim_device.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

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

FaultConfig WearConfig(uint64_t endurance_limit, double wear_stuck_rate) {
  FaultConfig fault;
  fault.endurance_limit = endurance_limit;
  fault.wear_stuck_rate = wear_stuck_rate;
  return fault;
}

// ---------------------------------------------------------------------------
// Endurance counter accounting
// ---------------------------------------------------------------------------

TEST(WearEnduranceTest, ProgramAccountingSumsExactly) {
  // Generous limit: nothing wears; this test is pure accounting.
  PimDevice device(PimConfig(), WearConfig(100, 0.5));
  const IntMatrix base = RandomIntMatrix(10, 8, 100, 1);
  ASSERT_TRUE(device.ProgramDataset(base).ok());
  EXPECT_EQ(device.StatsSnapshot().row_writes, 10u);

  const IntMatrix delta = RandomIntMatrix(4, 8, 100, 2);
  ASSERT_TRUE(device.ProgramDelta(delta).ok());
  EXPECT_EQ(device.StatsSnapshot().row_writes, 14u);

  // Compaction drops rows 3 and 11 and rewrites the other 12.
  std::vector<uint32_t> live;
  for (uint32_t v = 0; v < 14; ++v) {
    if (v != 3 && v != 11) live.push_back(v);
  }
  ASSERT_TRUE(device.CompactRows(live).ok());
  const PimDeviceStats stats = device.StatsSnapshot();
  // row_writes == base + delta + compaction rewrites, exactly.
  EXPECT_EQ(stats.compacted_rows, 12u);
  EXPECT_EQ(stats.row_writes, 10u + 4u + 12u);

  // The per-slot counters decompose the same total: slots 0..11 were
  // written once by the initial program/append and once by the compaction;
  // slots 12..13 only by the initial pass.
  uint64_t per_slot_sum = 0;
  for (size_t v = 0; v < 14; ++v) per_slot_sum += device.RowWrites(v);
  EXPECT_EQ(per_slot_sum, stats.row_writes);
  for (size_t v = 0; v < 12; ++v) EXPECT_EQ(device.RowWrites(v), 2u) << v;
  for (size_t v = 12; v < 14; ++v) EXPECT_EQ(device.RowWrites(v), 1u) << v;
  EXPECT_EQ(stats.worn_rows, 0u);
}

TEST(WearEnduranceTest, ReprogramChargesEverySlotOnce) {
  PimDevice device(PimConfig(), WearConfig(100, 0.5));
  const IntMatrix data = RandomIntMatrix(6, 8, 100, 3);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  ASSERT_TRUE(device.ReprogramDataset(data).ok());
  EXPECT_EQ(device.StatsSnapshot().row_writes, 12u);
  for (size_t v = 0; v < 6; ++v) EXPECT_EQ(device.RowWrites(v), 2u);
}

TEST(WearEnduranceTest, WearCountersSurviveCompaction) {
  // Physical slots keep their write history across compaction — the cells
  // are the same hardware even though the rows stored in them change.
  PimDevice device(PimConfig(), WearConfig(2, 1.0));
  const IntMatrix base = RandomIntMatrix(8, 8, 100, 4);
  ASSERT_TRUE(device.ProgramDataset(base).ok());
  std::vector<uint32_t> live;
  for (uint32_t v = 1; v < 8; ++v) live.push_back(v);
  ASSERT_TRUE(device.CompactRows(live).ok());  // slots 0..6 now at 2 writes.
  live.clear();
  for (uint32_t v = 1; v < 7; ++v) live.push_back(v);
  ASSERT_TRUE(device.CompactRows(live).ok());  // slots 0..5 now at 3 > 2.
  const PimDeviceStats stats = device.StatsSnapshot();
  EXPECT_EQ(stats.row_writes, 8u + 7u + 6u);
  EXPECT_EQ(stats.worn_rows, 6u);
  for (size_t v = 0; v < 6; ++v) EXPECT_TRUE(device.RowWorn(v)) << v;
  EXPECT_FALSE(device.RowWorn(6));
  EXPECT_FALSE(device.RowWorn(7));
}

// ---------------------------------------------------------------------------
// Worn slots -> stuck-at cells -> detection/recovery ladder
// ---------------------------------------------------------------------------

TEST(WearEnduranceTest, WornSlotsHandOffToRecoveryLadder) {
  // endurance_limit=1 with wear_stuck_rate=1: a single reprogram wears
  // every slot and sticks every cell. The checksum ladder must detect the
  // corruption and recover every dot product to the exact integer result.
  PimConfig config;
  RecoveryPolicy recovery;  // defaults: retry -> remap -> host-exact.
  PimDevice worn(config, WearConfig(1, 1.0), recovery);
  PimDevice clean(config);
  const IntMatrix data = RandomIntMatrix(24, 8, 100, 5);
  ASSERT_TRUE(worn.ProgramDataset(data).ok());
  ASSERT_TRUE(worn.ReprogramDataset(data).ok());  // 2 writes > limit 1.
  ASSERT_TRUE(clean.ProgramDataset(data).ok());
  EXPECT_EQ(worn.StatsSnapshot().worn_rows, 24u);

  Rng rng(6);
  std::vector<int32_t> query(8);
  for (auto& v : query) v = static_cast<int32_t>(rng.NextBounded(100));
  std::vector<uint64_t> got, want;
  ASSERT_TRUE(worn.DotProductBatch(query, 1, &got).ok());
  ASSERT_TRUE(clean.DotProductBatch(query, 1, &want).ok());
  EXPECT_EQ(got, want);  // the ladder recovered every value exactly.

  const FaultStats fault = worn.StatsSnapshot().fault;
  EXPECT_GT(fault.injected, 0u);
  EXPECT_GT(fault.detected, 0u);
  // Stuck-at faults are permanent: retries alone cannot clear them, so the
  // ladder must have climbed past the retry rung.
  EXPECT_GT(fault.retries, 0u);
  EXPECT_TRUE(fault.remapped_rows > 0 || fault.escalated_to_host > 0);
  EXPECT_EQ(fault.injected, fault.detected + fault.escaped);
  EXPECT_GT(fault.recovery_ns, 0.0);
}

TEST(WearEnduranceTest, BelowLimitSlotsDrawNoWearFaults) {
  // One program per slot stays within endurance_limit=1 (worn is strictly
  // "more than limit"), so a wear-only config injects nothing.
  PimDevice device(PimConfig(), WearConfig(1, 1.0), RecoveryPolicy());
  const IntMatrix data = RandomIntMatrix(16, 8, 100, 7);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  EXPECT_EQ(device.StatsSnapshot().worn_rows, 0u);
  Rng rng(8);
  std::vector<int32_t> query(8);
  for (auto& v : query) v = static_cast<int32_t>(rng.NextBounded(100));
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(query, 1, &out).ok());
  EXPECT_EQ(device.StatsSnapshot().fault.injected, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level: mutation + compaction under wear stays exact and balanced
// ---------------------------------------------------------------------------

TEST(WearEnduranceTest, MutationUnderWearStaysExactAndBalanced) {
  const FloatMatrix base = RandomUnitMatrix(60, 12, 11);
  const FloatMatrix extra = RandomUnitMatrix(12, 12, 12);
  const FloatMatrix queries = RandomUnitMatrix(5, 12, 13);

  // Wear kicks in at the first compaction rewrite (limit 1); half the
  // cells of a worn slot stick.
  EngineOptions worn_options;
  worn_options.fault_config = WearConfig(1, 0.5);
  EngineOptions clean_options;

  const auto mutate = [&](StandardPimKnn* knn) {
    ASSERT_TRUE(knn->OnInsert(extra).ok());
    for (uint32_t v = 0; v < 10; ++v) ASSERT_TRUE(knn->OnDelete(v * 3).ok());
    std::vector<uint32_t> live;
    for (uint32_t v = 0; v < 72; ++v) {
      if (v % 3 != 0 || v >= 30) live.push_back(v);
    }
    ASSERT_TRUE(knn->OnCompact(live).ok());
  };

  StandardPimKnn worn(Distance::kEuclidean, worn_options);
  StandardPimKnn clean(Distance::kEuclidean, clean_options);
  FloatMatrix worn_data = base;
  FloatMatrix clean_data = base;
  ASSERT_TRUE(worn.Prepare(worn_data).ok());
  ASSERT_TRUE(clean.Prepare(clean_data).ok());
  mutate(&worn);
  worn_data.AppendRows(extra);
  std::vector<uint32_t> live;
  for (uint32_t v = 0; v < 72; ++v) {
    if (v % 3 != 0 || v >= 30) live.push_back(v);
  }
  worn_data.KeepRows(live);
  mutate(&clean);
  clean_data.AppendRows(extra);
  clean_data.KeepRows(live);

  auto worn_result = worn.Search(queries, 5);
  auto clean_result = clean.Search(queries, 5);
  ASSERT_TRUE(worn_result.ok()) << worn_result.status().ToString();
  ASSERT_TRUE(clean_result.ok());
  // The recovery ladder makes the worn fleet's answers bit-identical to
  // the fault-free fleet's.
  EXPECT_EQ(worn_result->neighbors, clean_result->neighbors);

  const FaultStats fault = worn_result->stats.fault;
  EXPECT_GT(fault.injected, 0u);
  EXPECT_EQ(fault.injected, fault.detected + fault.escaped);
  EXPECT_EQ(fault.escaped, 0u);  // host-exact verification catches all.

  // Wear accounting flows into the fleet stats: 60 base + 12 delta + 62
  // compaction rewrites, and the compacted slots (2 writes > limit 1) are
  // worn.
  EXPECT_EQ(worn_result->stats.fleet.row_writes, 60u + 12u + 62u);
  EXPECT_EQ(worn_result->stats.fleet.worn_rows, 62u);
  EXPECT_EQ(clean_result->stats.fleet.worn_rows, 0u);
}

}  // namespace
}  // namespace pimine
