// ShardedPimEngine invariants: for every placement and shard count the
// fleet must reproduce the single-device engine bit for bit — bounds for
// all five engine modes (ties included) and modeled PIM time — while
// shard-boundary routing, fail-over, the tree-reduction charge and the
// shard-count validation behave as documented.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "data/generator.h"
#include "pim/fault_model.h"
#include "pim/fleet.h"
#include "sim/traffic.h"
#include "test_helpers.h"

namespace pimine {
namespace {

struct ModeCase {
  std::string label;
  Distance distance;
  EngineOptions::Bound bound;
};

std::vector<ModeCase> AllModes() {
  return {
      {"ED/direct", Distance::kEuclidean, EngineOptions::Bound::kDirectEd},
      {"ED/fnn", Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn},
      {"ED/sm", Distance::kEuclidean, EngineOptions::Bound::kSegmentSm},
      {"CS", Distance::kCosine, EngineOptions::Bound::kAuto},
      {"PCC", Distance::kPearson, EngineOptions::Bound::kAuto},
  };
}

FloatMatrix ClusteredData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "sharded";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 6;
  spec.cluster_std = 0.08;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

// Every (placement, M) fleet must produce bit-identical bounds and modeled
// PIM time to the single-device engine, in all five engine modes. The
// reference is one PimEngine queried below the failover ladder
// (PrepareBatch + DeviceBatch). n = 103 is prime, so every M > 1 exercises
// unequal shard sizes and shard-boundary routing.
TEST(ShardedEngineTest, BoundsBitIdenticalToSingleDeviceAllModes) {
  const size_t n = 103;
  const size_t d = 24;
  const FloatMatrix data = ClusteredData(n, d, 11);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(5, d, 12);
  const std::span<const float> span(queries.data(), queries.rows() * d);

  for (const ModeCase& mode : AllModes()) {
    EngineOptions options;
    options.bound = mode.bound;
    auto single_built = PimEngine::Build(data, mode.distance, options);
    ASSERT_TRUE(single_built.ok()) << mode.label;
    const auto single = std::move(single_built).value();

    PimEngine::QueryScratch scratch;
    PimEngine::QueryHandleBatch reference;
    ASSERT_TRUE(
        single->PrepareBatch(span, queries.rows(), &scratch, &reference).ok())
        << mode.label;
    ASSERT_TRUE(single->DeviceBatch(scratch, queries.rows(), &reference).ok())
        << mode.label;

    for (ShardPlacement placement :
         {ShardPlacement::kContiguous, ShardPlacement::kHash,
          ShardPlacement::kClusterAware}) {
      for (int shards : {1, 3, 8}) {
        EngineOptions sharded_options = options;
        sharded_options.shard.shards = shards;
        sharded_options.shard.placement = placement;
        auto built =
            ShardedPimEngine::Build(data, mode.distance, sharded_options);
        ASSERT_TRUE(built.ok()) << mode.label;
        const auto fleet = std::move(built).value();
        const std::string label =
            mode.label + " " +
            std::string(ShardPlacementName(placement)) + " M=" +
            std::to_string(shards);

        // The per-shard geometry must be forced from the full dataset.
        EXPECT_EQ(fleet->num_segments(), single->num_segments()) << label;
        EXPECT_EQ(fleet->mode(), single->mode()) << label;

        auto run = fleet->RunQueryBatch(span, queries.rows());
        ASSERT_TRUE(run.ok()) << label;
        for (size_t q = 0; q < queries.rows(); ++q) {
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(fleet->BoundFor(*run, q, i),
                      single->BoundFor(reference, q, i))
                << label << " q=" << q << " i=" << i;
          }
        }
        EXPECT_EQ(fleet->PimComputeNs(), single->DeviceStatsTotal().pim_ns)
            << label;
        // No interconnect within one device.
        EXPECT_EQ(fleet->FleetStats().scatter_messages > 0, shards > 1)
            << label;
      }
    }
  }
}

// BoundsFor is the span form of BoundFor: for every mode, shard count and
// placement it must return the per-object bounds bit for bit — tombstoned
// rows (PruneBound), VerifyMode::kBoundSlack suspects (the trivial bound)
// and rows appended round-robin across the shards included — and charge
// exactly the per-object loop's traffic.
TEST(ShardedEngineTest, SpanBoundsMatchPerObjectBoundsAndTraffic) {
  const size_t n = 103;
  const size_t d = 24;
  const FloatMatrix data = ClusteredData(n, d, 13);
  const FloatMatrix appended = testing_util::RandomUnitMatrix(7, d, 14);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(3, d, 15);

  uint64_t suspects = 0;
  for (const ModeCase& mode : AllModes()) {
    for (ShardPlacement placement :
         {ShardPlacement::kContiguous, ShardPlacement::kHash}) {
      for (int shards : {1, 3}) {
        EngineOptions options;
        options.bound = mode.bound;
        options.shard.shards = shards;
        options.shard.placement = placement;
        options.fault_config.cell_rate = 2e-3;
        options.recovery.verify_mode = VerifyMode::kBoundSlack;
        options.recovery.max_retries = 0;
        options.recovery.remap_on_permanent = false;
        auto built = ShardedPimEngine::Build(data, mode.distance, options);
        ASSERT_TRUE(built.ok()) << mode.label;
        const auto fleet = std::move(built).value();
        ASSERT_TRUE(fleet->AppendRows(appended).ok()) << mode.label;
        for (size_t i : {size_t{0}, size_t{17}, size_t{50}, n + 2}) {
          ASSERT_TRUE(fleet->DeleteRow(i).ok()) << mode.label << " " << i;
        }
        const std::string label =
            mode.label + " " + std::string(ShardPlacementName(placement)) +
            " M=" + std::to_string(shards);

        auto run = fleet->RunQueryBatch(
            std::span<const float>(queries.data(), queries.rows() * d),
            queries.rows());
        ASSERT_TRUE(run.ok()) << label;
        for (const auto& shard : run->shards) {
          for (const auto& flags : shard.suspect) {
            for (uint8_t f : flags) suspects += f;
          }
        }
        const size_t total = fleet->num_objects();
        std::vector<double> expected(total);
        std::vector<double> span(total);
        for (size_t q = 0; q < queries.rows(); ++q) {
          traffic::AggregateScope per_object;
          for (size_t i = 0; i < total; ++i) {
            expected[i] = fleet->BoundFor(*run, q, i);
          }
          const TrafficCounters per_object_delta = per_object.Delta().traffic;
          traffic::AggregateScope one_span;
          fleet->BoundsFor(*run, q, span);
          const TrafficCounters span_delta = one_span.Delta().traffic;
          EXPECT_TRUE(span_delta == per_object_delta)
              << label << " span " << span_delta.ToString() << " vs "
              << per_object_delta.ToString();
          for (size_t i = 0; i < total; ++i) {
            ASSERT_EQ(std::bit_cast<uint64_t>(span[i]),
                      std::bit_cast<uint64_t>(expected[i]))
                << label << " q=" << q << " i=" << i;
          }
          EXPECT_EQ(span[0], fleet->shard_engine(0).PruneBound()) << label;
        }
      }
    }
  }
  // The fault rate must actually produce suspects, or the sparse pass
  // went untested.
  EXPECT_GT(suspects, 0u);
}

// Placement parsing round-trips, and every shard map is a balanced
// partition with consistent inverse routing.
TEST(ShardedEngineTest, PlacementRoundTripAndBalancedPartition) {
  for (ShardPlacement placement :
       {ShardPlacement::kContiguous, ShardPlacement::kHash,
        ShardPlacement::kClusterAware}) {
    auto parsed = ParseShardPlacement(ShardPlacementName(placement));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), placement);
  }
  EXPECT_FALSE(ParseShardPlacement("ring").ok());

  const FloatMatrix data = testing_util::RandomUnitMatrix(41, 8, 3);
  for (ShardPlacement placement :
       {ShardPlacement::kContiguous, ShardPlacement::kHash,
        ShardPlacement::kClusterAware}) {
    ShardOptions options;
    options.shards = 6;
    options.placement = placement;
    auto map_result = BuildShardMap(data, options);
    ASSERT_TRUE(map_result.ok());
    const ShardMap& map = map_result.value();

    ASSERT_EQ(map.shards(), 6u);
    size_t smallest = data.rows();
    size_t largest = 0;
    std::vector<bool> seen(data.rows(), false);
    for (size_t j = 0; j < map.shards(); ++j) {
      const auto& rows = map.rows_per_shard[j];
      smallest = std::min(smallest, rows.size());
      largest = std::max(largest, rows.size());
      // Shard-local order is ascending global order, with the inverse map
      // routing every global row back to its (shard, local) slot.
      ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      for (size_t local = 0; local < rows.size(); ++local) {
        const uint32_t global = rows[local];
        ASSERT_LT(global, data.rows());
        EXPECT_FALSE(seen[global]) << "row assigned twice";
        seen[global] = true;
        EXPECT_EQ(map.shard_of[global], j);
        EXPECT_EQ(map.local_of[global], local);
      }
    }
    EXPECT_LE(largest - smallest, 1u) << "placement must stay balanced";
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool s) { return s; }));
  }
}

TEST(ShardedEngineTest, RejectsInvalidShardCounts) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(10, 8, 4);
  for (int shards : {0, -2}) {
    EngineOptions options;
    options.shard.shards = shards;
    auto built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  EngineOptions options;
  options.shard.shards = 11;  // > n: some shard would be empty.
  auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// The fleet resolves its geometry on the full dataset through the same
// resolver as PimEngine::Build, so every configuration the single device
// rejects fails the same way, with the same message, at every shard count.
// That includes options the resolver's EngineOptions::Validate rejects.
TEST(ShardedEngineTest, RejectsWhatPimEngineRejects) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(256, 128, 9);
  struct Rejected {
    std::string label;
    Distance distance;
    EngineOptions::Bound bound;
    int64_t crossbars;  // 4 cannot hold d = 128 at full dimensionality.
    int64_t force_segments;
    StatusCode code;
    double alpha = 1e6;
    double fault_rate = 0.0;
  };
  const std::vector<Rejected> cases = {
      {"CS with a fixed bound", Distance::kCosine,
       EngineOptions::Bound::kSegmentSm, 64, 0, StatusCode::kInvalidArgument},
      {"forced direct ED, small array", Distance::kEuclidean,
       EngineOptions::Bound::kDirectEd, 4, 0, StatusCode::kCapacityExceeded},
      {"PCC, small array", Distance::kPearson, EngineOptions::Bound::kAuto,
       4, 0, StatusCode::kCapacityExceeded},
      {"segments above Theorem 4", Distance::kEuclidean,
       EngineOptions::Bound::kSegmentFnn, 4, 128,
       StatusCode::kCapacityExceeded},
      {"alpha below 1", Distance::kEuclidean, EngineOptions::Bound::kAuto,
       64, 0, StatusCode::kInvalidArgument, /*alpha=*/0.0},
      {"fault rate above 1", Distance::kEuclidean,
       EngineOptions::Bound::kAuto, 64, 0, StatusCode::kInvalidArgument,
       /*alpha=*/1e6, /*fault_rate=*/2.0},
  };
  for (const Rejected& c : cases) {
    EngineOptions options;
    options.bound = c.bound;
    options.pim_config.num_crossbars = c.crossbars;
    options.force_segments = c.force_segments;
    options.alpha = c.alpha;
    options.fault_config.cell_rate = c.fault_rate;
    options.fault_config.transient_rate = c.fault_rate;
    const Status single =
        PimEngine::Build(data, c.distance, options).status();
    ASSERT_EQ(single.code(), c.code) << c.label << ": " << single.ToString();
    for (int shards : {1, 3}) {
      options.shard.shards = shards;
      const Status fleet =
          ShardedPimEngine::Build(data, c.distance, options).status();
      EXPECT_EQ(fleet.code(), single.code()) << c.label << " M=" << shards;
      EXPECT_EQ(fleet.message(), single.message())
          << c.label << " M=" << shards;
    }
  }
}

// A shard whose device op fails with DeviceFault (kFailOp recovery) is
// escalated to a host-exact recompute of only that shard: the fleet run
// succeeds, bounds stay bit-identical to the fault-free fleet, and the
// fail-over is visible in the fleet stats. A one-shard fleet walks the same
// ladder.
TEST(ShardedEngineTest, FailedShardEscalatesToHostRecompute) {
  const size_t n = 90;
  const size_t d = 16;
  const FloatMatrix data = ClusteredData(n, d, 21);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(3, d, 22);
  const std::span<const float> span(queries.data(), queries.rows() * d);

  for (int shards : {1, 3}) {
    EngineOptions clean_options;
    clean_options.shard.shards = shards;
    auto clean_built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, clean_options);
    ASSERT_TRUE(clean_built.ok()) << "M=" << shards;
    const auto clean = std::move(clean_built).value();
    auto clean_run = clean->RunQueryBatch(span, queries.rows());
    ASSERT_TRUE(clean_run.ok()) << "M=" << shards;

    EngineOptions faulty_options = clean_options;
    faulty_options.fault_config.transient_rate = 0.2;  // every op faults.
    faulty_options.recovery.verify_mode = VerifyMode::kFailOp;
    faulty_options.recovery.max_retries = 0;
    auto faulty_built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, faulty_options);
    ASSERT_TRUE(faulty_built.ok()) << "M=" << shards;
    const auto faulty = std::move(faulty_built).value();

    auto run = faulty->RunQueryBatch(span, queries.rows());
    ASSERT_TRUE(run.ok()) << "M=" << shards << ": " << run.status().ToString();
    for (size_t q = 0; q < queries.rows(); ++q) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(faulty->BoundFor(*run, q, i),
                  clean->BoundFor(*clean_run, q, i))
            << "M=" << shards << " q=" << q << " i=" << i;
      }
    }
    const FleetRunStats stats = faulty->FleetStats();
    EXPECT_GT(stats.failovers, 0u) << "M=" << shards;
    EXPECT_GT(stats.failed_over_queries, 0u) << "M=" << shards;
    EXPECT_GT(faulty->FaultStatsTotal().escalated_to_host, 0u)
        << "M=" << shards;
  }
}

// A device pass that fails the op (kFailOp) is still a pass its shard ran:
// every shard's snapshot charges it (a batch op, its modeled time, the
// faults it injected), and the shard's host escalations are exactly the rows
// the fail-over recompute re-read, not also the group that failed the pass.
// Under the FNN bound the stds device runs and charges its pass although the
// means device failed the op first. The fleet figures are the reductions of
// those snapshots.
TEST(ShardedEngineTest, FailedPassIsChargedAndSnapshotsAddUp) {
  const size_t n = 90;
  const size_t d = 16;
  const FloatMatrix data = ClusteredData(n, d, 21);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(3, d, 22);
  const std::span<const float> span(queries.data(), queries.rows() * d);

  for (int shards : {1, 3}) {
    EngineOptions options;
    options.bound = EngineOptions::Bound::kSegmentFnn;
    options.shard.shards = shards;
    options.fault_config.transient_rate = 0.2;  // every op faults.
    options.recovery.verify_mode = VerifyMode::kFailOp;
    options.recovery.max_retries = 0;
    auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    ASSERT_TRUE(built.ok()) << "M=" << shards;
    const auto fleet = std::move(built).value();
    ASSERT_TRUE(fleet->RunQueryBatch(span, queries.rows()).ok())
        << "M=" << shards;

    const uint64_t devices = fleet->shard_engine(0).num_devices();
    ASSERT_EQ(devices, 2u);
    double max_pim_ns = 0.0;
    double max_pipelined_ns = 0.0;
    FaultStats fault;
    uint64_t scatter = 0, gather = 0, failovers = 0, failed_over = 0;
    uint64_t row_writes = 0;
    for (size_t j = 0; j < fleet->shards(); ++j) {
      const ShardedPimEngine::ShardHealth h = fleet->ShardHealthSnapshot(j);
      const std::string label =
          "M=" + std::to_string(shards) + " shard " + std::to_string(j);
      for (size_t k = 0; k < devices; ++k) {
        const PimDeviceStats device =
            fleet->shard_engine(j).device(k).StatsSnapshot();
        EXPECT_EQ(device.batch_ops, 1u) << label << " device " << k;
        EXPECT_GT(device.fault.injected, 0u) << label << " device " << k;
      }
      EXPECT_EQ(h.batch_ops, devices) << label;
      EXPECT_GT(h.pim_ns, 0.0) << label;
      EXPECT_GT(h.fault.injected, 0u) << label;
      EXPECT_EQ(h.failed_over_queries, queries.rows()) << label;
      const uint64_t shard_rows = fleet->shard_map().rows_per_shard[j].size();
      EXPECT_EQ(h.fault.escalated_to_host,
                h.failed_over_queries * shard_rows * devices)
          << label;
      max_pim_ns = std::max(max_pim_ns, h.pim_ns);
      max_pipelined_ns = std::max(max_pipelined_ns, h.pipelined_ns);
      fault.Merge(h.fault);
      scatter += h.scatter_messages;
      gather += h.gather_messages;
      failovers += h.failovers;
      failed_over += h.failed_over_queries;
      row_writes += h.row_writes;
    }
    const std::string label = "M=" + std::to_string(shards);
    EXPECT_EQ(fleet->PimComputeNs(), max_pim_ns) << label;
    EXPECT_EQ(fleet->PimPipelinedNs(), max_pipelined_ns) << label;
    const FaultStats total = fleet->FaultStatsTotal();
    EXPECT_EQ(total.injected, fault.injected) << label;
    EXPECT_EQ(total.detected, fault.detected) << label;
    EXPECT_EQ(total.escalated_to_host, fault.escalated_to_host) << label;
    EXPECT_EQ(total.recovery_ns, fault.recovery_ns) << label;
    const FleetRunStats stats = fleet->FleetStats();
    EXPECT_EQ(stats.scatter_messages, scatter) << label;
    EXPECT_EQ(stats.gather_messages, gather) << label;
    EXPECT_EQ(stats.failovers, failovers) << label;
    EXPECT_EQ(stats.failed_over_queries, failed_over) << label;
    EXPECT_EQ(stats.row_writes, row_writes) << label;
  }
}

// ChargeTreeReduction charges the critical path: ceil(log2 M) messages of
// the given payload, and nothing at M = 1.
TEST(ShardedEngineTest, TreeReductionChargesCriticalPath) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(64, 8, 6);
  for (const auto& [shards, depth] :
       std::vector<std::pair<int, uint64_t>>{{1, 0}, {2, 1}, {3, 2},
                                             {5, 3}, {8, 3}}) {
    EngineOptions options;
    options.shard.shards = shards;
    auto built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    ASSERT_TRUE(built.ok()) << "M=" << shards;
    const auto fleet = std::move(built).value();
    fleet->ChargeTreeReduction(1000);
    const FleetRunStats stats = fleet->FleetStats();
    EXPECT_EQ(stats.reduce_messages, depth) << "M=" << shards;
    EXPECT_EQ(stats.reduce_bytes, depth * 1000) << "M=" << shards;
  }
}

}  // namespace
}  // namespace pimine
