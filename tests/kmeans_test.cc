#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "obs/obs.h"
#include "sim/traffic.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

FloatMatrix ClusteredData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 6;
  spec.cluster_std = 0.07;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

std::vector<std::unique_ptr<KmeansAlgorithm>> AllAlgorithms() {
  std::vector<std::unique_ptr<KmeansAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<LloydKmeans>());
  algorithms.push_back(std::make_unique<ElkanKmeans>());
  algorithms.push_back(std::make_unique<DrakeKmeans>());
  algorithms.push_back(std::make_unique<YinyangKmeans>());
  algorithms.push_back(std::make_unique<HamerlyKmeans>());
  return algorithms;
}

struct TrajectoryCase {
  int k;
  bool use_pim;
};

class KmeansEquivalenceTest
    : public ::testing::TestWithParam<TrajectoryCase> {};

// Elkan, Drake and Yinyang are exact accelerations of Lloyd; with the same
// seed every variant — PIM or not — must land on identical assignments and
// inertia (the paper's "accuracy is not compromised" claim for k-means).
TEST_P(KmeansEquivalenceTest, AllVariantsFollowLloydTrajectory) {
  const auto [k, use_pim] = GetParam();
  const FloatMatrix data = ClusteredData(400, 24, 17);

  KmeansOptions base_options;
  base_options.k = k;
  base_options.max_iterations = 6;
  base_options.seed = 123;

  LloydKmeans lloyd;
  auto golden = lloyd.Run(data, base_options);
  ASSERT_TRUE(golden.ok());

  KmeansOptions options = base_options;
  options.use_pim = use_pim;

  for (const auto& algorithm : AllAlgorithms()) {
    auto result = algorithm->Run(data, options);
    ASSERT_TRUE(result.ok()) << algorithm->name() << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->iterations, golden->iterations) << algorithm->name();
    EXPECT_NEAR(result->inertia, golden->inertia, 1e-6)
        << algorithm->name() << (use_pim ? " (PIM)" : "");
    ASSERT_EQ(result->assignments.size(), golden->assignments.size());
    size_t mismatches = 0;
    for (size_t i = 0; i < golden->assignments.size(); ++i) {
      if (result->assignments[i] != golden->assignments[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << algorithm->name()
                              << (use_pim ? " (PIM)" : "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KmeansEquivalenceTest,
    ::testing::Values(TrajectoryCase{2, false}, TrajectoryCase{8, false},
                      TrajectoryCase{32, false}, TrajectoryCase{8, true},
                      TrajectoryCase{32, true}, TrajectoryCase{64, true}));

TEST(KmeansBasicTest, ConvergesAndImproves) {
  const FloatMatrix data = ClusteredData(300, 16, 3);
  KmeansOptions options;
  options.k = 6;
  options.max_iterations = 20;
  LloydKmeans lloyd;
  auto result = lloyd.Run(data, options);
  ASSERT_TRUE(result.ok());
  // Converges well before the cap on well-separated clusters.
  EXPECT_LT(result->iterations, 20);
  EXPECT_GT(result->iterations, 0);
  EXPECT_GT(result->inertia, 0.0);
  EXPECT_EQ(result->assignments.size(), 300u);
  for (int32_t a : result->assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 6);
  }
}

TEST(KmeansBasicTest, PimReducesExactComputations) {
  const FloatMatrix data = ClusteredData(500, 64, 5);
  KmeansOptions options;
  options.k = 32;
  options.max_iterations = 5;

  LloydKmeans lloyd;
  auto base = lloyd.Run(data, options);
  ASSERT_TRUE(base.ok());

  options.use_pim = true;
  auto pim = lloyd.Run(data, options);
  ASSERT_TRUE(pim.ok());
  EXPECT_LT(pim->stats.exact_count, base->stats.exact_count / 2);
  EXPECT_LT(pim->stats.traffic.bytes_from_memory,
            base->stats.traffic.bytes_from_memory / 2);
  EXPECT_GT(pim->stats.pim_ns, 0.0);
}

TEST(KmeansBoundAlgorithmsTest, ComputeFewerDistancesThanLloyd) {
  const FloatMatrix data = ClusteredData(600, 32, 9);
  KmeansOptions options;
  options.k = 24;
  options.max_iterations = 8;

  LloydKmeans lloyd;
  auto base = lloyd.Run(data, options);
  ASSERT_TRUE(base.ok());

  ElkanKmeans elkan;
  auto accel = elkan.Run(data, options);
  ASSERT_TRUE(accel.ok());
  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count);

  YinyangKmeans yinyang;
  auto yy = yinyang.Run(data, options);
  ASSERT_TRUE(yy.ok());
  EXPECT_LT(yy->stats.exact_count, base->stats.exact_count);
}

TEST(KmeansValidationTest, RejectsBadInput) {
  const FloatMatrix data = ClusteredData(20, 8, 1);
  LloydKmeans lloyd;
  KmeansOptions options;
  options.k = 0;
  EXPECT_FALSE(lloyd.Run(data, options).ok());
  options.k = 21;
  EXPECT_FALSE(lloyd.Run(data, options).ok());
  options.k = 4;
  options.max_iterations = 0;
  EXPECT_FALSE(lloyd.Run(data, options).ok());
  options.max_iterations = 5;
  EXPECT_FALSE(lloyd.Run(FloatMatrix(), options).ok());
}

// LowerBound indexes a shared filter's live-row map by point, so a filter
// over more or fewer rows than `data` must be rejected up front, not read
// out of range.
TEST(KmeansValidationTest, RejectsSharedFilterOverOtherRows) {
  const FloatMatrix data = ClusteredData(200, 16, 4);
  for (const size_t filter_rows : {100u, 300u}) {
    auto filter = PimAssignFilter::Build(ClusteredData(filter_rows, 16, 4),
                                         EngineOptions());
    ASSERT_TRUE(filter.ok()) << filter.status().ToString();
    KmeansOptions options;
    options.k = 4;
    options.max_iterations = 2;
    options.use_pim = true;
    options.filter = filter->get();
    for (const auto& algorithm : AllAlgorithms()) {
      const auto result = algorithm->Run(data, options);
      ASSERT_FALSE(result.ok()) << algorithm->name() << " " << filter_rows;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << algorithm->name() << " " << filter_rows;
    }
  }
}

void ExpectSameDeviceFigures(const RunStats& got, const RunStats& want,
                             const std::string& label) {
  EXPECT_EQ(got.pim_ns, want.pim_ns) << label;
  EXPECT_GT(got.pim_ns, 0.0) << label;
  const FaultStats& gf = got.fault;
  const FaultStats& wf = want.fault;
  EXPECT_EQ(gf.injected, wf.injected) << label;
  EXPECT_EQ(gf.detected, wf.detected) << label;
  EXPECT_EQ(gf.escaped, wf.escaped) << label;
  EXPECT_EQ(gf.checksum_checks, wf.checksum_checks) << label;
  EXPECT_EQ(gf.groups_flagged, wf.groups_flagged) << label;
  EXPECT_EQ(gf.retries, wf.retries) << label;
  EXPECT_EQ(gf.remapped_rows, wf.remapped_rows) << label;
  EXPECT_EQ(gf.escalated_to_host, wf.escalated_to_host) << label;
  EXPECT_EQ(gf.recovery_ns, wf.recovery_ns) << label;
  const FleetRunStats& g = got.fleet;
  const FleetRunStats& w = want.fleet;
  EXPECT_EQ(g.scatter_messages, w.scatter_messages) << label;
  EXPECT_EQ(g.scatter_bytes, w.scatter_bytes) << label;
  EXPECT_EQ(g.gather_messages, w.gather_messages) << label;
  EXPECT_EQ(g.gather_bytes, w.gather_bytes) << label;
  EXPECT_EQ(g.reduce_messages, w.reduce_messages) << label;
  EXPECT_EQ(g.reduce_bytes, w.reduce_bytes) << label;
  EXPECT_GT(g.scatter_messages, 0u) << label;
  EXPECT_GT(g.reduce_messages, 0u) << label;
}

// Every Run opens on a RunScope that resets its filter's fleet, so runs
// over one shared 2-shard filter, with no reset between them, each report
// only their own device time, fault accounting and interconnect traffic:
// the figures of a run over a run-owned filter.
TEST(KmeansSharedFilterTest, EachRunReportsOnlyItsOwnFleetFigures) {
  const FloatMatrix data = ClusteredData(300, 16, 6);
  KmeansOptions options;
  options.k = 8;
  options.max_iterations = 3;
  options.use_pim = true;
  options.engine_options.shard.shards = 2;
  auto filter = PimAssignFilter::Build(data, options.engine_options);
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  for (const auto& algorithm : AllAlgorithms()) {
    const std::string name(algorithm->name());
    options.filter = nullptr;
    const auto owned = algorithm->Run(data, options);
    ASSERT_TRUE(owned.ok()) << name;
    options.filter = filter->get();
    const auto first = algorithm->Run(data, options);
    const auto second = algorithm->Run(data, options);
    ASSERT_TRUE(first.ok() && second.ok()) << name;
    ExpectSameDeviceFigures(first->stats, owned->stats, name + " first");
    ExpectSameDeviceFigures(second->stats, owned->stats, name + " second");
  }
}

// Yinyang's first pass counts every point as reassigned, as Elkan's,
// Hamerly's and Drake's do.
TEST(KmeansObsTest, YinyangFirstPassCountsEveryPoint) {
  const FloatMatrix data = ClusteredData(300, 16, 5);
  for (const bool use_pim : {false, true}) {
    KmeansOptions options;
    options.k = 8;
    options.max_iterations = 1;
    options.use_pim = use_pim;
    obs::Obs::Enable();
    YinyangKmeans yinyang;
    EXPECT_TRUE(yinyang.Run(data, options).ok()) << use_pim;
    EXPECT_EQ(obs::Obs::Get()
                  ->metrics()
                  .GetCounter("pimine_kmeans_reassignments_total")
                  .Value(),
              data.rows())
        << use_pim;
    obs::Obs::Disable();
  }
}

TEST(KmeansDeterminismTest, SameSeedSameResult) {
  const FloatMatrix data = ClusteredData(200, 12, 8);
  KmeansOptions options;
  options.k = 8;
  options.max_iterations = 4;
  options.seed = 99;
  ElkanKmeans elkan;
  auto a = elkan.Run(data, options);
  auto b = elkan.Run(data, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(KmeansInitTest, DistinctCentersAndDeterminism) {
  const FloatMatrix data = ClusteredData(50, 8, 2);
  const FloatMatrix c1 = InitCenters(data, 10, 5);
  const FloatMatrix c2 = InitCenters(data, 10, 5);
  ASSERT_EQ(c1.rows(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(c1(i, j), c2(i, j));
    }
    for (size_t i2 = i + 1; i2 < 10; ++i2) {
      bool identical = true;
      for (size_t j = 0; j < 8; ++j) {
        if (c1(i, j) != c1(i2, j)) identical = false;
      }
      EXPECT_FALSE(identical) << "duplicate initial centers " << i << ","
                              << i2;
    }
  }
}

TEST(KmeansUpdateTest, EmptyClusterKeepsCenter) {
  FloatMatrix data(4, 2);
  data(0, 0) = 0.0f;
  data(1, 0) = 0.2f;
  data(2, 0) = 0.8f;
  data(3, 0) = 1.0f;
  FloatMatrix centers(3, 2);
  centers(2, 0) = 0.5f;
  centers(2, 1) = 0.5f;
  // Nobody assigned to cluster 2.
  const std::vector<int32_t> assignments = {0, 0, 1, 1};
  std::vector<double> moved;
  const FloatMatrix updated = UpdateCenters(data, assignments, centers,
                                            &moved);
  EXPECT_FLOAT_EQ(updated(2, 0), 0.5f);
  EXPECT_FLOAT_EQ(updated(2, 1), 0.5f);
  EXPECT_DOUBLE_EQ(moved[2], 0.0);
  EXPECT_FLOAT_EQ(updated(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(updated(1, 0), 0.9f);
}

/// Whether two vectors hold the same bit patterns (-0 differs from +0).
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// One CenterSums driven through 20 rounds of reassignment re-sums only the
// points that moved; after every round its centers, movement and traffic
// charges must be those of a fresh UpdateCenters. The rounds move points
// back to centers they left, empty clusters and refill them, and leave
// every point in place once; the data mixes magnitudes from 1e-42 to 1e20
// with negative coordinates, subnormals and both zeros, where a floating
// running sum would drift after its first subtraction.
TEST(CenterSumsTest, KeptSumsMatchFreshSumsAfterEveryRound) {
  constexpr size_t kN = 64;
  constexpr size_t kD = 7;
  constexpr size_t kK = 6;
  const float specials[] = {0.0f, -0.0f, 1e-42f, -3e-40f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::min(), -1e20f, 7e19f};
  Rng rng(11);
  FloatMatrix data(kN, kD);
  for (size_t i = 0; i < kN; ++i) {
    for (size_t j = 0; j < kD; ++j) {
      const float v = rng.NextFloat() * 2.0f - 1.0f;
      data(i, j) = (i + j) % 3 == 0
                       ? specials[(i * kD + j) % std::size(specials)]
                       : std::ldexp(v, static_cast<int>(rng.NextBounded(40)) -
                                           20);
    }
  }

  std::vector<int32_t> assignments(kN);
  for (size_t i = 0; i < kN; ++i) {
    assignments[i] = static_cast<int32_t>(i % kK);
  }
  std::vector<std::vector<int32_t>> history;
  CenterSums kept(kK, kD, kN);
  FloatMatrix kept_centers = InitCenters(data, static_cast<int>(kK), 3);
  FloatMatrix fresh_centers = kept_centers;
  size_t emptied_rounds = 0;
  for (int round = 0; round < 20; ++round) {
    const int32_t target = static_cast<int32_t>(round / 5 % kK);
    switch (round % 5) {
      case 1:  // a quarter of the points move to random centers.
        for (int32_t& a : assignments) {
          if (rng.NextBounded(4) == 0) {
            a = static_cast<int32_t>(rng.NextBounded(kK));
          }
        }
        break;
      case 2:  // back to the assignment of two rounds ago.
        assignments = history[history.size() - 2];
        break;
      case 3:  // cluster `target` empties into its neighbour.
        for (int32_t& a : assignments) {
          if (a == target) a = static_cast<int32_t>((target + 1) % kK);
        }
        break;
      case 4:  // and refills from every other cluster.
        for (size_t i = 0; i < kN; i += 3) assignments[i] = target;
        break;
      default:  // round 0 sums every point; later rounds move none.
        break;
    }
    history.push_back(assignments);
    bool empty_cluster = false;
    for (size_t c = 0; c < kK; ++c) {
      empty_cluster |= std::count(assignments.begin(), assignments.end(),
                                  static_cast<int32_t>(c)) == 0;
    }
    emptied_rounds += empty_cluster ? 1 : 0;

    std::vector<double> kept_moved;
    std::vector<double> fresh_moved;
    const traffic::AggregateScope kept_scope;
    kept_centers = kept.Update(data, assignments, kept_centers, &kept_moved);
    const TrafficCounters kept_traffic = kept_scope.Delta().traffic;
    const traffic::AggregateScope fresh_scope;
    fresh_centers =
        UpdateCenters(data, assignments, fresh_centers, &fresh_moved);
    const TrafficCounters fresh_traffic = fresh_scope.Delta().traffic;
    EXPECT_TRUE(SameBits(kept_centers.values(), fresh_centers.values()))
        << "round " << round;
    EXPECT_TRUE(SameBits(kept_moved, fresh_moved)) << "round " << round;
    EXPECT_EQ(kept_traffic, fresh_traffic) << "round " << round;
  }
  EXPECT_GT(emptied_rounds, 0u);
}

// A run keeps one CenterSums across its iterations, so the centers it
// returns must be the from-scratch means of its final assignments, bit for
// bit (an empty cluster keeps its center either way): every algorithm,
// host and PIM, at 1 and 4 shards and over a shared filter, stopped after
// 1 to 6 iterations.
TEST(KmeansUpdateTest, RunCentersAreFreshMeansOfFinalAssignments) {
  const FloatMatrix data = ClusteredData(300, 16, 21);
  EngineOptions four_shards;
  four_shards.shard.shards = 4;
  auto shared = PimAssignFilter::Build(data, four_shards);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  struct Config {
    const char* label;
    bool use_pim;
    int shards;
    PimAssignFilter* filter;
  };
  const Config configs[] = {{"host", false, 1, nullptr},
                            {"pim 1 shard", true, 1, nullptr},
                            {"pim 4 shards", true, 4, nullptr},
                            {"pim shared filter", true, 4, shared->get()}};
  for (const Config& config : configs) {
    for (const auto& algorithm : AllAlgorithms()) {
      for (int iterations = 1; iterations <= 6; ++iterations) {
        KmeansOptions options;
        options.k = 12;
        options.max_iterations = iterations;
        options.seed = 5;
        options.use_pim = config.use_pim;
        options.engine_options.shard.shards = config.shards;
        options.filter = config.filter;
        const std::string label = std::string(algorithm->name()) + " " +
                                  config.label + " " +
                                  std::to_string(iterations);
        const auto r = algorithm->Run(data, options);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
        const FloatMatrix fresh =
            UpdateCenters(data, r->assignments, r->centers, nullptr);
        EXPECT_TRUE(SameBits(fresh.values(), r->centers.values())) << label;
      }
    }
  }
}

}  // namespace
}  // namespace pimine
