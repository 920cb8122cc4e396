#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/simhash.h"
#include "knn/filter_refine.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/hamming_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "sim/traffic.h"
#include "util/random.h"
#include "knn_cases.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

// Clustered data makes bounds meaningful; shared across tests.
struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w;
  w.data = DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 6, seed + 1);
  return w;
}

void ExpectSameNeighbors(const KnnRunResult& expected,
                         const KnnRunResult& actual,
                         const std::string& label) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << label;
  for (size_t q = 0; q < expected.neighbors.size(); ++q) {
    ASSERT_EQ(expected.neighbors[q].size(), actual.neighbors[q].size())
        << label << " query " << q;
    for (size_t j = 0; j < expected.neighbors[q].size(); ++j) {
      EXPECT_EQ(expected.neighbors[q][j].id, actual.neighbors[q][j].id)
          << label << " query " << q << " rank " << j;
      EXPECT_NEAR(expected.neighbors[q][j].distance,
                  actual.neighbors[q][j].distance, 1e-9)
          << label << " query " << q << " rank " << j;
    }
  }
}

// The paper's headline accuracy claim: every algorithm — baseline or
// PIM-optimized — returns exactly the linear scan's results.
TEST(KnnEquivalenceTest, AllEuclideanAlgorithmsMatchStandard) {
  const Workload w = MakeWorkload(500, 64, 42);
  const int k = 10;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  std::vector<std::unique_ptr<KnnAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<SmKnn>());
  algorithms.push_back(std::make_unique<OstKnn>());
  algorithms.push_back(std::make_unique<FnnKnn>());
  algorithms.push_back(std::make_unique<StandardPimKnn>(
      Distance::kEuclidean, EngineOptions()));
  algorithms.push_back(std::make_unique<SmPimKnn>(EngineOptions()));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/false));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/true));

  for (auto& algorithm : algorithms) {
    ASSERT_TRUE(algorithm->Prepare(w.data).ok())
        << algorithm->name();
    auto result = algorithm->Search(w.queries, k);
    ASSERT_TRUE(result.ok()) << algorithm->name() << ": "
                             << result.status().ToString();
    ExpectSameNeighbors(*golden, *result, std::string(algorithm->name()));
  }
}

struct KCase {
  int k;
};
class KnnKSweepTest : public ::testing::TestWithParam<KCase> {};

TEST_P(KnnKSweepTest, PimMatchesStandardAcrossK) {
  const Workload w = MakeWorkload(300, 40, 7);
  const int k = GetParam().k;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, k);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "k=" + std::to_string(k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnnKSweepTest,
                         ::testing::Values(KCase{1}, KCase{2}, KCase{10},
                                           KCase{50}, KCase{100},
                                           KCase{300}));

class KnnSimilarityMeasureTest : public ::testing::TestWithParam<Distance> {};

TEST_P(KnnSimilarityMeasureTest, PimMatchesStandard) {
  const Distance distance = GetParam();
  const Workload w = MakeWorkload(250, 32, 11);

  StandardKnn standard(distance);
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, 10);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(distance, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, std::string(DistanceName(distance)));
}

INSTANTIATE_TEST_SUITE_P(Measures, KnnSimilarityMeasureTest,
                         ::testing::Values(Distance::kEuclidean,
                                           Distance::kCosine,
                                           Distance::kPearson));

TEST(KnnPruningTest, BoundAlgorithmsComputeFewerExactDistances) {
  const Workload w = MakeWorkload(2000, 128, 21);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto base = standard.Search(w.queries, 10);
  ASSERT_TRUE(base.ok());

  FnnKnn fnn;
  ASSERT_TRUE(fnn.Prepare(w.data).ok());
  auto accel = fnn.Search(w.queries, 10);
  ASSERT_TRUE(accel.ok());
  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count / 2)
      << "FNN should prune most exact computations on clustered data";

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto pim_result = pim.Search(w.queries, 10);
  ASSERT_TRUE(pim_result.ok());
  EXPECT_LT(pim_result->stats.exact_count, base->stats.exact_count / 2);
  // The PIM variant moves drastically fewer bytes from memory.
  EXPECT_LT(pim_result->stats.traffic.bytes_from_memory,
            base->stats.traffic.bytes_from_memory / 4);
  EXPECT_GT(pim_result->stats.pim_ns, 0.0);
}

// FilterRefine must visit exactly the prefix of ArgsortAscending's order
// that a walk over the full sort visits, refining one candidate at a time:
// the prune step, then the exact measure at the current threshold. So the
// prune calls come in the same order with the same top-k state, and the
// values (to the bit), the exact count and the modeled traffic are the
// same, also where an ED walk without a prune step refines windows of
// candidates in SIMD lanes and replays them. FilterRefine charges all of
// them, and time to the order function and the measure, to the calling
// thread's ledger.
template <typename Prune>
std::vector<Neighbor> FullSortWalk(std::span<const double> bounds, int k,
                                   const ExactMeasure& exact,
                                   uint64_t* exact_count, const Prune* prune) {
  const std::vector<uint32_t> order = ArgsortAscending(bounds);
  TopK topk(static_cast<size_t>(k));
  for (const uint32_t idx : order) {
    if (topk.full() && bounds[idx] >= topk.threshold()) break;
    if (prune != nullptr && (*prune)(idx, std::as_const(topk))) continue;
    const std::span<const float> row = exact.data.row(idx);
    double value = 0.0;
    switch (exact.distance) {
      case Distance::kEuclidean:
        value = SquaredEuclideanEarlyAbandon(row, exact.query,
                                             topk.threshold());
        break;
      case Distance::kCosine:
        value = -CosineSimilarity(row, exact.query);
        break;
      case Distance::kPearson:
        value = -PearsonCorrelation(row, exact.query);
        break;
    }
    topk.Push(value, static_cast<int32_t>(idx));
    ++*exact_count;
  }
  return IsSimilarityMeasure(exact.distance)
             ? FinalizeSimilarityNeighbors(topk)
             : topk.TakeSorted();
}

enum class BoundPattern { kDistinct, kTies, kSignedZeros, kTombstones,
                          kAllEqual, kAllTombstones, kInfinities };

std::vector<double> MakeBounds(BoundPattern pattern, size_t n, Rng& rng) {
  std::vector<double> bounds(n);
  for (size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case BoundPattern::kDistinct:  // Half-steps, so exact values hit them.
        bounds[i] = 0.5 * static_cast<double>(i);
        break;
      case BoundPattern::kTies:
        bounds[i] = static_cast<double>(rng.NextBounded(4));
        break;
      case BoundPattern::kSignedZeros:
        bounds[i] = rng.NextBool(0.2) ? 1.0 : (rng.NextBool() ? -0.0 : 0.0);
        break;
      case BoundPattern::kTombstones:
        bounds[i] = rng.NextBool(0.3) ? HUGE_VAL : rng.NextUniform(0.0, 8.0);
        break;
      case BoundPattern::kAllEqual:
        bounds[i] = 2.0;
        break;
      case BoundPattern::kAllTombstones:
        bounds[i] = HUGE_VAL;
        break;
      case BoundPattern::kInfinities:  // A phase 2 range can start at -inf.
        bounds[i] = rng.NextBool(0.1)   ? -HUGE_VAL
                    : rng.NextBool(0.2) ? HUGE_VAL
                                        : rng.NextUniform(-4.0, 4.0);
        break;
    }
  }
  if (pattern == BoundPattern::kDistinct) {
    for (size_t i = n; i > 1; --i) {
      std::swap(bounds[i - 1], bounds[rng.NextBounded(i)]);
    }
  }
  return bounds;
}

// Rows whose squared ED from `query` is exact in double and ties often:
// row i is the query plus delta_i = +-m_i / 4 (m_i in 1..4) on dimensions
// [b_i, e_i), so its partial sum grows by delta_i^2 per dimension there and
// passes a threshold at any checkpoint. Every fifth row repeats an earlier
// one.
FloatMatrix OffsetRows(size_t n, std::span<const float> query, Rng& rng) {
  const size_t d = query.size();
  FloatMatrix rows(n, d);
  for (size_t i = 0; i < n; ++i) {
    const auto row = rows.mutable_row(i);
    if (i % 5 == 4) {
      const auto copy = rows.row(rng.NextBounded(i));
      std::copy(copy.begin(), copy.end(), row.begin());
      continue;
    }
    const float delta = static_cast<float>(1 + rng.NextBounded(4)) / 4 *
                        (rng.NextBool() ? 1.0f : -1.0f);
    const size_t begin = rng.NextBounded(d);
    const size_t end = begin + 1 + rng.NextBounded(d - begin);
    for (size_t j = 0; j < d; ++j) {
      row[j] = query[j] + (begin <= j && j < end ? delta : 0.0f);
    }
  }
  return rows;
}

// The checkpoint at which SquaredEuclideanEarlyAbandon(row, query,
// threshold) stops.
size_t StopCheckpoint(std::span<const float> row, std::span<const float> query,
                      double threshold) {
  const size_t count = EdCheckpoints(query.size());
  for (size_t c = 0; c + 1 < count; ++c) {
    const size_t dims = (c + 1) * kEdCheckStride;
    if (SquaredEuclidean(row.first(dims), query.first(dims)) > threshold) {
      return c;
    }
  }
  return count - 1;
}

std::vector<std::pair<uint64_t, int32_t>> Bits(
    const std::vector<Neighbor>& neighbors) {
  std::vector<std::pair<uint64_t, int32_t>> bits;
  for (const Neighbor& nb : neighbors) {
    bits.emplace_back(std::bit_cast<uint64_t>(nb.distance), nb.id);
  }
  return bits;
}

// How the refine step prunes: not at all (an ED walk then runs windows),
// some candidates by a finer bound once the top-k is full (FNN's cascade),
// some candidates unconditionally, which can leave the top-k short after
// the first k candidates, or only the candidate with the smallest (bound,
// index) pair (ORCA's own row), which leaves it one short and so takes
// exactly one refill round.
enum class Pruning { kNone, kWhenFull, kAlways, kSmallest };

struct PruneCall {
  uint32_t idx;
  double threshold;
  size_t held;
  friend bool operator==(const PruneCall&, const PruneCall&) = default;
};

struct PatternCase {
  BoundPattern pattern;
  const char* name;
};
class FilterRefineOrderTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(FilterRefineOrderTest, VisitsTheFullSortPrefix) {
  // Early abandons of the windowed walks, by checkpoint: d = 131 has three,
  // and a stop at the last one reads every dimension.
  std::vector<size_t> abandons(EdCheckpoints(131) - 1);
  for (const size_t d : {size_t{3}, size_t{131}}) {
    // 15, 16, 31 and 33 put the edges of the 16-bound order blocks inside
    // runs of ties, signed zeros and +inf.
    for (const size_t n :
         {size_t{1}, size_t{2}, size_t{5}, size_t{15}, size_t{16}, size_t{17},
          size_t{31}, size_t{33}, size_t{1000}}) {
      const BoundPattern pattern = GetParam().pattern;
      Rng rng(n * 7919 + d * 31 + static_cast<uint64_t>(pattern));
      const std::vector<double> bounds = MakeBounds(pattern, n, rng);
      const auto smallest = static_cast<uint32_t>(
          std::min_element(bounds.begin(), bounds.end()) - bounds.begin());
      std::vector<float> query(d);
      for (size_t j = 0; j < d; ++j) query[j] = j % 3 == 0 ? 0.25f : 0.75f;
      const FloatMatrix rows = OffsetRows(n, query, rng);
      std::vector<uint8_t> coarse(n);  // candidates a cascade may prune.
      for (size_t i = 0; i < n; ++i) coarse[i] = rng.NextBool(0.6) ? 1 : 0;
      for (const size_t k : {size_t{1}, size_t{3}, n / 2, n - 1, n}) {
        if (k == 0) continue;
        for (const Pruning pruning : {Pruning::kNone, Pruning::kWhenFull,
                                      Pruning::kAlways, Pruning::kSmallest}) {
          for (const Distance distance :
               {Distance::kEuclidean, Distance::kCosine, Distance::kPearson}) {
            SCOPED_TRACE(
                "d=" + std::to_string(d) + " n=" + std::to_string(n) +
                " k=" + std::to_string(k) + " pruning=" +
                std::to_string(static_cast<int>(pruning)) + " " +
                std::string(DistanceName(distance)));
            const ExactMeasure exact{distance, rows, query};
            const auto recorder = [&](std::vector<PruneCall>* calls) {
              return [&, calls](uint32_t idx, const TopK& topk) {
                calls->push_back({idx, topk.threshold(), topk.size()});
                return (pruning == Pruning::kWhenFull && topk.full() &&
                        coarse[idx] != 0) ||
                       (pruning == Pruning::kAlways && idx % 4 == 1) ||
                       (pruning == Pruning::kSmallest && idx == smallest);
              };
            };
            std::vector<PruneCall> want_calls;
            const auto want_prune = recorder(&want_calls);
            uint64_t want_exact = 0;
            traffic::AggregateScope want_scope;
            const std::vector<Neighbor> want = FullSortWalk(
                bounds, static_cast<int>(k), exact, &want_exact,
                pruning == Pruning::kNone ? nullptr : &want_prune);
            const TrafficCounters want_traffic = want_scope.Delta().traffic;

            std::vector<PruneCall> got_calls;
            const auto got_prune = recorder(&got_calls);
            traffic::AggregateScope got_scope;
            const std::vector<Neighbor> got = FilterRefine(
                bounds, static_cast<int>(k), exact, Fn::kLbSm,
                pruning == Pruning::kNone ? nullptr : &got_prune);
            const RunLedger got_ledger = got_scope.Delta();

            EXPECT_EQ(got_calls, want_calls);
            EXPECT_EQ(Bits(got), Bits(want));
            EXPECT_EQ(got_ledger.exact_count, want_exact);
            EXPECT_EQ(got_ledger.bound_count, 0u);
            EXPECT_EQ(got_ledger.traffic, want_traffic)
                << got_ledger.traffic.ToString() << " vs "
                << want_traffic.ToString();
            std::vector<std::string> want_fns;
            if (want_exact > 0) want_fns.emplace_back(DistanceName(distance));
            want_fns.emplace_back("LB_SM");
            EXPECT_EQ(testing_util::Charged(got_ledger.profile), want_fns);

            if (d == 131 && distance == Distance::kEuclidean &&
                pruning == Pruning::kNone) {
              // Replays the reference walk's thresholds to see where each
              // refined candidate stopped.
              TopK topk(k);
              for (const uint32_t idx : ArgsortAscending(bounds)) {
                if (topk.full() && bounds[idx] >= topk.threshold()) break;
                const double value = SquaredEuclidean(rows.row(idx), query);
                const size_t stop =
                    StopCheckpoint(rows.row(idx), query, topk.threshold());
                if (stop < abandons.size()) ++abandons[stop];
                topk.Push(value, static_cast<int32_t>(idx));
              }
            }
          }
        }
      }
    }
  }
  if (GetParam().pattern != BoundPattern::kAllTombstones) {
    for (size_t c = 0; c < abandons.size(); ++c) {
      EXPECT_GT(abandons[c], 0u) << "no abandon at checkpoint " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FilterRefineOrderTest,
    ::testing::Values(PatternCase{BoundPattern::kDistinct, "Distinct"},
                      PatternCase{BoundPattern::kTies, "Ties"},
                      PatternCase{BoundPattern::kSignedZeros, "SignedZeros"},
                      PatternCase{BoundPattern::kTombstones, "Tombstones"},
                      PatternCase{BoundPattern::kAllEqual, "AllEqual"},
                      PatternCase{BoundPattern::kAllTombstones,
                                  "AllTombstones"},
                      PatternCase{BoundPattern::kInfinities, "Infinities"}),
    [](const testing::TestParamInfo<PatternCase>& param) {
      return std::string(param.param.name);
    });

// The shared kNN driver's contract, on every path: Search before Prepare
// (or after a failed one) is a FailedPrecondition; a k outside [1, n], a
// query of the wrong width and device_batch = 0 are InvalidArgument.
TEST(KnnErrorTest, InvalidUsage) {
  const Workload w = MakeWorkload(50, 16, 31);
  const FloatMatrix wrong = RandomUnitMatrix(2, 8, 1);
  for (const testing_util::KnnCase& c : testing_util::AllKnnCases()) {
    auto algorithm = c.make();
    EXPECT_EQ(algorithm->Search(w.queries, 5).status().code(),
              StatusCode::kFailedPrecondition)
        << c.label;
    ASSERT_TRUE(algorithm->Prepare(w.data).ok()) << c.label;
    EXPECT_EQ(algorithm->Search(w.queries, 0).status().code(),
              StatusCode::kInvalidArgument)
        << c.label;
    EXPECT_EQ(algorithm->Search(w.queries, 51).status().code(),
              StatusCode::kInvalidArgument)
        << c.label;
    EXPECT_EQ(algorithm->Search(wrong, 5).status().code(),
              StatusCode::kInvalidArgument)
        << c.label;
    ExecPolicy policy;
    policy.device_batch = 0;
    algorithm->set_exec_policy(policy);
    EXPECT_EQ(algorithm->Search(w.queries, 5).status().code(),
              StatusCode::kInvalidArgument)
        << c.label;
    // Empty dataset.
    EXPECT_FALSE(algorithm->Prepare(FloatMatrix()).ok()) << c.label;
  }

  // A PIM path whose fleet does not fit has not been Prepared: Search
  // reports that instead of reading a missing fleet.
  const Workload wide = MakeWorkload(200, 64, 33);
  EngineOptions options;
  options.pim_config.num_crossbars = 1;  // too small for CS at full width.
  StandardPimKnn pim(Distance::kCosine, options);
  EXPECT_EQ(pim.Prepare(wide.data).code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(pim.Search(wide.queries, 5).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(KnnPlanTest, OptimizedPlanPrefersPimBound) {
  const Workload w = MakeWorkload(800, 256, 41);
  FnnPimKnn optimized(EngineOptions(), /*optimize=*/true);
  ASSERT_TRUE(optimized.Prepare(w.data).ok());
  // The PIM bound costs 3*b bits vs hundreds for original levels; with its
  // high measured pruning ratio the plan must select it.
  ASSERT_FALSE(optimized.plan().selected.empty());
  EXPECT_EQ(optimized.plan().selected[0], 0u);
  EXPECT_TRUE(optimized.candidates()[0].is_pim);
  EXPECT_GT(optimized.candidates()[0].pruning_ratio, 0.5);
}

TEST(HammingKnnTest, PimMatchesScan) {
  const FloatMatrix raw = RandomUnitMatrix(400, 64, 3);
  const SimHashEncoder encoder(64, 256, 5);
  const BitMatrix codes = encoder.Encode(raw);
  const FloatMatrix raw_queries = RandomUnitMatrix(5, 64, 4);
  const BitMatrix query_codes = encoder.Encode(raw_queries);

  HammingScanKnn scan;
  ASSERT_TRUE(scan.Prepare(codes).ok());
  auto golden = scan.Search(query_codes, 10);
  ASSERT_TRUE(golden.ok());

  HammingPimKnn pim;
  ASSERT_TRUE(pim.Prepare(codes).ok());
  auto result = pim.Search(query_codes, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "hamming");
  EXPECT_GT(result->stats.pim_ns, 0.0);
}

TEST(HammingKnnTest, Validation) {
  HammingScanKnn scan;
  EXPECT_FALSE(scan.Prepare(BitMatrix()).ok());
  BitMatrix codes(10, 64);
  ASSERT_TRUE(scan.Prepare(codes).ok());
  BitMatrix wrong(1, 128);
  EXPECT_FALSE(scan.Search(wrong, 3).ok());
  EXPECT_FALSE(scan.Search(codes, 11).ok());
}

}  // namespace
}  // namespace pimine
