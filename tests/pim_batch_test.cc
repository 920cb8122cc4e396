// Batched multi-query device operations (DotProductBatch / RunQueryBatch)
// must be a pure batching of the per-query path: bit-identical results and
// bounds, identical serial-equivalent modeled stats for every batch size,
// and a pipelined batch latency that follows the analytic
// stage_ns * (stages + Q - 1) formula with Q = 1 reducing to Table 5.
// Every GEMM tier the host supports must equal a plain triple loop, and a
// few distances and span bounds are pinned bit for bit so that a build
// with other floating-point contraction cannot pass unnoticed.

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "data/matrix.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "knn/standard_pim_knn.h"
#include "pim/crossbar.h"
#include "pim/crossbar_math.h"
#include "pim/dot_gemm.h"
#include "pim/pim_device.h"
#include "pim/timing.h"
#include "test_helpers.h"
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

std::vector<int32_t> RandomQueries(size_t count, size_t dims, uint32_t limit,
                                   uint64_t seed) {
  std::vector<int32_t> q(count * dims);
  Rng rng(seed);
  for (int32_t& v : q) v = static_cast<int32_t>(rng.NextBounded(limit));
  return q;
}

TEST(PimBatchTest, BatchMatchesSingleQueriesBitForBit) {
  // Sizes chosen to exercise every GEMM tile width (8/4/2/1 cascade) and a
  // partial trailing object block.
  const size_t n = 97, s = 33;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 11);
  for (size_t num_queries : {size_t{1}, size_t{2}, size_t{7}, size_t{16},
                             size_t{23}}) {
    PimDevice batched, single;
    ASSERT_TRUE(batched.ProgramDataset(data).ok());
    ASSERT_TRUE(single.ProgramDataset(data).ok());
    const std::vector<int32_t> queries =
        RandomQueries(num_queries, s, 1 << 20, 100 + num_queries);

    std::vector<uint64_t> batch_out;
    ASSERT_TRUE(
        batched.DotProductBatch(queries, num_queries, &batch_out).ok());
    ASSERT_EQ(batch_out.size(), num_queries * n);

    std::vector<uint64_t> out;
    for (size_t q = 0; q < num_queries; ++q) {
      ASSERT_TRUE(single
                      .DotProductBatch(std::span<const int32_t>(queries)
                                           .subspan(q * s, s),
                                       1, &out)
                      .ok());
      for (size_t v = 0; v < n; ++v) {
        ASSERT_EQ(batch_out[q * n + v], out[v])
            << "Q=" << num_queries << " q=" << q << " v=" << v;
      }
    }
  }
}

TEST(PimBatchTest, BatchWrapsAroundLikeSingleQueries) {
  // 32 * 2^60 = 2^65: every query in the batch must observe the same
  // least-significant-64-bit truncation as the per-query path (== 0).
  PimConfig config;
  PimDevice device(config);
  IntMatrix data(1, 32);
  for (int32_t& v : data.mutable_row(0)) v = (1 << 30);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const std::vector<int32_t> queries(3 * 32, 1 << 30);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, 3, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
}

TEST(PimBatchTest, BatchMatchesCycleLevelCrossbar) {
  // Ground truth from the cycle-level crossbar pipeline: program the same
  // vectors into one crossbar and stream each query of the batch through it.
  const size_t n = 5, s = 16;
  const int operand_bits = 8;
  const IntMatrix data = RandomIntMatrix(n, s, 1u << operand_bits, 21);

  Crossbar xbar(256, 2);
  std::vector<uint32_t> operands(s);
  for (size_t c = 0; c < n; ++c) {
    for (size_t j = 0; j < s; ++j) {
      operands[j] = static_cast<uint32_t>(data(c, j));
    }
    ASSERT_TRUE(
        xbar.ProgramVector(static_cast<int>(c), operands, operand_bits).ok());
  }

  PimDevice device;
  ASSERT_TRUE(device.ProgramDataset(data, operand_bits).ok());
  const size_t num_queries = 4;
  const std::vector<int32_t> queries =
      RandomQueries(num_queries, s, 1u << operand_bits, 22);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());

  std::vector<uint32_t> input(s);
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t j = 0; j < s; ++j) {
      input[j] = static_cast<uint32_t>(queries[q * s + j]);
    }
    auto result = xbar.DotProduct(input, operand_bits, operand_bits, 2);
    ASSERT_TRUE(result.ok());
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(out[q * n + c], result->values[c])
          << "q=" << q << " object=" << c;
    }
  }
}

TEST(PimBatchTest, ModeledStatsInvariantAcrossBatchSizes) {
  // s > crossbar_dim so the gather tree is non-trivial (stages > 1) and
  // pipelining actually helps.
  const size_t n = 12, s = 300;
  const size_t total = 21;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 31);
  const std::vector<int32_t> queries = RandomQueries(total, s, 1 << 20, 32);

  std::vector<PimDeviceStats> stats;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{21}}) {
    PimDevice device;
    ASSERT_TRUE(device.ProgramDataset(data).ok());
    std::vector<uint64_t> out;
    for (size_t q0 = 0; q0 < total; q0 += batch) {
      ASSERT_TRUE(device
                      .DotProductBatch(std::span<const int32_t>(queries)
                                           .subspan(q0 * s, batch * s),
                                       batch, &out)
                      .ok());
    }
    EXPECT_EQ(device.stats().batch_ops, total / batch);
    EXPECT_EQ(device.stats().queries_per_batch.at(
                  static_cast<int64_t>(batch)),
              total / batch);
    stats.push_back(device.stats());
  }

  // Everything except batch_ops / queries_per_batch / pipelined_ns must be
  // exactly equal across batch sizes (charged per query by construction).
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[0].queries_processed, stats[i].queries_processed);
    EXPECT_EQ(stats[0].compute_ns, stats[i].compute_ns);
    EXPECT_EQ(stats[0].compute_energy_pj, stats[i].compute_energy_pj);
    EXPECT_EQ(stats[0].results_produced, stats[i].results_produced);
    EXPECT_EQ(stats[0].result_bytes_to_host, stats[i].result_bytes_to_host);
  }

  // Pipelined latency follows stage_ns * (stages + Q - 1) analytically, and
  // the all-singles device has pipelined_ns == compute_ns bit for bit.
  PimTimingModel timing{PimConfig()};
  const int stages = GatherDepth(static_cast<int64_t>(s),
                                 PimConfig().crossbar_dim);
  ASSERT_GT(stages, 1);
  const double single_ns = timing.BatchDotLatencyNs(s, 32);
  const double stage_ns = single_ns / stages;
  EXPECT_DOUBLE_EQ(timing.BatchDotLatencyNs(s, 32, 7),
                   stage_ns * (stages + 7 - 1));
  EXPECT_EQ(timing.BatchDotLatencyNs(s, 32, 1), single_ns);
  EXPECT_EQ(stats[0].pipelined_ns, stats[0].compute_ns);
  // Larger batches strictly reduce device occupancy time.
  EXPECT_LT(stats[2].pipelined_ns, stats[1].pipelined_ns);
  EXPECT_LT(stats[1].pipelined_ns, stats[0].pipelined_ns);
  EXPECT_DOUBLE_EQ(stats[2].pipelined_ns,
                   timing.BatchDotLatencyNs(s, 32, 21));
}

// pipelined_ns sums each batch size apart and then the sizes in ascending
// order, so the order batches complete in cannot move a bit of it. The two
// orders are chosen so that plain running sums differ in the last bit.
TEST(PimBatchTest, PipelinedNsIgnoresBatchOrder) {
  const size_t n = 12, s = 300;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 33);
  const std::vector<int32_t> queries = RandomQueries(8, s, 1 << 20, 34);
  const std::vector<size_t> orders[] = {
      {1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8},
      {8, 1, 7, 2, 6, 3, 5, 4, 8, 1, 7, 2, 6, 3, 5, 4, 8, 1, 7, 2, 6, 3, 5, 4}};
  std::vector<double> pipelined;
  for (const std::vector<size_t>& order : orders) {
    PimDevice device;
    ASSERT_TRUE(device.ProgramDataset(data).ok());
    std::vector<uint64_t> out;
    for (size_t batch : order) {
      ASSERT_TRUE(device
                      .DotProductBatch(std::span<const int32_t>(queries)
                                           .subspan(0, batch * s),
                                       batch, &out)
                      .ok());
    }
    pipelined.push_back(device.stats().pipelined_ns);
  }
  EXPECT_EQ(pipelined[0], pipelined[1]);
}

TEST(PimBatchTest, EngineBatchBoundsMatchPerQueryForEveryMode) {
  const size_t n = 40, d = 48, num_queries = 5;
  const FloatMatrix data = testing_util::RandomUnitMatrix(n, d, 51);
  const FloatMatrix queries =
      testing_util::RandomUnitMatrix(num_queries, d, 52);

  struct ModeCase {
    Distance distance;
    EngineOptions::Bound bound;
  };
  const ModeCase cases[] = {
      {Distance::kEuclidean, EngineOptions::Bound::kDirectEd},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentSm},
      {Distance::kCosine, EngineOptions::Bound::kAuto},
      {Distance::kPearson, EngineOptions::Bound::kAuto},
  };
  for (const ModeCase& c : cases) {
    EngineOptions options;
    options.bound = c.bound;
    auto engine = ShardedPimEngine::Build(data, c.distance, options);
    ASSERT_TRUE(engine.ok());
    const auto mode = (*engine)->mode();

    auto batch = (*engine)->RunQueryBatch(
        std::span<const float>(queries.data(), num_queries * d), num_queries);
    ASSERT_TRUE(batch.ok()) << EngineModeName(mode);
    EXPECT_EQ(batch->num_queries, num_queries);
    EXPECT_EQ(batch->shards[0].num_queries, num_queries);
    EXPECT_EQ(batch->shards[0].stride, n);

    std::vector<double> span(n);
    for (size_t q = 0; q < num_queries; ++q) {
      auto handle = (*engine)->RunQueryBatch(queries.row(q), 1);
      ASSERT_TRUE(handle.ok()) << EngineModeName(mode);
      (*engine)->BoundsFor(*batch, q, span);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*engine)->BoundFor(*batch, q, i),
                  (*engine)->BoundFor(*handle, 0, i))
            << EngineModeName(mode) << " q=" << q << " object=" << i;
        EXPECT_EQ(span[i], (*engine)->BoundFor(*batch, q, i))
            << EngineModeName(mode) << " q=" << q << " object=" << i;
      }
    }
  }
}

TEST(PimBatchTest, BatchValidation) {
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(4, 8, 10, 61);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  std::vector<uint64_t> out;
  // Empty batch: rejected with a message that names the requirement.
  const Status empty = device.DotProductBatch({}, 0, &out);
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.message().find("num_queries >= 1"), std::string::npos)
      << empty.ToString();
  // Size not a multiple of the programmed dimensionality.
  EXPECT_FALSE(
      device.DotProductBatch(std::vector<int32_t>(15, 1), 2, &out).ok());
  // Negative input anywhere in the batch.
  std::vector<int32_t> bad(16, 1);
  bad[11] = -3;
  EXPECT_FALSE(device.DotProductBatch(bad, 2, &out).ok());
}

TEST(PimBatchTest, EngineRejectsEmptyBatchAndNullOutputs) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(16, 8, 71);
  auto engine =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok());
  const auto batch = (*engine)->RunQueryBatch({}, 0);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("num_queries >= 1"),
            std::string::npos)
      << batch.status().ToString();
}

TEST(PimBatchTest, ZeroDeviceBatchPolicyIsRejectedNotMisread) {
  // A device_batch of 0 used to be silently promoted to 1; it is now an
  // explicit error everywhere a policy reaches a batched device op.
  const FloatMatrix data = testing_util::RandomUnitMatrix(24, 8, 72);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(2, 8, 73);

  StandardPimKnn knn(Distance::kEuclidean, EngineOptions());
  ExecPolicy policy;
  policy.device_batch = 0;
  knn.set_exec_policy(policy);
  ASSERT_TRUE(knn.Prepare(data).ok());
  const auto result = knn.Search(queries, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("device_batch"), std::string::npos)
      << result.status().ToString();

  auto filter = PimAssignFilter::Build(data, EngineOptions());
  ASSERT_TRUE(filter.ok());
  const Status begin = (*filter)->BeginIteration(queries, /*device_batch=*/0);
  ASSERT_FALSE(begin.ok());
  EXPECT_EQ(begin.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*filter)->BeginIteration(queries, 1).ok());

  // k-means rejects it up front, with or without the PIM filter.
  for (const bool use_pim : {false, true}) {
    KmeansOptions options;
    options.k = 3;
    options.use_pim = use_pim;
    options.exec = policy;
    const auto run = LloydKmeans().Run(data, options);
    ASSERT_FALSE(run.ok()) << use_pim;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << use_pim;
    EXPECT_NE(run.status().message().find("device_batch"), std::string::npos)
        << run.status().ToString();
  }
}

class GemmTierTest : public ::testing::TestWithParam<GemmTier> {};

// Runs `tier` on one batch of operands no larger than `data_max` and
// `query_max`, checks that it ran on `ran` and equals an independent
// scalar triple loop.
void ExpectGemmMatchesTripleLoop(GemmTier tier, GemmTier ran,
                                 const std::vector<int32_t>& data, size_t n,
                                 size_t s, uint32_t data_max,
                                 const std::vector<int32_t>& queries,
                                 size_t num_queries, uint32_t query_max) {
  std::vector<uint64_t> out(num_queries * n, 0xDEADBEEFu);
  EXPECT_EQ(DotProductGemm(tier, data.data(), n, s, data_max, queries.data(),
                           num_queries, query_max, out.data()),
            ran)
      << GemmTierName(tier) << " Q=" << num_queries << " n=" << n
      << " s=" << s;
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t v = 0; v < n; ++v) {
      uint64_t expected = 0;
      for (size_t j = 0; j < s; ++j) {
        expected += static_cast<uint64_t>(data[v * s + j]) *
                    static_cast<uint64_t>(queries[q * s + j]);
      }
      ASSERT_EQ(out[q * n + v], expected)
          << GemmTierName(tier) << " Q=" << num_queries << " n=" << n
          << " s=" << s << " q=" << q << " v=" << v;
    }
  }
}

std::vector<int32_t> RandomOperands(size_t count, uint32_t max, Rng& rng) {
  std::vector<int32_t> values(count);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(rng.NextBounded(max) + 1);
  }
  return values;
}

// Each tier against the triple loop over a grid that crosses every kernel
// (16-query tiles, the 8-query tile for a remainder of 8-15, the one-pass
// remainders of 1-7), row counts around the 4-row tiles and the 64-row
// blocks, and dimensions around the 4- and 8-lane steps and the
// 128-dimension blocks of the AVX-512 tiles. Scalar and AVX2 operands reach
// 2^31 - 1, so the sums wrap mod 2^64. AVX-512 operands stay below 2^26,
// so that its IFMA kernels run rather than the AVX2 fallback.
TEST_P(GemmTierTest, MatchesScalarTripleLoop) {
  const GemmTier tier = GetParam();
  if (!GemmTierSupported(tier)) {
    GTEST_SKIP() << "this host cannot run the " << GemmTierName(tier)
                 << " tier";
  }
  Rng rng(0x6E33);
  const uint32_t max =
      tier == GemmTier::kAvx512 ? (1u << 26) - 1 : 0x7FFFFFFFu;
  for (size_t num_queries = 1; num_queries <= 33; ++num_queries) {
    for (size_t n : {1, 3, 4, 5, 63, 64, 65, 130}) {
      for (size_t s : {1, 7, 8, 9, 33, 105, 193, 420, 500}) {
        ExpectGemmMatchesTripleLoop(
            tier, tier, RandomOperands(n * s, max, rng), n, s, max,
            RandomOperands(num_queries * s, max, rng), num_queries, max);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The edges of the 52-bit products the IFMA kernels add: every operand at
// 2^26 - 1 still runs on AVX-512, and a batch whose products can reach
// 2^52 (2^26 x 2^26, and operands up to 2^31 - 1) runs on AVX2. Every
// batch equals the triple loop on every tier.
TEST_P(GemmTierTest, ProductsOf52BitsAndMoreStayExact) {
  const GemmTier tier = GetParam();
  if (!GemmTierSupported(tier)) {
    GTEST_SKIP() << "this host cannot run the " << GemmTierName(tier)
                 << " tier";
  }
  const GemmTier fallback =
      tier == GemmTier::kAvx512 ? GemmTier::kAvx2 : tier;
  Rng rng(0x52);
  const size_t n = 65, s = 193;
  for (size_t num_queries : {1, 7, 8, 15, 16, 23, 33}) {
    const uint32_t top = (1u << 26) - 1;
    ExpectGemmMatchesTripleLoop(
        tier, tier, std::vector<int32_t>(n * s, top), n, s, top,
        std::vector<int32_t>(num_queries * s, top), num_queries, top);
    const uint32_t edge = 1u << 26;
    ExpectGemmMatchesTripleLoop(
        tier, fallback, RandomOperands(n * s, edge, rng), n, s, edge,
        RandomOperands(num_queries * s, edge, rng), num_queries, edge);
    const uint32_t max = 0x7FFFFFFFu;
    ExpectGemmMatchesTripleLoop(
        tier, fallback, RandomOperands(n * s, max, rng), n, s, max,
        RandomOperands(num_queries * s, max, rng), num_queries, max);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, GemmTierTest,
    ::testing::Values(GemmTier::kScalar, GemmTier::kAvx2, GemmTier::kAvx512),
    [](const ::testing::TestParamInfo<GemmTier>& param) {
      return std::string(GemmTierName(param.param));
    });

// Bit patterns of a few exact distances and span bounds, recorded from a
// default (baseline x86-64) build. A build that fuses multiply-adds
// differently (-march=native without -ffp-contract=off) rounds some of
// them differently and fails here, even though counts and neighbour ids
// elsewhere would not move.
TEST(PimBatchTest, PinnedBitPatternsOfDistancesAndSpanBounds) {
  const size_t n = 4, d = 420;
  const FloatMatrix data = testing_util::RandomUnitMatrix(n, d, 91);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(1, d, 92);

  const uint64_t kDistances[n] = {0x40511dfb5e4295d8ULL, 0x405254182c6fac45ULL,
                                  0x405177a73a2d510aULL, 0x4050014a0322bbfcULL};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(SquaredEuclideanEarlyAbandon(
                  data.row(i), queries.row(0),
                  std::numeric_limits<double>::infinity())),
              kDistances[i])
        << "object " << i;
  }

  // A Standard-PIM search with k = n refines all four rows in one window of
  // SIMD lanes (SquaredEuclideanLanes) and must return the same bits.
  StandardPimKnn standard(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(standard.Prepare(data).ok());
  const auto search = standard.Search(queries, static_cast<int>(n));
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  const int32_t kNearestFirst[n] = {3, 0, 2, 1};
  ASSERT_EQ(search->neighbors[0].size(), n);
  for (size_t j = 0; j < n; ++j) {
    const Neighbor& nb = search->neighbors[0][j];
    EXPECT_EQ(nb.id, kNearestFirst[j]) << "rank " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(nb.distance),
              kDistances[kNearestFirst[j]])
        << "rank " << j;
  }

  struct Pinned {
    Distance distance;
    uint64_t bits[n];
  };
  const Pinned pinned[] = {
      {Distance::kEuclidean,
       {0x40511df448caba8bULL, 0x405254113933ec68ULL, 0x405177a038eb01aeULL,
        0x40500143362cd9c4ULL}},
      {Distance::kPearson,
       {0x3f41c49c5797f2f3ULL, 0xbfacc063c04c49cfULL, 0x3f82f75f7d06b5e9ULL,
        0x3fb208fa06221397ULL}},
  };
  for (const Pinned& p : pinned) {
    auto engine = ShardedPimEngine::Build(data, p.distance, EngineOptions());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto batch = (*engine)->RunQueryBatch(queries.row(0), 1);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    std::vector<double> bounds(n);
    (*engine)->BoundsFor(*batch, 0, bounds);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(bounds[i]), p.bits[i])
          << EngineModeName((*engine)->mode()) << " object " << i;
    }
  }
}

}  // namespace
}  // namespace pimine
