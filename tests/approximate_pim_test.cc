#include "knn/approximate_pim_knn.h"

#include <bit>

#include <gtest/gtest.h>

#include "core/quantize.h"
#include "core/similarity.h"
#include "data/generator.h"
#include "knn/standard_knn.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload(uint64_t seed) {
  DatasetSpec spec;
  spec.name = "approx";
  spec.dims = 48;
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w;
  w.data = DatasetGenerator::Generate(spec, 500, seed);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 5, seed + 1);
  return w;
}

TEST(ApproximatePimTest, HighPrecisionRecoverExactResults) {
  const Workload w = MakeWorkload(3);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, 10);
  ASSERT_TRUE(golden.ok());

  EngineOptions options;
  options.alpha = 1e6;
  ApproximatePimKnn approx(options);
  ASSERT_TRUE(approx.Prepare(w.data).ok());
  auto result = approx.Search(w.queries, 10);
  ASSERT_TRUE(result.ok());
  for (size_t q = 0; q < golden->neighbors.size(); ++q) {
    EXPECT_DOUBLE_EQ(RecallAtK(golden->neighbors[q], result->neighbors[q]),
                     1.0);
  }
  // No exact host computation happened at all.
  EXPECT_EQ(result->stats.exact_count, 0u);
}

TEST(ApproximatePimTest, CoarseQuantizationLosesAccuracy) {
  const Workload w = MakeWorkload(4);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, 10);
  ASSERT_TRUE(golden.ok());

  EngineOptions options;
  options.alpha = 4.0;  // 2-bit values: severe precision loss.
  options.operand_bits = 4;
  ApproximatePimKnn approx(options);
  ASSERT_TRUE(approx.Prepare(w.data).ok());
  auto result = approx.Search(w.queries, 10);
  ASSERT_TRUE(result.ok());
  double total_recall = 0.0;
  for (size_t q = 0; q < golden->neighbors.size(); ++q) {
    total_recall += RecallAtK(golden->neighbors[q], result->neighbors[q]);
  }
  // The paper's §II-A argument: fixed-point approximation compromises
  // mining accuracy. At alpha=4 some true neighbours must be lost.
  EXPECT_LT(total_recall / golden->neighbors.size(), 1.0);
}

TEST(ApproximatePimTest, ApproximationErrorWithinQuantizationBound) {
  const FloatMatrix data = RandomUnitMatrix(30, 32, 5);
  const double alpha = 100.0;
  EngineOptions options;
  options.alpha = alpha;
  ApproximatePimKnn approx(options);
  ASSERT_TRUE(approx.Prepare(data).ok());
  FloatMatrix query(1, 32);
  const auto qsrc = RandomUnitMatrix(1, 32, 6);
  std::copy(qsrc.row(0).begin(), qsrc.row(0).end(),
            query.mutable_row(0).begin());

  auto result = approx.Search(query, 30);
  ASSERT_TRUE(result.ok());
  // Every reported approximate distance is within the two-sided floor
  // error of the exact distance (same order as the Theorem 3 bound).
  const double tolerance = 2.0 * LbPimEdErrorBound(32, alpha);
  for (const Neighbor& nb : result->neighbors[0]) {
    const double exact = SquaredEuclidean(data.row(nb.id), query.row(0));
    EXPECT_NEAR(nb.distance, exact, tolerance);
  }
}

// The path runs on the kNN driver: threads and device batches change
// neither its answers nor its counters.
TEST(ApproximatePimTest, ThreadedBatchedSearchEqualsSerial) {
  const Workload w = MakeWorkload(5);
  ApproximatePimKnn serial((EngineOptions()));
  ASSERT_TRUE(serial.Prepare(w.data).ok());
  auto want = serial.Search(w.queries, 10);
  ASSERT_TRUE(want.ok());

  ApproximatePimKnn threaded((EngineOptions()));
  ExecPolicy policy = ExecPolicy::WithThreads(2);
  policy.device_batch = 2;
  threaded.set_exec_policy(policy);
  ASSERT_TRUE(threaded.Prepare(w.data).ok());
  auto got = threaded.Search(w.queries, 10);
  ASSERT_TRUE(got.ok());

  ASSERT_EQ(got->neighbors.size(), want->neighbors.size());
  for (size_t q = 0; q < want->neighbors.size(); ++q) {
    ASSERT_EQ(got->neighbors[q].size(), want->neighbors[q].size());
    for (size_t r = 0; r < want->neighbors[q].size(); ++r) {
      EXPECT_EQ(got->neighbors[q][r].id, want->neighbors[q][r].id);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->neighbors[q][r].distance),
                std::bit_cast<uint64_t>(want->neighbors[q][r].distance));
    }
  }
  EXPECT_EQ(got->stats.traffic, want->stats.traffic);
  EXPECT_EQ(got->stats.bound_count, want->stats.bound_count);
  EXPECT_EQ(std::bit_cast<uint64_t>(got->stats.pim_ns),
            std::bit_cast<uint64_t>(want->stats.pim_ns));
}

TEST(ApproximatePimTest, RejectsOutOfRangeQueriesAndZeroDeviceBatch) {
  const Workload w = MakeWorkload(6);
  ApproximatePimKnn approx((EngineOptions()));
  ASSERT_TRUE(approx.Prepare(w.data).ok());
  FloatMatrix bad = w.queries;
  bad(1, 3) = 1.5f;
  EXPECT_EQ(approx.Search(bad, 3).status().code(),
            StatusCode::kInvalidArgument);

  ExecPolicy policy;
  policy.device_batch = 0;
  approx.set_exec_policy(policy);
  EXPECT_EQ(approx.Search(w.queries, 3).status().code(),
            StatusCode::kInvalidArgument);
}

// Under kBoundSlack a flagged dot product would enter the top-k as it is:
// at cell and transient fault rates of 1e-3, with no retries or remapping,
// all 50 answers of five queries moved. So the path refuses that mode.
TEST(ApproximatePimTest, RejectsBoundSlackRecovery) {
  const Workload w = MakeWorkload(8);
  EngineOptions options;
  options.fault_config.cell_rate = 1e-3;
  options.recovery.verify_mode = VerifyMode::kBoundSlack;
  ApproximatePimKnn approx(options);
  EXPECT_EQ(approx.Prepare(w.data).code(), StatusCode::kInvalidArgument);
}

TEST(RecallAtKTest, Basics) {
  const std::vector<Neighbor> exact = {{1.0, 1}, {2.0, 2}, {3.0, 3}};
  const std::vector<Neighbor> perfect = {{1.0, 2}, {2.0, 3}, {3.0, 1}};
  const std::vector<Neighbor> half = {{1.0, 1}, {2.0, 9}, {3.0, 2}};
  EXPECT_DOUBLE_EQ(RecallAtK(exact, perfect), 1.0);
  EXPECT_NEAR(RecallAtK(exact, half), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(RecallAtK({}, {}), 1.0);
}

TEST(ApproximatePimTest, Validation) {
  ApproximatePimKnn approx((EngineOptions()));
  EXPECT_FALSE(approx.Prepare(FloatMatrix()).ok());
  const Workload w = MakeWorkload(7);
  EXPECT_EQ(approx.Search(w.queries, 3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(approx.Prepare(w.data).ok());
  EXPECT_FALSE(approx.Search(w.queries, 0).ok());
}

}  // namespace
}  // namespace pimine
