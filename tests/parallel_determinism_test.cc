// Serial vs. parallel execution must be indistinguishable except in wall
// time: identical neighbours/assignments/centers (bit-for-bit) and exactly
// equal aggregated traffic counters for every algorithm that honours an
// ExecPolicy. This is the load-bearing invariant behind DESIGN.md's
// "Host-side parallelism vs. the paper's timing model".

#include <functional>
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
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "knn_cases.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::AllKnnCases;
using testing_util::KnnCase;

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
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 9, seed + 1);
  return w;
}

// Bit-identical, not "close": parallel runs reorder queries across workers
// but never reassociate any per-query floating-point computation.
void ExpectIdenticalKnnRuns(const KnnRunResult& serial,
                            const KnnRunResult& parallel,
                            const std::string& label) {
  ASSERT_EQ(serial.neighbors.size(), parallel.neighbors.size()) << label;
  for (size_t q = 0; q < serial.neighbors.size(); ++q) {
    ASSERT_EQ(serial.neighbors[q].size(), parallel.neighbors[q].size())
        << label << " query " << q;
    for (size_t j = 0; j < serial.neighbors[q].size(); ++j) {
      EXPECT_EQ(serial.neighbors[q][j].id, parallel.neighbors[q][j].id)
          << label << " query " << q << " rank " << j;
      EXPECT_EQ(serial.neighbors[q][j].distance,
                parallel.neighbors[q][j].distance)
          << label << " query " << q << " rank " << j;
    }
  }
  EXPECT_EQ(serial.stats.exact_count, parallel.stats.exact_count) << label;
  EXPECT_EQ(serial.stats.bound_count, parallel.stats.bound_count) << label;
  EXPECT_TRUE(serial.stats.traffic == parallel.stats.traffic)
      << label << ": aggregated traffic counters diverged";
  EXPECT_EQ(serial.stats.pim_ns, parallel.stats.pim_ns) << label;
}

TEST(ParallelDeterminismTest, KnnParallelSearchMatchesSerialExactly) {
  const Workload w = MakeWorkload(500, 48, 42);
  const int k = 8;

  for (const KnnCase& c : AllKnnCases()) {
    auto algorithm = c.make();
    ASSERT_TRUE(algorithm->Prepare(w.data).ok()) << c.label;

    auto serial = algorithm->Search(w.queries, k);
    ASSERT_TRUE(serial.ok()) << c.label;

    for (int threads : {2, 4, 8}) {
      algorithm->set_exec_policy(ExecPolicy::WithThreads(threads));
      auto parallel = algorithm->Search(w.queries, k);
      ASSERT_TRUE(parallel.ok()) << c.label;
      ExpectIdenticalKnnRuns(*serial, *parallel,
                             c.label + " x" + std::to_string(threads));
    }
  }
}

void ExpectIdenticalKmeansRuns(const KmeansResult& serial,
                               const KmeansResult& parallel,
                               const std::string& label) {
  EXPECT_EQ(serial.iterations, parallel.iterations) << label;
  ASSERT_EQ(serial.assignments.size(), parallel.assignments.size()) << label;
  for (size_t i = 0; i < serial.assignments.size(); ++i) {
    ASSERT_EQ(serial.assignments[i], parallel.assignments[i])
        << label << " point " << i;
  }
  ASSERT_EQ(serial.centers.rows(), parallel.centers.rows()) << label;
  for (size_t c = 0; c < serial.centers.rows(); ++c) {
    const auto a = serial.centers.row(c);
    const auto b = parallel.centers.row(c);
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j], b[j]) << label << " center " << c << " dim " << j;
    }
  }
  EXPECT_EQ(serial.inertia, parallel.inertia) << label;
  EXPECT_EQ(serial.stats.exact_count, parallel.stats.exact_count) << label;
  EXPECT_EQ(serial.stats.bound_count, parallel.stats.bound_count) << label;
  EXPECT_TRUE(serial.stats.traffic == parallel.stats.traffic)
      << label << ": aggregated traffic counters diverged";
  EXPECT_EQ(serial.stats.pim_ns, parallel.stats.pim_ns) << label;
}

struct KmeansCase {
  std::string label;
  std::function<std::unique_ptr<KmeansAlgorithm>()> make;
};

std::vector<KmeansCase> AllKmeansCases() {
  std::vector<KmeansCase> cases;
  cases.push_back({"Lloyd", [] { return std::make_unique<LloydKmeans>(); }});
  cases.push_back({"Elkan", [] { return std::make_unique<ElkanKmeans>(); }});
  cases.push_back(
      {"Hamerly", [] { return std::make_unique<HamerlyKmeans>(); }});
  cases.push_back({"Drake", [] { return std::make_unique<DrakeKmeans>(); }});
  cases.push_back(
      {"Yinyang", [] { return std::make_unique<YinyangKmeans>(); }});
  return cases;
}

TEST(ParallelDeterminismTest, KmeansParallelAssignMatchesSerialExactly) {
  const Workload w = MakeWorkload(420, 24, 17);

  for (bool use_pim : {false, true}) {
    for (const KmeansCase& c : AllKmeansCases()) {
      KmeansOptions options;
      options.k = 12;
      options.max_iterations = 5;
      options.seed = 123;
      options.use_pim = use_pim;

      auto algorithm = c.make();
      auto serial = algorithm->Run(w.data, options);
      ASSERT_TRUE(serial.ok()) << c.label;

      // Four threads split each assign pass into several chunks per
      // worker at n = 420.
      options.exec = ExecPolicy::WithThreads(4);
      auto parallel = algorithm->Run(w.data, options);
      ASSERT_TRUE(parallel.ok()) << c.label;

      ExpectIdenticalKmeansRuns(
          *serial, *parallel,
          c.label + (use_pim ? "+PIM" : "") + " x4");
    }
  }
}

// Batched device operations compose with host threading: for every kNN
// path, any (device_batch, num_threads) combination must reproduce the
// serial per-query run bit for bit, including the serial-equivalent modeled
// PIM time (host baselines chunk their queries by device_batch too). 33
// queries make device_batch=32 exercise a trailing partial batch and
// device_batch=7 a mid-chunk re-split.
TEST(ParallelDeterminismTest, DeviceBatchMatchesSerialExactly) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = 32;
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  const FloatMatrix data = DatasetGenerator::Generate(spec, 400, 97);
  const FloatMatrix queries =
      DatasetGenerator::GenerateQueries(spec, data, 33, 98);
  const int k = 6;

  for (const KnnCase& c : AllKnnCases()) {
    auto algorithm = c.make();
    ASSERT_TRUE(algorithm->Prepare(data).ok()) << c.label;

    auto serial = algorithm->Search(queries, k);
    ASSERT_TRUE(serial.ok()) << c.label;

    for (size_t device_batch : {size_t{7}, size_t{32}}) {
      for (int threads : {1, 4}) {
        ExecPolicy policy = ExecPolicy::WithThreads(threads);
        policy.device_batch = device_batch;
        algorithm->set_exec_policy(policy);
        auto batched = algorithm->Search(queries, k);
        ASSERT_TRUE(batched.ok()) << c.label;
        ExpectIdenticalKnnRuns(*serial, *batched,
                               c.label + " batch" +
                                   std::to_string(device_batch) + " x" +
                                   std::to_string(threads));
      }
    }
  }
}

// Same for the k-means PIM assign filter: grouped center batches must not
// change assignments, centers, or any modeled counter.
TEST(ParallelDeterminismTest, KmeansDeviceBatchMatchesSerialExactly) {
  const Workload w = MakeWorkload(420, 24, 17);
  KmeansOptions options;
  options.k = 12;  // device_batch=7 leaves a trailing group of 5 centers.
  options.max_iterations = 5;
  options.seed = 123;
  options.use_pim = true;

  for (const KmeansCase& c : AllKmeansCases()) {
    auto algorithm = c.make();
    auto serial = algorithm->Run(w.data, options);
    ASSERT_TRUE(serial.ok()) << c.label;

    KmeansOptions batched_options = options;
    batched_options.exec.device_batch = 7;
    auto batched = algorithm->Run(w.data, batched_options);
    ASSERT_TRUE(batched.ok()) << c.label;
    ExpectIdenticalKmeansRuns(*serial, *batched, c.label + " batch7");
  }
}

std::vector<KnnCase> PimKnnCasesWithShards(int shards) {
  EngineOptions options;
  options.shard.shards = shards;
  std::vector<KnnCase> cases;
  cases.push_back({"StandardPIM/ED", [options] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kEuclidean, options);
                   }});
  cases.push_back({"StandardPIM/CS", [options] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kCosine, options);
                   }});
  cases.push_back({"SmPIM", [options] {
                     return std::make_unique<SmPimKnn>(options);
                   }});
  cases.push_back({"OstPIM", [options] {
                     return std::make_unique<OstPimKnn>(options);
                   }});
  cases.push_back({"FnnPIM", [options] {
                     return std::make_unique<FnnPimKnn>(options,
                                                        /*optimize=*/true);
                   }});
  return cases;
}

// Sharded fleet execution composes with host threading and device
// batching: shards in {3, 8} crossed with (threads, device_batch) must
// reproduce the single-device serial run bit for bit — neighbours,
// traffic, and modeled PIM time. Only the fleet interconnect stats (not
// compared by ExpectIdenticalKnnRuns) legitimately vary with M.
TEST(ParallelDeterminismTest, ShardedKnnMatchesSingleDeviceExactly) {
  const Workload w = MakeWorkload(500, 48, 42);
  const int k = 8;

  const std::vector<KnnCase> single_cases = PimKnnCasesWithShards(1);
  for (size_t ci = 0; ci < single_cases.size(); ++ci) {
    auto single = single_cases[ci].make();
    ASSERT_TRUE(single->Prepare(w.data).ok()) << single_cases[ci].label;
    auto reference = single->Search(w.queries, k);
    ASSERT_TRUE(reference.ok()) << single_cases[ci].label;

    for (int shards : {3, 8}) {
      auto algorithm = PimKnnCasesWithShards(shards)[ci].make();
      ASSERT_TRUE(algorithm->Prepare(w.data).ok());
      for (int threads : {1, 4}) {
        for (size_t device_batch : {size_t{1}, size_t{16}}) {
          ExecPolicy policy = ExecPolicy::WithThreads(threads);
          policy.device_batch = device_batch;
          algorithm->set_exec_policy(policy);
          auto sharded = algorithm->Search(w.queries, k);
          ASSERT_TRUE(sharded.ok());
          ExpectIdenticalKnnRuns(
              *reference, *sharded,
              single_cases[ci].label + " M=" + std::to_string(shards) +
                  " x" + std::to_string(threads) + " batch" +
                  std::to_string(device_batch));
          EXPECT_GT(sharded->stats.fleet.scatter_messages, 0u);
        }
      }
    }
    EXPECT_EQ(reference->stats.fleet.scatter_messages, 0u)
        << "single-device runs must not charge interconnect traffic";
  }
}

// Same invariant for the k-means PIM assign filter plus the tree-reduced
// centroid update: assignments, centers (ExactSum makes the reduction
// shape irrelevant), inertia and all grouping-invariant counters match the
// single-device run for every fleet size.
TEST(ParallelDeterminismTest, ShardedKmeansMatchesSingleDeviceExactly) {
  const Workload w = MakeWorkload(420, 24, 17);

  for (const KmeansCase& c : AllKmeansCases()) {
    KmeansOptions options;
    options.k = 12;
    options.max_iterations = 5;
    options.seed = 123;
    options.use_pim = true;

    auto algorithm = c.make();
    auto reference = algorithm->Run(w.data, options);
    ASSERT_TRUE(reference.ok()) << c.label;

    for (int shards : {3, 8}) {
      for (int threads : {1, 4}) {
        KmeansOptions sharded_options = options;
        sharded_options.engine_options.shard.shards = shards;
        sharded_options.exec = ExecPolicy::WithThreads(threads);
        auto sharded = algorithm->Run(w.data, sharded_options);
        ASSERT_TRUE(sharded.ok()) << c.label;
        ExpectIdenticalKmeansRuns(
            *reference, *sharded,
            c.label + " M=" + std::to_string(shards) + " x" +
                std::to_string(threads));
        EXPECT_GT(sharded->stats.fleet.reduce_messages, 0u) << c.label;
      }
    }
  }
}

// The parallel harness must propagate per-query failures, not crash or
// deadlock: force an error by searching with a handle-free engine state.
TEST(ParallelDeterminismTest, ParallelSearchPropagatesErrors) {
  StandardKnn algorithm;
  algorithm.set_exec_policy(ExecPolicy::WithThreads(4));
  auto result = algorithm.Search(testing_util::RandomUnitMatrix(4, 8, 1), 2);
  EXPECT_FALSE(result.ok());  // Prepare never ran.
}

}  // namespace
}  // namespace pimine
