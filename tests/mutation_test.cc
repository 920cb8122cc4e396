// Randomized mutation-model suite (DESIGN.md section 13): a SplitMix64-
// seeded schedule interleaves insert / delete / query / compact ops on a
// MutableDataset with every PIM path attached as a MutationListener, and
// after EVERY query step the mutated fleet's results are asserted
// bit-identical to a freshly-programmed reference engine on the merged
// (dense live) corpus — across shard counts {1, 4}, replica counts
// {1, 2} and host thread counts {1, 4}. The same invariant is exercised
// for the k-means shared assign filter and the serving layer.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/mutable_dataset.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_pim_knn.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

/// Stateless SplitMix64 mix — the schedule below must be reproducible from
/// (seed, step) alone so a failure prints a replayable op sequence.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Maps the mutated engine's PHYSICAL neighbor ids onto the dense ids a
/// fresh engine on the merged corpus reports (live[i] -> i).
std::vector<std::vector<Neighbor>> Densify(
    const std::vector<std::vector<Neighbor>>& neighbors,
    const std::vector<uint32_t>& live) {
  std::vector<int32_t> dense_of(live.empty() ? 0 : live.back() + 1, -1);
  for (size_t i = 0; i < live.size(); ++i) {
    dense_of[live[i]] = static_cast<int32_t>(i);
  }
  std::vector<std::vector<Neighbor>> out = neighbors;
  for (auto& list : out) {
    for (Neighbor& n : list) {
      EXPECT_GE(n.id, 0);
      EXPECT_LT(static_cast<size_t>(n.id), dense_of.size());
      EXPECT_GE(dense_of[n.id], 0) << "tombstoned row " << n.id << " served";
      n.id = dense_of[n.id];
    }
  }
  return out;
}

/// One randomized schedule against one attached KnnAlgorithm: returns the
/// op trace for failure messages. `factory` builds a fresh reference
/// algorithm (same type/options) for the merged-corpus comparison.
template <typename MakeAlgorithm>
void RunMutationSchedule(MutableDataset* dataset, KnnAlgorithm* mutated,
                         const MakeAlgorithm& factory,
                         const FloatMatrix& queries, const FloatMatrix& pool,
                         uint64_t seed, int steps, int k,
                         const std::string& label) {
  size_t pool_pos = 0;
  std::string trace;
  const auto check = [&](int step) {
    auto got = mutated->Search(queries, k);
    ASSERT_TRUE(got.ok()) << label << " step " << step << " [" << trace
                          << "]: " << got.status().ToString();
    const std::vector<uint32_t> live = dataset->LiveRows();
    const FloatMatrix merged = dataset->LiveCorpus();
    std::unique_ptr<KnnAlgorithm> reference = factory();
    ASSERT_TRUE(reference->Prepare(merged).ok());
    auto want = reference->Search(queries, k);
    ASSERT_TRUE(want.ok()) << label << " step " << step;
    EXPECT_EQ(Densify(got->neighbors, live), want->neighbors)
        << label << " diverged from the fresh merged-corpus engine at step "
        << step << " [" << trace << "]";
  };

  check(-1);  // pre-mutation baseline.
  for (int step = 0; step < steps; ++step) {
    const uint64_t draw = Mix(seed ^ static_cast<uint64_t>(step));
    switch (draw % 4) {
      case 0: {  // insert 1..4 pool rows.
        const size_t count = 1 + (draw >> 8) % 4;
        ASSERT_LT(pool_pos + count, pool.rows() + 1);
        FloatMatrix rows(count, pool.cols());
        for (size_t i = 0; i < count; ++i) {
          const auto src = pool.row(pool_pos + i);
          auto dst = rows.mutable_row(i);
          std::copy(src.begin(), src.end(), dst.begin());
        }
        pool_pos += count;
        trace += "i:" + std::to_string(count) + ",";
        ASSERT_TRUE(dataset->Insert(rows).ok()) << label << " [" << trace
                                                << "]";
        break;
      }
      case 1: {  // delete one random live row (keep a comfortable floor
                 // so no shard of a 4-way split can empty and k fits).
        if (dataset->live_rows() <=
            static_cast<size_t>(k) + dataset->rows() / 2) {
          trace += "skip-d,";
          break;
        }
        const std::vector<uint32_t> live = dataset->LiveRows();
        const uint32_t victim = live[(draw >> 8) % live.size()];
        trace += "d:" + std::to_string(victim) + ",";
        ASSERT_TRUE(dataset->Delete(victim).ok()) << label << " [" << trace
                                                  << "]";
        break;
      }
      case 2:  // compact.
        trace += "c,";
        ASSERT_TRUE(dataset->Compact().ok()) << label << " [" << trace << "]";
        break;
      default:
        trace += "q,";
        break;  // query-only step; the check below covers it.
    }
    check(step);
  }
}

TEST(MutationModelTest, StandardPathAcrossFleetGeometries) {
  const FloatMatrix base = RandomUnitMatrix(64, 12, 0xA1);
  const FloatMatrix pool = RandomUnitMatrix(64, 12, 0xA2);
  const FloatMatrix queries = RandomUnitMatrix(6, 12, 0xA3);
  for (const int shards : {1, 4}) {
    for (const int replicas : {1, 2}) {
      for (const int threads : {1, 4}) {
        EngineOptions options;
        options.shard.shards = shards;
        options.shard.replicas = replicas;
        ExecPolicy exec;
        exec.num_threads = threads;
        MutableDataset dataset(base);
        StandardPimKnn mutated(Distance::kEuclidean, options);
        mutated.set_exec_policy(exec);
        ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
        dataset.Attach(&mutated);
        const std::string label = "standard/shards=" +
                                  std::to_string(shards) + "/replicas=" +
                                  std::to_string(replicas) + "/threads=" +
                                  std::to_string(threads);
        RunMutationSchedule(
            &dataset, &mutated,
            [&] {
              auto fresh = std::make_unique<StandardPimKnn>(
                  Distance::kEuclidean, options);
              fresh->set_exec_policy(exec);
              return fresh;
            },
            queries, pool, /*seed=*/0x5EED0 + shards * 10 + replicas,
            /*steps=*/12, /*k=*/5, label);
      }
    }
  }
}

TEST(MutationModelTest, SimilarityPathsMirrorMutations) {
  // CS and PCC decompositions keep per-row offline terms; the schedule
  // must keep them in lockstep with the fleet's delta/tombstone state.
  const FloatMatrix base = RandomUnitMatrix(56, 10, 0xB1);
  const FloatMatrix pool = RandomUnitMatrix(64, 10, 0xB2);
  const FloatMatrix queries = RandomUnitMatrix(5, 10, 0xB3);
  for (const Distance distance : {Distance::kCosine, Distance::kPearson}) {
    EngineOptions options;
    MutableDataset dataset(base);
    StandardPimKnn mutated(distance, options);
    ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
    dataset.Attach(&mutated);
    RunMutationSchedule(
        &dataset, &mutated,
        [&] { return std::make_unique<StandardPimKnn>(distance, options); },
        queries, pool, /*seed=*/0xC0FFEE, /*steps=*/10, /*k=*/4,
        distance == Distance::kCosine ? "cs" : "pcc");
  }
}

TEST(MutationModelTest, SegmentAndPrefixPathsMirrorMutations) {
  const FloatMatrix base = RandomUnitMatrix(56, 16, 0xC1);
  const FloatMatrix pool = RandomUnitMatrix(64, 16, 0xC2);
  const FloatMatrix queries = RandomUnitMatrix(5, 16, 0xC3);
  {
    EngineOptions options;
    MutableDataset dataset(base);
    SmPimKnn mutated(options);
    ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
    dataset.Attach(&mutated);
    RunMutationSchedule(
        &dataset, &mutated,
        [&] { return std::make_unique<SmPimKnn>(options); }, queries, pool,
        /*seed=*/0xD1CE, /*steps=*/10, /*k=*/4, "sm");
  }
  {
    EngineOptions options;
    MutableDataset dataset(base);
    OstPimKnn mutated(options);
    ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
    dataset.Attach(&mutated);
    RunMutationSchedule(
        &dataset, &mutated,
        [&] { return std::make_unique<OstPimKnn>(options); }, queries, pool,
        /*seed=*/0xD1CF, /*steps=*/10, /*k=*/4, "ost");
  }
}

TEST(MutationModelTest, FnnPathMirrorsMutations) {
  // optimize=false keeps the plan data-independent, so the fresh reference
  // selects the identical cascade at every corpus size.
  const FloatMatrix base = RandomUnitMatrix(56, 32, 0xE1);
  const FloatMatrix pool = RandomUnitMatrix(64, 32, 0xE2);
  const FloatMatrix queries = RandomUnitMatrix(5, 32, 0xE3);
  EngineOptions options;
  MutableDataset dataset(base);
  FnnPimKnn mutated(options, /*optimize=*/false);
  ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
  dataset.Attach(&mutated);
  RunMutationSchedule(
      &dataset, &mutated,
      [&] { return std::make_unique<FnnPimKnn>(options, false); }, queries,
      pool, /*seed=*/0xF00D, /*steps=*/10, /*k=*/4, "fnn");
}

TEST(MutationModelTest, FnnOptimizedPlanStaysExactBetweenCompactions) {
  // With optimize=true the Eq. 13 plan is re-measured only at compaction;
  // between compactions it reflects the corpus it was measured on, but
  // bounds stay admissible so results stay exact (== a fresh engine's).
  const FloatMatrix base = RandomUnitMatrix(56, 32, 0xE4);
  const FloatMatrix pool = RandomUnitMatrix(16, 32, 0xE5);
  const FloatMatrix queries = RandomUnitMatrix(4, 32, 0xE6);
  EngineOptions options;
  MutableDataset dataset(base);
  FnnPimKnn mutated(options, /*optimize=*/true);
  ASSERT_TRUE(mutated.Prepare(dataset.corpus()).ok());
  dataset.Attach(&mutated);
  ASSERT_TRUE(dataset.Insert(pool).ok());
  for (const uint32_t victim : {3u, 17u, 60u}) {
    ASSERT_TRUE(dataset.Delete(victim).ok());
  }
  auto got = mutated.Search(queries, 4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Exactness check against a brute-force standard engine on the merged
  // corpus (plans differ pre-compaction; results may not).
  StandardPimKnn reference(Distance::kEuclidean, options);
  const FloatMatrix merged = dataset.LiveCorpus();
  ASSERT_TRUE(reference.Prepare(merged).ok());
  auto want = reference.Search(queries, 4);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(Densify(got->neighbors, dataset.LiveRows()), want->neighbors);
  // After compaction the re-measured plan matches a fresh Prepare of the
  // same (dense) corpus: full bit-identity, plan included.
  ASSERT_TRUE(dataset.Compact().ok());
  FnnPimKnn fresh(options, /*optimize=*/true);
  ASSERT_TRUE(fresh.Prepare(dataset.corpus()).ok());
  ASSERT_EQ(mutated.plan().selected, fresh.plan().selected);
  ASSERT_EQ(mutated.plan().cost_bits_per_object,
            fresh.plan().cost_bits_per_object);
  auto after = mutated.Search(queries, 4);
  auto fresh_after = fresh.Search(queries, 4);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(fresh_after.ok());
  EXPECT_EQ(after->neighbors, fresh_after->neighbors);
}

TEST(MutationModelTest, KmeansSharedFilterMatchesFreshBuild) {
  const FloatMatrix base = RandomUnitMatrix(72, 8, 0x1A);
  const FloatMatrix pool = RandomUnitMatrix(12, 8, 0x1B);
  for (const int shards : {1, 2}) {
    EngineOptions engine_options;
    engine_options.shard.shards = shards;
    MutableDataset dataset(base);
    auto filter_built =
        PimAssignFilter::Build(dataset.corpus(), engine_options);
    ASSERT_TRUE(filter_built.ok());
    std::unique_ptr<PimAssignFilter> filter = std::move(*filter_built);
    dataset.Attach(filter.get());

    ASSERT_TRUE(dataset.Insert(pool).ok());
    for (const uint32_t victim : {1u, 30u, 75u}) {
      ASSERT_TRUE(dataset.Delete(victim).ok());
    }
    ASSERT_TRUE(dataset.Compact().ok());
    ASSERT_TRUE(dataset.Delete(7).ok());  // leave one live tombstone too.

    const FloatMatrix live = dataset.LiveCorpus();
    ASSERT_EQ(filter->live_points(), live.rows());

    KmeansOptions shared;
    shared.k = 8;
    shared.max_iterations = 4;
    shared.use_pim = true;
    shared.engine_options = engine_options;
    shared.filter = filter.get();
    KmeansOptions fresh = shared;
    fresh.filter = nullptr;

    LloydKmeans lloyd;
    auto with_shared = lloyd.Run(live, shared);
    auto with_fresh = lloyd.Run(live, fresh);
    ASSERT_TRUE(with_shared.ok()) << with_shared.status().ToString();
    ASSERT_TRUE(with_fresh.ok());
    EXPECT_EQ(with_shared->assignments, with_fresh->assignments)
        << "shards=" << shards;
    ASSERT_EQ(with_shared->centers.rows(), with_fresh->centers.rows());
    for (size_t c = 0; c < with_shared->centers.rows(); ++c) {
      const auto a = with_shared->centers.row(c);
      const auto b = with_fresh->centers.row(c);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "center " << c << " shards=" << shards;
    }
    EXPECT_EQ(with_shared->inertia, with_fresh->inertia);
  }
}

TEST(MutationModelTest, ServeMutatedEqualsFreshOnMergedCorpus) {
  // A server that lived through the mutation trace (ending compacted) must
  // replay bit-identically to a server freshly built on the merged corpus
  // — results, scheduling stats and telemetry documents alike.
  const FloatMatrix base = RandomUnitMatrix(64, 12, 0x2A);
  const FloatMatrix pool = RandomUnitMatrix(8, 12, 0x2B);
  const FloatMatrix queries = RandomUnitMatrix(6, 12, 0x2C);

  serve::ServeOptions serve_options;
  serve_options.k = 4;
  serve_options.max_batch = 4;
  serve_options.compact_watermark = 0.10;
  EngineOptions engine_options;
  engine_options.shard.shards = 2;
  engine_options.shard.replicas = 2;

  MutableDataset dataset(base);
  auto mutated_built = serve::PimServer::Build(
      dataset.corpus(), Distance::kEuclidean, engine_options, serve_options);
  ASSERT_TRUE(mutated_built.ok()) << mutated_built.status().ToString();
  auto mutated = std::move(*mutated_built);
  ASSERT_TRUE(mutated->AttachMutable(&dataset).ok());

  ASSERT_TRUE(dataset.Insert(pool).ok());
  for (const uint32_t victim : {0u, 9u, 33u, 64u, 65u, 70u, 12u, 40u}) {
    ASSERT_TRUE(dataset.Delete(victim).ok());
    ASSERT_TRUE(mutated->MaybeCompact().ok());
  }
  ASSERT_TRUE(dataset.Compact().ok());  // idempotent when already compact.
  EXPECT_GE(mutated->watermark_compactions(), 1u);
  ASSERT_EQ(dataset.tombstoned_rows(), 0u);

  FloatMatrix merged = dataset.LiveCorpus();
  auto fresh_built = serve::PimServer::Build(merged, Distance::kEuclidean,
                                             engine_options, serve_options);
  ASSERT_TRUE(fresh_built.ok());
  auto fresh = std::move(*fresh_built);

  serve::WorkloadSpec spec;
  spec.num_requests = 32;
  spec.offered_qps = 1e6;
  spec.tenant_share = {1.0};
  spec.num_query_rows = static_cast<uint32_t>(queries.rows());
  spec.seed = 7;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());

  auto got = mutated->Replay(*trace, queries);
  auto want = fresh->Replay(*trace, queries);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->results.size(), want->results.size());
  for (size_t i = 0; i < got->results.size(); ++i) {
    EXPECT_EQ(got->results[i].neighbors, want->results[i].neighbors) << i;
    EXPECT_EQ(got->results[i].dispatch_ns, want->results[i].dispatch_ns) << i;
    EXPECT_EQ(got->results[i].completion_ns, want->results[i].completion_ns)
        << i;
  }
  EXPECT_EQ(got->stats.watermark_compactions,
            mutated->watermark_compactions());
  EXPECT_EQ(got->stats.served, want->stats.served);
  EXPECT_EQ(got->stats.batches, want->stats.batches);
  EXPECT_EQ(got->stats.makespan_ns, want->stats.makespan_ns);
  EXPECT_EQ(got->stats.exec.exact_count, want->stats.exec.exact_count);
  EXPECT_EQ(got->timeseries_json, want->timeseries_json);
  EXPECT_EQ(got->events_jsonl, want->events_jsonl);

  // The watermark count is the server's total since build: a process that
  // replays twice exports it as it stands, while the runs' totals add up.
  obs::Obs::Enable();
  ASSERT_TRUE(mutated->Replay(*trace, queries).ok());
  ASSERT_TRUE(mutated->Replay(*trace, queries).ok());
  obs::MetricsRegistry& metrics = obs::Obs::Get()->metrics();
  EXPECT_EQ(
      metrics.GetCounter("pimine_serve_watermark_compactions_total").Value(),
      mutated->watermark_compactions());
  EXPECT_EQ(metrics.GetCounter("pimine_serve_served_total").Value(),
            2 * got->stats.served);
  obs::Obs::Disable();
}

TEST(MutationModelTest, ServeMirrorsEveryDeleteAndRefusesRunsBelowK) {
  // The dataset tombstones first and the server mirrors: a delete the
  // dataset accepted is never refused, so the two agree on the live rows
  // after every step. A corpus left with fewer than k live rows cannot be
  // replayed or served live until inserts bring it back to k.
  const FloatMatrix base = RandomUnitMatrix(12, 8, 0x4A);
  const FloatMatrix pool = RandomUnitMatrix(4, 8, 0x4B);
  const FloatMatrix queries = RandomUnitMatrix(3, 8, 0x4C);

  serve::ServeOptions serve_options;
  serve_options.k = 5;
  EngineOptions engine_options;
  engine_options.shard.shards = 2;

  MutableDataset dataset(base);
  auto built = serve::PimServer::Build(dataset.corpus(), Distance::kEuclidean,
                                       engine_options, serve_options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto server = std::move(*built);
  ASSERT_TRUE(server->AttachMutable(&dataset).ok());

  serve::WorkloadSpec spec;
  spec.num_requests = 8;
  spec.offered_qps = 1e6;
  spec.tenant_share = {1.0};
  spec.num_query_rows = static_cast<uint32_t>(queries.rows());
  spec.seed = 3;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());

  // Rows 0-5 live on shard 0 and 6-11 on shard 1; each shard keeps one
  // live row, as a shard refuses to delete its last.
  for (const uint32_t row : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 8u, 9u, 10u}) {
    ASSERT_TRUE(dataset.Delete(row).ok()) << "row " << row;
    EXPECT_EQ(server->engine().live_objects(), dataset.live_rows())
        << "row " << row;
  }
  const auto refused = server->Replay(*trace, queries);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->Start().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(dataset.Insert(pool).ok());  // 2 + 4 live rows.
  EXPECT_EQ(server->engine().live_objects(), dataset.live_rows());
  const auto served = server->Replay(*trace, queries);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  for (const serve::ServedResult& result : served->results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(result.neighbors.size(), 5u);
    for (const Neighbor& neighbor : result.neighbors) {
      EXPECT_FALSE(dataset.tombstoned(static_cast<size_t>(neighbor.id)));
    }
  }
}

TEST(MutationModelTest, FleetCountersAndMetricsTrackMutations) {
  const FloatMatrix base = RandomUnitMatrix(40, 8, 0x3A);
  const FloatMatrix extra = RandomUnitMatrix(6, 8, 0x3B);
  EngineOptions options;
  options.shard.shards = 2;
  options.shard.replicas = 2;
  auto built = ShardedPimEngine::Build(base, Distance::kEuclidean, options);
  ASSERT_TRUE(built.ok());
  auto engine = std::move(*built);

  FleetRunStats stats = engine->FleetStats();
  EXPECT_EQ(stats.appended_rows + stats.deleted_rows + stats.compactions +
                stats.delta_rows + stats.tombstoned_rows + stats.worn_rows,
            0u);
  EXPECT_EQ(stats.ToString().find("mutation:"), std::string::npos);
  ASSERT_TRUE(engine->AppendRows(extra).ok());
  ASSERT_TRUE(engine->DeleteRow(3).ok());
  ASSERT_TRUE(engine->DeleteRow(41).ok());
  stats = engine->FleetStats();
  EXPECT_EQ(stats.appended_rows, 6u);
  EXPECT_EQ(stats.deleted_rows, 2u);
  EXPECT_EQ(stats.delta_rows, 6u);
  EXPECT_EQ(stats.tombstoned_rows, 2u);
  EXPECT_EQ(stats.compactions, 0u);
  // Every replica of every shard programs its copy: (40 base + 6 delta)
  // rows x 2 replicas.
  EXPECT_EQ(stats.row_writes, 2u * 46u);
  EXPECT_NE(stats.ToString().find("mutation:"), std::string::npos);

  ASSERT_TRUE(engine->Compact().ok());
  stats = engine->FleetStats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.compacted_rows, 44u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.tombstoned_rows, 0u);
  EXPECT_EQ(engine->num_objects(), 44u);
  EXPECT_EQ(stats.row_writes, 2u * (46u + 44u));

  obs::MetricsRegistry registry;
  engine->ExportMetrics(&registry);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("pimine_mutation_appended_rows_total 6"),
            std::string::npos);
  EXPECT_NE(text.find("pimine_mutation_deleted_rows_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("pimine_mutation_compactions_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("pimine_mutation_delta_rows 0"), std::string::npos);
}

// The fleet records each delete once: a refused delete (out of range,
// already deleted, or a shard's last live row) returns its code and
// changes neither the deleted flags nor the fleet's counters, whatever the
// replica count.
TEST(MutationModelTest, RefusedDeletesLeaveTheFleetUnchanged) {
  const FloatMatrix base = RandomUnitMatrix(12, 8, 0x3C);
  for (int replicas : {1, 2}) {
    SCOPED_TRACE("replicas=" + std::to_string(replicas));
    EngineOptions options;
    options.shard.shards = 2;
    options.shard.replicas = replicas;
    auto built = ShardedPimEngine::Build(base, Distance::kEuclidean, options);
    ASSERT_TRUE(built.ok());
    ShardedPimEngine& fleet = **built;
    // Every row of shard 0 but its last.
    const std::vector<uint32_t> shard0 = fleet.shard_map().rows_per_shard[0];
    ASSERT_GE(shard0.size(), 2u);
    for (size_t i = 0; i + 1 < shard0.size(); ++i) {
      ASSERT_TRUE(fleet.DeleteRow(shard0[i]).ok());
    }

    const auto deleted_flags = [&] {
      std::vector<bool> flags;
      for (size_t i = 0; i < fleet.num_objects(); ++i) {
        flags.push_back(fleet.IsDeleted(i));
      }
      return flags;
    };
    const std::vector<bool> flags = deleted_flags();
    const size_t live = fleet.live_objects();
    const FleetRunStats stats = fleet.FleetStats();
    ASSERT_EQ(live, base.rows() + 1 - shard0.size());
    ASSERT_EQ(stats.deleted_rows, shard0.size() - 1);
    ASSERT_EQ(stats.tombstoned_rows, shard0.size() - 1);

    const struct {
      size_t row;
      StatusCode code;
    } refused[] = {
        {fleet.num_objects(), StatusCode::kInvalidArgument},  // out of range.
        {shard0[0], StatusCode::kInvalidArgument},            // twice.
        {shard0.back(), StatusCode::kFailedPrecondition},     // last live.
    };
    for (const auto& r : refused) {
      EXPECT_EQ(fleet.DeleteRow(r.row).code(), r.code) << "row " << r.row;
      EXPECT_EQ(deleted_flags(), flags) << "row " << r.row;
      EXPECT_EQ(fleet.live_objects(), live) << "row " << r.row;
      const FleetRunStats after = fleet.FleetStats();
      EXPECT_EQ(after.deleted_rows, stats.deleted_rows) << "row " << r.row;
      EXPECT_EQ(after.tombstoned_rows, stats.tombstoned_rows)
          << "row " << r.row;
      EXPECT_EQ(after.ToString(), stats.ToString()) << "row " << r.row;
    }
  }
}

/// Parsed ops in the trace grammar, each delete as a range.
std::string FormatTrace(const std::vector<MutationOp>& ops) {
  std::string out;
  for (const MutationOp& op : ops) {
    if (!out.empty()) out += ",";
    switch (op.kind) {
      case MutationOp::Kind::kInsert:
        out += "i:" + std::to_string(op.count);
        break;
      case MutationOp::Kind::kDelete:
        out += "d:" + std::to_string(op.first) + "-" + std::to_string(op.last);
        break;
      case MutationOp::Kind::kCompact:
        out += "c";
        break;
    }
  }
  return out;
}

struct ParsedTrace {
  std::string_view trace;
  std::string_view ops;  // FormatTrace of the parse.
};

constexpr ParsedTrace kValidTraces[] = {
    {"", ""},
    {"c", "c"},
    {"i:256,d:0-127,c,i:64", "i:256,d:0-127,c,i:64"},
    {"d:5", "d:5-5"},
    {"d:3-3,d:0,c,c", "d:3-3,d:0-0,c,c"},
    {"i:007", "i:7"},
    {"i:4294967295,d:0-4294967295", "i:4294967295,d:0-4294967295"},
};

TEST(MutationTraceParseTest, ParsesValidAndRejectsMalformedTraces) {
  for (const ParsedTrace& valid : kValidTraces) {
    const auto parsed = ParseMutationTrace(valid.trace);
    ASSERT_TRUE(parsed.ok()) << valid.trace << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(FormatTrace(*parsed), valid.ops) << valid.trace;
  }
  for (const std::string_view malformed :
       {"i:1,,c", "i:1,", ",c", "i:0", "d:5-3", "d:-1", "d:1-", "i:+1",
        "i:4294967296", "d:0-4294967296", "i:", "i", "c:1", "x:1", " c",
        "i:1 ", "i:0x10", ","}) {
    const auto parsed = ParseMutationTrace(malformed);
    ASSERT_FALSE(parsed.ok()) << malformed;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << malformed;
  }
}

// Seeded fuzz over the grammar's alphabet: valid traces with characters
// replaced, inserted and erased. Every result parses to ops that format
// back to an equal parse, or fails with InvalidArgument; nothing crashes
// (the ASan+UBSan job runs this).
TEST(MutationTraceParseTest, MutatedTracesParseOrFailCleanly) {
  constexpr std::string_view kAlphabet = "icd:-,0123456789";
  size_t parsed_ok = 0;
  for (uint64_t round = 0; round < 20000; ++round) {
    uint64_t draw = Mix(round);
    std::string trace(kValidTraces[draw % std::size(kValidTraces)].trace);
    const int edits = 1 + static_cast<int>((draw >> 8) % 4);
    for (int e = 0; e < edits; ++e) {
      draw = Mix(draw);
      const size_t pos = (draw >> 8) % (trace.size() + 1);
      const char c = kAlphabet[(draw >> 32) % kAlphabet.size()];
      switch (draw % 3) {
        case 0:
          if (pos < trace.size()) trace[pos] = c;
          break;
        case 1:
          trace.insert(trace.begin() + static_cast<ptrdiff_t>(pos), c);
          break;
        default:
          if (pos < trace.size()) trace.erase(pos, 1);
          break;
      }
    }
    const auto parsed = ParseMutationTrace(trace);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << trace;
      continue;
    }
    ++parsed_ok;
    const size_t ops = trace.empty() ? 0 : 1 + std::count(trace.begin(),
                                                          trace.end(), ',');
    EXPECT_EQ(parsed->size(), ops) << trace;
    for (const MutationOp& op : *parsed) {
      EXPECT_TRUE(op.kind != MutationOp::Kind::kInsert || op.count > 0)
          << trace;
      EXPECT_TRUE(op.kind != MutationOp::Kind::kDelete || op.first <= op.last)
          << trace;
    }
    const auto reparsed = ParseMutationTrace(FormatTrace(*parsed));
    ASSERT_TRUE(reparsed.ok()) << trace;
    EXPECT_EQ(FormatTrace(*reparsed), FormatTrace(*parsed)) << trace;
  }
  // The budget reaches both outcomes.
  EXPECT_GT(parsed_ok, 100u);
  EXPECT_LT(parsed_ok, 19900u);
}

}  // namespace
}  // namespace pimine
