// Golden-stats regression harness: runs every kNN Search() path, every
// k-means algorithm, both outlier detectors, both motif finders and the two
// extension paths (approximate kNN, partitioned re-programming) on fixed
// seeded workloads and compares the
// deterministic RunStats surface (exact/bound counts, all traffic
// counters, modeled PIM ns) against snapshots in tests/golden/. Any change
// to pruning behaviour, traffic accounting, or the device timing model
// shows up as a byte diff here.
//
// MetricsExposition pins the Prometheus and JSON metrics exposition of a
// serving replay, a faulted kNN search and a k-means run the same way.
//
// Regenerating after an intentional model change:
//   PIMINE_REGEN_GOLDEN=1 ./golden_stats_test
// then commit the rewritten tests/golden/ files.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mutable_dataset.h"
#include "core/partitioned_engine.h"
#include "data/generator.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "knn/approximate_pim_knn.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/motif.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/outlier.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "obs/obs.h"
#include "pim/fault_model.h"
#include "profiling/run_stats.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "util/random.h"

#ifndef PIMINE_GOLDEN_DIR
#error "PIMINE_GOLDEN_DIR must be defined by the build"
#endif

namespace pimine {
namespace {

struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload() {
  DatasetSpec spec;
  spec.name = "golden";
  spec.dims = 32;
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w;
  w.data = DatasetGenerator::Generate(spec, 300, 42);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 9, 43);
  return w;
}

/// A double as %.17g, which round-trips exactly.
std::string Exact(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

/// The deterministic (non-wall-clock) RunStats surface, one key per line.
/// pim_ns goes through Exact, so the snapshot is bit-faithful.
std::string Render(const RunStats& stats) {
  std::ostringstream out;
  out << "exact_count=" << stats.exact_count << "\n";
  out << "bound_count=" << stats.bound_count << "\n";
  out << "bytes_from_memory=" << stats.traffic.bytes_from_memory << "\n";
  out << "bytes_to_memory=" << stats.traffic.bytes_to_memory << "\n";
  out << "arithmetic_ops=" << stats.traffic.arithmetic_ops << "\n";
  out << "long_ops=" << stats.traffic.long_ops << "\n";
  out << "branches=" << stats.traffic.branches << "\n";
  out << "pim_results_loaded=" << stats.traffic.pim_results_loaded << "\n";
  out << "footprint_bytes=" << stats.footprint_bytes << "\n";
  out << "pim_ns=" << Exact(stats.pim_ns) << "\n";
  return out.str();
}

/// Compares `rendered` with tests/golden/<file>.
void CheckFileAgainstGolden(const std::string& file,
                            const std::string& rendered) {
  const std::string path = std::string(PIMINE_GOLDEN_DIR) + "/" + file;

  if (std::getenv("PIMINE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with PIMINE_REGEN_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered)
      << file << ": output diverged from " << path
      << ". If the change is intentional, regenerate with "
      << "PIMINE_REGEN_GOLDEN=1 ./golden_stats_test and commit the diff.";
}

/// Compares `rendered` with tests/golden/<label>.txt.
void CheckTextAgainstGolden(const std::string& label,
                            const std::string& rendered) {
  CheckFileAgainstGolden(label + ".txt", rendered);
}

void CheckAgainstGolden(const std::string& label, const RunStats& stats) {
  CheckTextAgainstGolden(label, Render(stats));
}

struct KnnGoldenCase {
  std::string label;
  std::function<std::unique_ptr<KnnAlgorithm>()> make;
};

std::vector<KnnGoldenCase> KnnCases() {
  std::vector<KnnGoldenCase> cases;
  cases.push_back({"knn_standard", [] {
                     return std::make_unique<StandardKnn>();
                   }});
  cases.push_back({"knn_ost", [] { return std::make_unique<OstKnn>(); }});
  cases.push_back({"knn_sm", [] { return std::make_unique<SmKnn>(); }});
  cases.push_back({"knn_fnn", [] { return std::make_unique<FnnKnn>(); }});
  cases.push_back({"knn_standard_pim", [] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kEuclidean, EngineOptions());
                   }});
  cases.push_back({"knn_ost_pim", [] {
                     return std::make_unique<OstPimKnn>(EngineOptions());
                   }});
  cases.push_back({"knn_sm_pim", [] {
                     return std::make_unique<SmPimKnn>(EngineOptions());
                   }});
  cases.push_back({"knn_fnn_pim", [] {
                     return std::make_unique<FnnPimKnn>(EngineOptions(),
                                                        /*optimize=*/true);
                   }});
  return cases;
}

TEST(GoldenStatsTest, KnnSearchPaths) {
  const Workload w = MakeWorkload();
  for (const KnnGoldenCase& c : KnnCases()) {
    auto algorithm = c.make();
    ASSERT_TRUE(algorithm->Prepare(w.data).ok()) << c.label;
    auto result = algorithm->Search(w.queries, 5);
    ASSERT_TRUE(result.ok()) << c.label;
    CheckAgainstGolden(c.label, result->stats);
  }
}

struct KmeansGoldenCase {
  std::string label;
  std::function<std::unique_ptr<KmeansAlgorithm>()> make;
};

std::vector<KmeansGoldenCase> KmeansCases() {
  std::vector<KmeansGoldenCase> cases;
  cases.push_back(
      {"kmeans_lloyd", [] { return std::make_unique<LloydKmeans>(); }});
  cases.push_back(
      {"kmeans_elkan", [] { return std::make_unique<ElkanKmeans>(); }});
  cases.push_back(
      {"kmeans_hamerly", [] { return std::make_unique<HamerlyKmeans>(); }});
  cases.push_back(
      {"kmeans_yinyang", [] { return std::make_unique<YinyangKmeans>(); }});
  cases.push_back(
      {"kmeans_drake", [] { return std::make_unique<DrakeKmeans>(); }});
  return cases;
}

TEST(GoldenStatsTest, KmeansAlgorithms) {
  const Workload w = MakeWorkload();
  KmeansOptions options;
  options.k = 8;
  options.max_iterations = 3;
  options.seed = 123;
  options.use_pim = true;  // exercises the PIM filter's pim_ns too.
  for (const KmeansGoldenCase& c : KmeansCases()) {
    auto algorithm = c.make();
    auto result = algorithm->Run(w.data, options);
    ASSERT_TRUE(result.ok()) << c.label;
    CheckAgainstGolden(c.label, result->stats);
    // A fault-free filter loads one PIM result per bound it evaluates.
    EXPECT_EQ(result->stats.bound_count,
              result->stats.traffic.pim_results_loaded)
        << c.label;
  }
}

// ORCA outlier detection on the kNN workload: the host nested loop and its
// PIM-ordered variant, which must report the same outliers.
TEST(GoldenStatsTest, OutlierDetectors) {
  const Workload w = MakeWorkload();
  OutlierOptions options;
  options.k = 5;
  options.num_outliers = 10;
  auto host = OrcaOutlierDetector().Detect(w.data, options);
  ASSERT_TRUE(host.ok());
  CheckAgainstGolden("outlier_orca", host->stats);
  // A coarse segment bound leaves most candidates to the refine step, so
  // the walk meets ORCA's cutoff rather than the end of the bound order.
  EngineOptions engine_options;
  engine_options.bound = EngineOptions::Bound::kSegmentSm;
  engine_options.force_segments = 4;
  auto pim = OrcaPimOutlierDetector(engine_options).Detect(w.data, options);
  ASSERT_TRUE(pim.ok());
  CheckAgainstGolden("outlier_orca_pim", pim->stats);
  ASSERT_EQ(host->outliers.size(), pim->outliers.size());
  for (size_t i = 0; i < host->outliers.size(); ++i) {
    EXPECT_EQ(host->outliers[i].id, pim->outliers[i].id) << i;
    EXPECT_EQ(host->outliers[i].distance, pim->outliers[i].distance) << i;
  }
}

// Motif discovery over the sliding windows of a seeded random walk: the
// brute-force closest pair and its PIM-screened variant.
TEST(GoldenStatsTest, MotifFinders) {
  Rng rng(44);
  std::vector<float> series(600);
  double level = 0.0;
  for (float& v : series) {
    level += rng.NextGaussian(0.0, 1.0);
    v = static_cast<float>(level);
  }
  auto windows = ExtractWindows(series, 32);
  ASSERT_TRUE(windows.ok());
  MotifOptions options;
  options.window = 32;
  auto host = MotifDiscovery().Find(*windows, options);
  ASSERT_TRUE(host.ok());
  CheckAgainstGolden("motif_brute", host->stats);
  auto pim = PimMotifDiscovery(EngineOptions()).Find(*windows, options);
  ASSERT_TRUE(pim.ok());
  CheckAgainstGolden("motif_pim", pim->stats);
  EXPECT_EQ(host->first, pim->first);
  EXPECT_EQ(host->second, pim->second);
  EXPECT_EQ(host->distance, pim->distance);
}

// The §II-A approximate kNN at the paper's alpha and at a coarse one. It
// never refines, so its answers are pinned too: every neighbour's id and
// distance.
TEST(GoldenStatsTest, ApproximatePimKnn) {
  const Workload w = MakeWorkload();
  std::ostringstream out;
  for (const auto& [alpha, operand_bits] :
       {std::pair<double, int>{1e6, 32}, std::pair<double, int>{16.0, 5}}) {
    EngineOptions options;
    options.alpha = alpha;
    options.operand_bits = operand_bits;
    ApproximatePimKnn approx(options);
    ASSERT_TRUE(approx.Prepare(w.data).ok());
    auto result = approx.Search(w.queries, 5);
    ASSERT_TRUE(result.ok());
    out << "alpha=" << Exact(alpha) << "\n" << Render(result->stats);
    for (const std::vector<Neighbor>& neighbors : result->neighbors) {
      out << "neighbors=";
      for (const Neighbor& nb : neighbors) {
        out << " " << nb.id << ":" << Exact(nb.distance);
      }
      out << "\n";
    }
  }
  CheckTextAgainstGolden("knn_approx_pim", out.str());
}

// The §VII partitioned engine over two query batches on a one-crossbar
// array that holds a fraction of the golden corpus: after each batch, an
// FNV-1a digest of the bounds' bit patterns and the device figures
// bench_ext_reprogram reports.
TEST(GoldenStatsTest, PartitionedReprogram) {
  const Workload w = MakeWorkload();
  EngineOptions options;
  options.pim_config.num_crossbars = 1;
  auto built = PartitionedPimEngine::Build(w.data, options);
  ASSERT_TRUE(built.ok());
  PartitionedPimEngine& engine = **built;
  ASSERT_GE(engine.num_partitions(), 2);
  std::ostringstream out;
  out << "partitions=" << engine.num_partitions() << "\n";
  out << "partition_rows=" << engine.partition_rows() << "\n";
  const size_t d = w.queries.cols();
  const size_t split = 5;
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, split},
        std::pair<size_t, size_t>{split, w.queries.rows()}}) {
    const FloatMatrix batch(end - begin, d,
                            std::vector<float>(w.queries.data() + begin * d,
                                               w.queries.data() + end * d));
    std::vector<std::vector<double>> bounds;
    ASSERT_TRUE(engine.ComputeBoundsBatch(batch, &bounds).ok());
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::vector<double>& row : bounds) {
      for (double bound : row) {
        const uint64_t bits = std::bit_cast<uint64_t>(bound);
        for (int byte = 0; byte < 8; ++byte) {
          digest = (digest ^ ((bits >> (8 * byte)) & 0xff)) *
                   0x100000001b3ULL;
        }
      }
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    out << "batch=" << begin << "-" << end << "\n";
    out << "bounds_fnv1a=" << hex << "\n";
    out << "pim_compute_ns=" << Exact(engine.PimComputeNs()) << "\n";
    out << "reprogram_ns=" << Exact(engine.ReprogramNs()) << "\n";
    out << "programming_events=" << engine.ProgrammingEvents() << "\n";
    out << "endurance_remaining="
        << Exact(engine.EnduranceRemainingFraction()) << "\n";
  }
  CheckTextAgainstGolden("partitioned_reprogram", out.str());
}

// Sharded fleets must reproduce the SAME golden files as the single-device
// runs: every rendered counter is shard-invariant by design (only the
// FleetRunStats block, which Render() excludes, varies with M).
TEST(GoldenStatsTest, ShardedKnnMatchesSingleDeviceGoldens) {
  const Workload w = MakeWorkload();
  for (int shards : {3, 8}) {
    EngineOptions options;
    options.shard.shards = shards;
    std::vector<KnnGoldenCase> cases;
    cases.push_back({"knn_standard_pim", [options] {
                       return std::make_unique<StandardPimKnn>(
                           Distance::kEuclidean, options);
                     }});
    cases.push_back({"knn_ost_pim", [options] {
                       return std::make_unique<OstPimKnn>(options);
                     }});
    cases.push_back({"knn_sm_pim", [options] {
                       return std::make_unique<SmPimKnn>(options);
                     }});
    cases.push_back({"knn_fnn_pim", [options] {
                       return std::make_unique<FnnPimKnn>(options,
                                                          /*optimize=*/true);
                     }});
    for (const KnnGoldenCase& c : cases) {
      auto algorithm = c.make();
      ASSERT_TRUE(algorithm->Prepare(w.data).ok()) << c.label;
      auto result = algorithm->Search(w.queries, 5);
      ASSERT_TRUE(result.ok()) << c.label;
      CheckAgainstGolden(c.label, result->stats);
      EXPECT_GT(result->stats.fleet.scatter_messages, 0u) << c.label;
    }
  }
}

TEST(GoldenStatsTest, ShardedKmeansMatchesSingleDeviceGoldens) {
  const Workload w = MakeWorkload();
  for (int shards : {3, 8}) {
    KmeansOptions options;
    options.k = 8;
    options.max_iterations = 3;
    options.seed = 123;
    options.use_pim = true;
    options.engine_options.shard.shards = shards;
    for (const KmeansGoldenCase& c : KmeansCases()) {
      auto algorithm = c.make();
      auto result = algorithm->Run(w.data, options);
      ASSERT_TRUE(result.ok()) << c.label;
      CheckAgainstGolden(c.label, result->stats);
      EXPECT_EQ(result->stats.bound_count,
                result->stats.traffic.pim_results_loaded)
          << c.label;
      EXPECT_GT(result->stats.fleet.reduce_messages, 0u) << c.label;
    }
  }
}

// A corpus reached THROUGH mutations must be indistinguishable from one
// programmed statically: replaying a canned insert/delete/compact trace
// that reconstructs the golden workload exactly has to reproduce the SAME
// golden files as the static runs above — zero regenerated snapshots.
//
// The trace: program rows 0..249 of the golden corpus plus 20 sacrificial
// rows, append rows 250..299 as deltas, tombstone the sacrificial rows,
// compact. Compaction preserves live order, so the dense corpus equals the
// golden workload row for row.
struct MutationTraceFixture {
  Workload w;
  FloatMatrix base;   // rows 0..249 + 20 sacrificial copies of rows 0..19.
  FloatMatrix tail;   // rows 250..299, appended as deltas.

  MutationTraceFixture() : w(MakeWorkload()) {
    base = FloatMatrix(270, w.data.cols());
    for (size_t r = 0; r < 270; ++r) {
      const auto src = w.data.row(r < 250 ? r : r - 250);
      auto dst = base.mutable_row(r);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    tail = FloatMatrix(50, w.data.cols());
    for (size_t r = 0; r < 50; ++r) {
      const auto src = w.data.row(250 + r);
      auto dst = tail.mutable_row(r);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  /// Replays the canned trace; afterwards dataset->corpus() == w.data.
  void Replay(MutableDataset* dataset) const {
    ASSERT_TRUE(dataset->Insert(tail).ok());
    for (uint32_t victim = 250; victim < 270; ++victim) {
      ASSERT_TRUE(dataset->Delete(victim).ok());
    }
    ASSERT_TRUE(dataset->Compact().ok());
    ASSERT_EQ(dataset->rows(), w.data.rows());
    ASSERT_EQ(dataset->tombstoned_rows(), 0u);
    for (size_t r = 0; r < w.data.rows(); ++r) {
      const auto got = dataset->corpus().row(r);
      const auto want = w.data.row(r);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "row " << r << " of the replayed corpus differs";
    }
  }
};

TEST(GoldenStatsTest, MutatedKnnMatchesStaticGoldensAfterCompaction) {
  const MutationTraceFixture fixture;
  std::vector<KnnGoldenCase> cases;
  cases.push_back({"knn_standard_pim", [] {
                     return std::make_unique<StandardPimKnn>(
                         Distance::kEuclidean, EngineOptions());
                   }});
  cases.push_back({"knn_ost_pim", [] {
                     return std::make_unique<OstPimKnn>(EngineOptions());
                   }});
  cases.push_back({"knn_sm_pim", [] {
                     return std::make_unique<SmPimKnn>(EngineOptions());
                   }});
  // optimize=true: the Eq. 13 plan is re-measured at compaction on the
  // dense corpus, so even the plan-dependent counters must land on the
  // static golden.
  cases.push_back({"knn_fnn_pim", [] {
                     return std::make_unique<FnnPimKnn>(EngineOptions(),
                                                        /*optimize=*/true);
                   }});
  for (const KnnGoldenCase& c : cases) {
    MutableDataset dataset(fixture.base);
    auto algorithm = c.make();
    ASSERT_TRUE(algorithm->Prepare(dataset.corpus()).ok()) << c.label;
    dataset.Attach(dynamic_cast<MutationListener*>(algorithm.get()));
    fixture.Replay(&dataset);
    auto result = algorithm->Search(fixture.w.queries, 5);
    ASSERT_TRUE(result.ok()) << c.label;
    CheckAgainstGolden(c.label, result->stats);
  }
}

TEST(GoldenStatsTest, MutatedFilterMatchesStaticKmeansGoldens) {
  const MutationTraceFixture fixture;
  MutableDataset dataset(fixture.base);
  auto filter_built = PimAssignFilter::Build(dataset.corpus(), EngineOptions());
  ASSERT_TRUE(filter_built.ok());
  std::unique_ptr<PimAssignFilter> filter = std::move(*filter_built);
  dataset.Attach(filter.get());
  fixture.Replay(&dataset);

  KmeansOptions options;
  options.k = 8;
  options.max_iterations = 3;
  options.seed = 123;
  options.use_pim = true;
  options.filter = filter.get();
  // Every Run opens on its RunScope, which resets the shared filter's
  // online stats, so each run matches a fresh-built filter's golden. The
  // mutation counters survive the reset (they are maintenance totals).
  for (const KmeansGoldenCase& c : KmeansCases()) {
    auto algorithm = c.make();
    auto result = algorithm->Run(dataset.corpus(), options);
    ASSERT_TRUE(result.ok()) << c.label;
    CheckAgainstGolden(c.label, result->stats);
  }
}

// The metrics exposition of three observed runs, byte for byte: a serial
// replay on a 2-shard x 2-replica fleet (transient faults, chaos deaths, a
// mutation trace ending in a compaction, two weighted tenants and a
// deadline), a 3-shard Standard-PIM kNN search whose faulted device ops
// fail over to the host (VerifyMode::kFailOp), and a 2-shard Elkan-PIM
// k-means run. Every family the serving, fleet, device and run layers
// export is in the pinned text, with its help text and its values.
TEST(GoldenStatsTest, MetricsExposition) {
  const Workload w = MakeWorkload();
  obs::Obs::Enable();

  {
    // The last 30 rows are the insert stream of the mutation trace.
    const size_t base_rows = w.data.rows() - 30;
    FloatMatrix base(base_rows, w.data.cols());
    FloatMatrix inserts(30, w.data.cols());
    for (size_t r = 0; r < w.data.rows(); ++r) {
      const auto src = w.data.row(r);
      auto dst = r < base_rows ? base.mutable_row(r)
                               : inserts.mutable_row(r - base_rows);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    MutableDataset dataset(std::move(base));
    EngineOptions engine;
    engine.shard.shards = 2;
    engine.shard.replicas = 2;
    engine.fault_config.transient_rate = 2e-3;
    serve::ServeOptions options;
    options.max_batch = 8;
    options.max_wait_ns = 2000;
    options.k = 5;
    options.exec.device_batch = 4;
    options.tenants = {{"gold", 3}, {"free", 1}};
    options.deadline_ns = 20'000;
    options.chaos.device_deaths = 2;
    options.chaos.horizon_ns = 40'000;
    options.chaos.seed = 4242;
    auto server = serve::PimServer::Build(dataset.corpus(),
                                          Distance::kEuclidean, engine,
                                          options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE((*server)->AttachMutable(&dataset).ok());
    const auto ops = ParseMutationTrace("i:20,d:0-11,i:10,c");
    ASSERT_TRUE(ops.ok());
    size_t stream_pos = 0;
    ASSERT_TRUE(
        ApplyMutationTrace(&dataset, *ops, inserts, &stream_pos).ok());

    serve::WorkloadSpec spec;
    spec.num_requests = 96;
    spec.offered_qps = 2e6;
    spec.tenant_share = {1.0, 1.0};
    spec.num_query_rows = static_cast<uint32_t>(w.queries.rows());
    spec.seed = 7;
    const auto trace = serve::GeneratePoissonTrace(spec);
    ASSERT_TRUE(trace.ok());
    const auto output = (*server)->Replay(*trace, w.queries);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    EXPECT_GT(output->stats.exec.fleet.failover.injected, 0u);
    EXPECT_GT(output->stats.exec.fleet.compactions, 0u);
  }
  {
    EngineOptions options;
    options.shard.shards = 3;
    options.fault_config.transient_rate = 0.05;
    options.recovery.verify_mode = VerifyMode::kFailOp;
    StandardPimKnn knn(Distance::kEuclidean, options);
    ASSERT_TRUE(knn.Prepare(w.data).ok());
    const auto result = knn.Search(w.queries, 5);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->stats.fleet.failovers, 0u);
  }
  {
    KmeansOptions options;
    options.k = 8;
    options.max_iterations = 3;
    options.seed = 123;
    options.use_pim = true;
    options.engine_options.shard.shards = 2;
    ElkanKmeans elkan;
    ASSERT_TRUE(elkan.Run(w.data, options).ok());
  }

  const obs::MetricsRegistry& metrics = obs::Obs::Get()->metrics();
  CheckFileAgainstGolden("metrics_exposition.prom", metrics.ToPrometheus());
  CheckFileAgainstGolden("metrics_exposition.json", metrics.ToJson());
  obs::Obs::Disable();
}

}  // namespace
}  // namespace pimine
