// Micro-benchmark for the parallel batch-query layer: StandardKnn wall time
// at 1/2/4/8 worker threads, with a bit-identity check of neighbours and
// aggregated traffic against the serial run. Emitted as one JSON document
// on stdout.
//
// Speedups are measured on whatever machine runs this — a single-core
// container will honestly report ~1x thread scaling; the determinism checks
// hold regardless.
//
// Usage: bench_micro_batch_kernels [n] [num_queries]   (default 20000, 8)

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "data/generator.h"
#include "knn/standard_knn.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pimine {
namespace bench {
namespace {

FloatMatrix MakeData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "micro";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 16;
  spec.cluster_std = 0.08;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

bool SameNeighbors(const KnnRunResult& a, const KnnRunResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t q = 0; q < a.neighbors.size(); ++q) {
    if (a.neighbors[q].size() != b.neighbors[q].size()) return false;
    for (size_t j = 0; j < a.neighbors[q].size(); ++j) {
      if (a.neighbors[q][j].id != b.neighbors[q][j].id ||
          a.neighbors[q][j].distance != b.neighbors[q][j].distance) {
        return false;
      }
    }
  }
  return true;
}

void ScalingSection(std::ostream& out, size_t n, size_t num_queries) {
  const size_t d = 420;  // the acceptance-point dimensionality (MSD-like).
  const int k = 10;
  const FloatMatrix data = MakeData(n, d, kBenchSeed);
  DatasetSpec spec;
  spec.name = "micro";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 16;
  spec.cluster_std = 0.08;
  const FloatMatrix queries = DatasetGenerator::GenerateQueries(
      spec, data, static_cast<int64_t>(num_queries), kBenchSeed + 1);

  StandardKnn knn;
  PIMINE_CHECK_OK(knn.Prepare(data));

  // Serial baseline: the reference for both wall time and identity.
  auto baseline = knn.Search(queries, k);
  PIMINE_CHECK(baseline.ok());
  Timer baseline_timer;
  baseline = knn.Search(queries, k);
  PIMINE_CHECK(baseline.ok());
  const double baseline_ms = baseline_timer.ElapsedMillis();

  out << "  \"scaling\": [\n";
  bool first = true;
  for (int threads : {1, 2, 4, 8}) {
    knn.set_exec_policy(ExecPolicy::WithThreads(threads));
    auto warm = knn.Search(queries, k);
    PIMINE_CHECK(warm.ok());
    Timer timer;
    auto run = knn.Search(queries, k);
    PIMINE_CHECK(run.ok());
    const double ms = timer.ElapsedMillis();

    const bool identical = SameNeighbors(*baseline, *run) &&
                           baseline->stats.traffic == run->stats.traffic;
    PIMINE_CHECK(identical)
        << "parallel run diverged from serial (threads=" << threads << ")";

    if (!first) out << ",\n";
    first = false;
    out << "    {\"threads\": " << threads
        << ", \"wall_ms\": " << Fmt(ms, 3)
        << ", \"speedup_vs_serial\": "
        << Fmt(baseline_ms / std::max(1e-9, ms), 3)
        << ", \"identical_to_serial\": "
        << (identical ? "true" : "false") << "}";
  }
  out << "\n  ],\n";
}

void Run(size_t n, size_t num_queries) {
  std::cout << "{\n";
  std::cout << "  \"bench\": \"micro_batch_kernels\",\n";
  std::cout << "  \"n\": " << n << ",\n";
  std::cout << "  \"num_queries\": " << num_queries << ",\n";
  std::cout << "  \"hardware_threads\": "
            << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
  ScalingSection(std::cout, n, num_queries);
  std::cout << "  \"note\": \"thread speedups are bounded by the hardware "
               "thread count of the machine running this binary\"\n";
  std::cout << "}\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

namespace {

bool ParsePositive(const char* arg, size_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0' || v <= 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 20000;
  size_t num_queries = 8;
  if ((argc > 1 && !ParsePositive(argv[1], &n)) ||
      (argc > 2 && !ParsePositive(argv[2], &num_queries))) {
    std::cerr << "usage: " << argv[0] << " [n] [num_queries]\n"
              << "  n            dataset size, positive integer (default "
                 "20000)\n"
              << "  num_queries  batch size, positive integer (default 8)\n";
    return 2;
  }
  pimine::bench::Run(n, num_queries);
  return 0;
}
