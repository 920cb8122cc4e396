// Figure 8: data-transfer cost per distance evaluation — d*b bits on the
// conventional architecture vs 3*b bits with the PIM-aware decomposition.
// Measured from the instrumented traffic counters on a pure scan (no
// pruning), so the per-candidate cost is directly observable.

#include <iostream>

#include "bench_common.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "sim/traffic.h"

namespace pimine {
namespace bench {
namespace {

void Run() {
  Banner("Figure 8: per-candidate data transfer, exact ED vs PIM-aware G");

  TablePrinter table({"dataset", "d", "conventional bits (d*b)",
                      "measured", "PIM bits (3*b)", "measured"});
  for (const char* name : {"ImageNet", "MSD", "GIST", "Trevi"}) {
    const BenchWorkload w = LoadWorkload(name, /*n=*/2000, /*num_queries=*/2);
    const size_t n = w.data.rows();
    const size_t d = w.data.cols();

    // Conventional: exact ED for every candidate (full scan, no abandon).
    uint64_t conventional_bits = 0;
    {
      traffic::AggregateScope scope;
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        for (size_t i = 0; i < n; ++i) {
          SquaredEuclidean(w.data.row(i), w.queries.row(q));
        }
      }
      conventional_bits =
          scope.Delta().traffic.bytes_from_memory * 8 / (n * w.queries.rows());
    }

    // PIM-aware: one combine per candidate (PIM result + Phi scalar).
    uint64_t pim_bits = 0;
    {
      auto engine_or = ShardedPimEngine::Build(w.data, Distance::kEuclidean,
                                               EngineOptions());
      PIMINE_CHECK(engine_or.ok());
      const ShardedPimEngine& engine = **engine_or;
      traffic::AggregateScope scope;
      std::vector<double> bounds(n);
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        auto batch = engine.RunQueryBatch(w.queries.row(q), 1);
        PIMINE_CHECK(batch.ok()) << batch.status().ToString();
        engine.BoundsFor(*batch, 0, bounds);
      }
      const TrafficCounters delta = scope.Delta().traffic;
      pim_bits = (delta.bytes_from_memory * 8 +
                  delta.pim_results_loaded * 64) /
                 (n * w.queries.rows());
    }

    table.AddRow({name, std::to_string(d), std::to_string(d * 32),
                  std::to_string(conventional_bits), "96",
                  std::to_string(pim_bits)});
  }
  table.Print();
  std::cout << "\nPaper reference (Fig. 8): computing ED(p,q) moves d*b "
               "bits; the decomposition G moves 3*b. Measured PIM bits "
               "include the 64-bit result plus the pre-computed Phi "
               "scalar.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
