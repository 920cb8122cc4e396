// Extension ablation (the paper's §VII future work): when the dataset
// exceeds the PIM array, compare the two escape hatches —
//   (a) Theorem 4 compression (segment bounds at reduced s; one program,
//       no wear), vs
//   (b) partitioned re-programming at full dimensionality (tight Theorem 1
//       bounds; P reprograms per query batch, endurance consumed).
// Reports bound tightness (pruning ratio), modeled online time including
// reprogram latency, and endurance budget per batch.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/partitioned_engine.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"

namespace pimine {
namespace bench {
namespace {

// Share of objects whose bound exceeds the k-th exact distance. Aborts if
// any bound exceeds its exact squared ED: a lower bound that does could
// prune a true neighbour.
double PruneRatio(const FloatMatrix& data, const FloatMatrix& queries,
                  const std::vector<std::vector<double>>& bounds, int k) {
  double total = 0.0;
  std::vector<double> exact(data.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    for (size_t i = 0; i < data.rows(); ++i) {
      exact[i] = SquaredEuclidean(data.row(i), queries.row(q));
      PIMINE_CHECK(bounds[q][i] <= exact[i])
          << "bound " << bounds[q][i] << " above the exact squared ED "
          << exact[i] << " (query " << q << ", object " << i << ")";
    }
    std::vector<double> sorted = exact;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end());
    const double tau = sorted[k - 1];
    size_t pruned = 0;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (bounds[q][i] > tau) ++pruned;
    }
    total += static_cast<double>(pruned) / data.rows();
  }
  return total / queries.rows();
}

void Run() {
  Banner("Extension: Theorem 4 compression vs partitioned re-programming "
         "(MSD profile, PIM array 4x too small)");

  const BenchWorkload w = LoadWorkload("MSD", /*n=*/6000, /*num_queries=*/8);
  // Budget ~1/4 of what the full-dimensionality dataset needs (2 copies).
  EngineOptions tight;
  tight.pim_config.num_crossbars = 400;

  // (a) compression.
  auto compressed_or =
      ShardedPimEngine::Build(w.data, Distance::kEuclidean, tight);
  PIMINE_CHECK(compressed_or.ok()) << compressed_or.status().ToString();
  const ShardedPimEngine& compressed = **compressed_or;
  std::vector<std::vector<double>> comp_bounds(
      w.queries.rows(), std::vector<double>(w.data.rows()));
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    auto batch = compressed.RunQueryBatch(w.queries.row(q), 1);
    PIMINE_CHECK(batch.ok()) << batch.status().ToString();
    compressed.BoundsFor(*batch, 0, comp_bounds[q]);
  }

  // (b) partitioned re-programming.
  auto partitioned_or = PartitionedPimEngine::Build(w.data, tight);
  PIMINE_CHECK(partitioned_or.ok()) << partitioned_or.status().ToString();
  PartitionedPimEngine& partitioned = **partitioned_or;
  std::vector<std::vector<double>> part_bounds;
  PIMINE_CHECK_OK(partitioned.ComputeBoundsBatch(w.queries, &part_bounds));

  TablePrinter table({"scheme", "bound", "prune ratio %", "PIM ms/batch",
                      "reprogram ms/batch", "reprograms/batch"});
  table.AddRow({"compression (Thm. 4)",
                "LB_PIM-FNN^" + std::to_string(compressed.num_segments()),
                Fmt(100.0 * PruneRatio(w.data, w.queries, comp_bounds, 10), 1),
                Fmt(compressed.PimComputeNs() / 1e6, 3), "0",
                "0"});
  table.AddRow(
      {"re-programming (§VII)", "LB_PIM-ED (full d)",
       Fmt(100.0 * PruneRatio(w.data, w.queries, part_bounds, 10), 1),
       Fmt(partitioned.PimComputeNs() / 1e6, 3),
       Fmt(partitioned.ReprogramNs() / 1e6, 3),
       std::to_string(partitioned.num_partitions())});
  table.Print();

  const double batches_to_death =
      tight.pim_config.endurance_writes /
      static_cast<double>(partitioned.num_partitions());
  std::cout << "\nEndurance: at " << partitioned.num_partitions()
            << " reprograms per query batch, the 1e8-write budget allows ~"
            << Fmt(batches_to_death, 0)
            << " batches before cell wear-out — the latency win is real "
               "but the paper's §VII concern (wear + reprogram latency) is "
               "visible.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
