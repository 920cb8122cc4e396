// Figure 16: effect of execution-plan optimization (§V-D) on FNN. Compares
// FNN, FNN-PIM (PIM bound replaces the first level, original levels kept),
// FNN-PIM-optimize (Eq. 13 keeps only the profitable bounds), and the
// FNN-PIM-oracle lower bound. Paper finding to reproduce: the optimized
// plan removes the now-redundant original bounds and closes most of the
// gap to the oracle.

#include <iostream>

#include "bench_common.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "profiling/modeled_time.h"

namespace pimine {
namespace bench {
namespace {

void Run() {
  const HostCostModel model;
  Banner("Figure 16: execution-plan optimization (MSD, k=10)");

  const BenchWorkload w = LoadWorkload("MSD");
  const EngineOptions options = ScaledEngineOptions(w);

  FnnKnn fnn;
  PIMINE_CHECK_OK(fnn.Prepare(w.data));
  const BenchPoint base = RunKnnPoint(fnn, w.queries, 10, model);

  // Oracle from the baseline profile (Eq. 2 projected onto modeled time).
  const double offloadable_ns =
      static_cast<double>(base.stats.profile.OffloadableNs());
  const double wall_ns = base.stats.wall_ms * 1e6;
  const double oracle_ms =
      base.model_ms *
      (wall_ns > 0 ? PimOracleNs(wall_ns, offloadable_ns) / wall_ns : 0.0);

  FnnPimKnn plain(options, /*optimize=*/false);
  PIMINE_CHECK_OK(plain.Prepare(w.data));
  const BenchPoint pim = RunKnnPoint(plain, w.queries, 10, model);

  FnnPimKnn optimized(options, /*optimize=*/true);
  PIMINE_CHECK_OK(optimized.Prepare(w.data));
  const BenchPoint opt = RunKnnPoint(optimized, w.queries, 10, model);

  TablePrinter table({"algorithm", "model_ms", "plan"});
  table.AddRow({"FNN", Fmt(base.model_ms), "LB_FNN^7 -> ^28 -> ^105 -> ED"});
  table.AddRow({"FNN-PIM", Fmt(pim.model_ms),
                plain.plan().ToString(plain.candidates())});
  table.AddRow({"FNN-PIM-optimize", Fmt(opt.model_ms),
                optimized.plan().ToString(optimized.candidates())});
  table.AddRow({"FNN-PIM-oracle", Fmt(oracle_ms), "(Eq. 2 lower bound)"});
  table.Print();

  std::cout << "\nMeasured candidate pruning ratios (offline, Eq. 13 "
               "inputs):\n";
  TablePrinter candidates({"bound", "transfer bits", "prune ratio %"});
  for (const BoundCandidate& c : optimized.candidates()) {
    candidates.AddRow({c.name, Fmt(c.transfer_bits, 0),
                       Fmt(100.0 * c.pruning_ratio, 1)});
  }
  candidates.Print();

  std::cout << "\nPaper reference: FNN-PIM-optimize drops the remaining "
               "original bounds and lands close to FNN-PIM-oracle.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
