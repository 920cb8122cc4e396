// Figure 18: PIM-optimized k-means vs the PIM-oracle (Eq. 2) across k on
// NUS-WIDE, for the Standard and Drake families. Paper findings to
// reproduce: an obvious gap Standard -> Standard-PIM with Standard-PIM
// close to its oracle, growing with k (a); Drake-PIM bridges most of the
// Drake -> oracle gap (b).

#include <iostream>

#include "bench_common.h"
#include "kmeans/drake.h"
#include "kmeans/lloyd.h"
#include "profiling/modeled_time.h"

namespace pimine {
namespace bench {
namespace {

void RunFamily(const char* title, KmeansAlgorithm& algorithm,
               const BenchWorkload& w, const HostCostModel& model) {
  Banner(title);
  const EngineOptions engine_options = ScaledEngineOptions(w);
  TablePrinter table({"k", "No-PIM model_ms/iter", "PIM model_ms/iter",
                      "PIM-oracle model_ms/iter", "speedup"});
  for (int k : {4, 64, 256, 1024}) {
    KmeansOptions options;
    options.k = k;
    options.max_iterations = 3;
    options.seed = kBenchSeed;

    auto base = algorithm.Run(w.data, options);
    PIMINE_CHECK(base.ok()) << base.status().ToString();
    const double base_ms =
        ComposeModeledTime(base->stats, model).total_ms() / base->iterations;

    // Oracle: zero the ED share of the measured run, projected onto the
    // modeled time (Eq. 2).
    const double wall_ns = base->stats.wall_ms * 1e6;
    const double ed_ns = static_cast<double>(base->stats.profile[Fn::kEd]);
    const double oracle_ms =
        base_ms * (wall_ns > 0 ? PimOracleNs(wall_ns, ed_ns) / wall_ns : 0.0);

    options.use_pim = true;
    options.engine_options = engine_options;
    auto pim = algorithm.Run(w.data, options);
    PIMINE_CHECK(pim.ok()) << pim.status().ToString();
    const double pim_ms =
        ComposeModeledTime(pim->stats, model).total_ms() / pim->iterations;

    table.AddRow({std::to_string(k), Fmt(base_ms, 1), Fmt(pim_ms, 1),
                  Fmt(oracle_ms, 1), Fmt(base_ms / pim_ms, 1) + "x"});
  }
  table.Print();
}

void Run() {
  const HostCostModel model;
  const BenchWorkload w = LoadWorkload("NUS-WIDE", /*n=*/4000,
                                       /*num_queries=*/1);
  LloydKmeans lloyd;
  RunFamily("Figure 18(a): Standard vs Standard-PIM vs oracle (NUS-WIDE)",
            lloyd, w, model);
  DrakeKmeans drake;
  RunFamily("Figure 18(b): Drake vs Drake-PIM vs oracle (NUS-WIDE)", drake,
            w, model);

  std::cout << "\nPaper reference: higher k widens the Standard gap; "
               "Drake-PIM lands close to Drake-PIM-oracle.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
