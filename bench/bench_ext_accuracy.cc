// Extension ablation: the paper's core design argument (§II-A) quantified.
// GraphR-style fixed-point approximation computes distances entirely from
// quantized values and accepts the precision loss; the paper instead uses
// PIM for *bounds* and refines exactly. This bench sweeps the scaling
// factor alpha and reports recall@10 of the approximate approach (degrades
// at coarse alpha) vs the bound approach (always exact), together with the
// crossbar storage each needs.

#include <iostream>

#include "bench_common.h"
#include "knn/approximate_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"
#include "util/bits.h"

namespace pimine {
namespace bench {
namespace {

double MeanRecall(const KnnRunResult& exact, const KnnRunResult& other) {
  double total = 0.0;
  for (size_t q = 0; q < exact.neighbors.size(); ++q) {
    total += RecallAtK(exact.neighbors[q], other.neighbors[q]);
  }
  return total / static_cast<double>(exact.neighbors.size());
}

void Run() {
  const HostCostModel model;
  Banner("Extension: accuracy of approximate PIM vs PIM-aware bounds "
         "(MSD, k=10)");

  const BenchWorkload w = LoadWorkload("MSD", /*n=*/5000);
  StandardKnn standard;
  PIMINE_CHECK_OK(standard.Prepare(w.data));
  auto golden = standard.Search(w.queries, 10);
  PIMINE_CHECK(golden.ok());

  TablePrinter table({"alpha", "operand bits", "cells/value",
                      "approx recall@10", "bound recall@10",
                      "approx model_ms", "bound model_ms"});
  for (double alpha : {4.0, 16.0, 256.0, 65536.0, 1e6}) {
    EngineOptions options;
    options.alpha = alpha;
    options.operand_bits =
        std::max(2, FloorLog2(static_cast<uint64_t>(alpha)) + 1);

    ApproximatePimKnn approx(options);
    PIMINE_CHECK_OK(approx.Prepare(w.data));
    auto approx_result = approx.Search(w.queries, 10);
    PIMINE_CHECK(approx_result.ok());

    StandardPimKnn bound(Distance::kEuclidean, options);
    PIMINE_CHECK_OK(bound.Prepare(w.data));
    auto bound_result = bound.Search(w.queries, 10);
    PIMINE_CHECK(bound_result.ok());

    // The bound approach refines exactly, so its recall is 1 at every
    // alpha.
    const double bound_recall = MeanRecall(*golden, *bound_result);
    PIMINE_CHECK(bound_recall == 1.0)
        << "bound recall@10 " << bound_recall << " at alpha " << alpha;

    table.AddRow(
        {Fmt(alpha, 0), std::to_string(options.operand_bits),
         std::to_string(NumSlices(options.operand_bits,
                                  options.pim_config.cell_bits)),
         Fmt(MeanRecall(*golden, *approx_result), 3), Fmt(bound_recall, 3),
         Fmt(ComposeModeledTime(approx_result->stats, model).total_ms()),
         Fmt(ComposeModeledTime(bound_result->stats, model).total_ms())});
  }
  table.Print();

  std::cout << "\nTakeaway (the paper's §II-A argument): approximation "
               "trades accuracy for precision cells; the bound approach is "
               "exact at every alpha — coarse alpha only costs pruning "
               "power, never correctness.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
