// Figure 6: execution-time breakdown by function (§IV-B). Paper finding to
// reproduce: exact ED dominates Standard kNN; the bound functions dominate
// (72-86%) the accelerated kNN algorithms; ED takes 52-96% of k-means.

#include <iostream>

#include "bench_common.h"
#include "profile_workloads.h"

namespace pimine {
namespace bench {
namespace {

void PrintFunctionTable(const std::vector<ProfiledRun>& runs,
                        const std::vector<Fn>& functions, double total_scale) {
  std::vector<std::string> headers = {"algorithm"};
  for (const Fn fn : functions) {
    headers.push_back(std::string(FnName(fn)) + "%");
  }
  headers.push_back("Other%");
  headers.push_back("wall_ms");
  TablePrinter table(headers);

  for (const ProfiledRun& run : runs) {
    const double wall_ns = run.wall_ms * 1e6 * total_scale;
    std::vector<std::string> row = {run.name};
    double attributed = 0.0;
    for (const Fn fn : functions) {
      const double ns = static_cast<double>(run.stats.profile[fn]);
      attributed += ns;
      row.push_back(Fmt(wall_ns > 0 ? 100.0 * ns / wall_ns : 0.0, 1));
    }
    const double other = wall_ns - attributed;
    row.push_back(Fmt(wall_ns > 0 ? 100.0 * other / wall_ns : 0.0, 1));
    row.push_back(Fmt(run.wall_ms * total_scale));
    table.AddRow(row);
  }
  table.Print();
}

void Run() {
  Banner("Figure 6(a): kNN time by function, MSD dataset, k=10");
  const BenchWorkload msd = LoadWorkload("MSD");
  const auto knn_runs = ProfileKnnAlgorithms(msd, 10);
  PrintFunctionTable(knn_runs, {Fn::kEd, Fn::kLbOst, Fn::kLbSm, Fn::kLbFnn},
                     1.0);

  Banner("Figure 6(b): k-means time by function, NUS-WIDE dataset, k=64");
  const BenchWorkload nus = LoadWorkload("NUS-WIDE");
  // Per-iteration numbers: profiles are whole-run, so scale the wall back
  // up to whole-run for consistent percentages.
  const auto kmeans_runs = ProfileKmeansAlgorithms(nus, 64, 3);
  PrintFunctionTable(kmeans_runs, {Fn::kEd, Fn::kBoundUpdate, Fn::kUpdate},
                     3.0);

  std::cout << "\nPaper reference: ED dominates Standard; bound functions "
               "take 72-86% for OST/SM/FNN; ED takes 52-96% of k-means "
               "iterations.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
