// Figure 7: No-PIM vs PIM-oracle (Eq. 2) — the theoretical best any PIM
// implementation can do, obtained by zeroing the profiled time of the
// offloadable functions. Paper findings to reproduce: PIM-oracle is ~184x
// faster than Standard kNN; for k-means the gap is large for Standard
// (51x) but small for Elkan (2.2x).
//
// Eq. 2 reads wall-clock shares, so one stall can move a single run's
// ratio several-fold. Every cell is the median over kRuns runs (the
// speedup column the median of the per-run ratios), so the printed shape
// is a property of the code rather than of one run.

#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "profile_workloads.h"
#include "profiling/modeled_time.h"

namespace pimine {
namespace bench {
namespace {

constexpr int kRuns = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Profiles `kRuns` times and prints one row per algorithm.
void PrintOracleTable(
    const std::function<std::vector<ProfiledRun>()>& profile) {
  std::vector<std::vector<ProfiledRun>> runs;
  for (int r = 0; r < kRuns; ++r) runs.push_back(profile());
  TablePrinter table({"algorithm", "No-PIM ms", "PIM-oracle ms",
                      "potential speedup"});
  for (size_t a = 0; a < runs[0].size(); ++a) {
    std::vector<double> wall_ms, oracle_ms, speedup;
    for (const std::vector<ProfiledRun>& run : runs) {
      const ProfiledRun& p = run[a];
      const double oracle =
          PimOracleNs(p.wall_ms * 1e6, p.offloadable_ms * 1e6) / 1e6;
      wall_ms.push_back(p.wall_ms);
      oracle_ms.push_back(oracle);
      speedup.push_back(oracle > 0 ? p.wall_ms / oracle : 0.0);
    }
    table.AddRow({runs[0][a].name, Fmt(Median(wall_ms)),
                  Fmt(Median(oracle_ms)), Fmt(Median(speedup), 1) + "x"});
  }
  table.Print();
}

void Run() {
  const std::string median = "median of " + std::to_string(kRuns) + " runs";
  Banner("Figure 7(a): kNN No-PIM vs PIM-oracle, MSD, k=10 (" + median + ")");
  const BenchWorkload msd = LoadWorkload("MSD");
  PrintOracleTable([&] { return ProfileKnnAlgorithms(msd, 10); });

  Banner("Figure 7(b): k-means No-PIM vs PIM-oracle, NUS-WIDE, k=64 "
         "(ms/iteration, " + median + ")");
  const BenchWorkload nus = LoadWorkload("NUS-WIDE");
  PrintOracleTable([&] { return ProfileKmeansAlgorithms(nus, 64, 3); });

  std::cout << "\nPaper reference: PIM-oracle is 183.9x faster than "
               "Standard kNN; 51.4x (Standard), 7.5x (Drake), 5.3x "
               "(Yinyang), 2.2x (Elkan) for k-means.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
