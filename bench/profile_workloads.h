#ifndef PIMINE_BENCH_PROFILE_WORKLOADS_H_
#define PIMINE_BENCH_PROFILE_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench_common.h"

namespace pimine {
namespace bench {

/// One profiled algorithm run (workloads of Figs. 5-7).
struct ProfiledRun {
  std::string name;
  RunStats stats;
  /// Wall time of the online phase in ms (kNN: whole batch; k-means: mean
  /// per iteration).
  double wall_ms = 0.0;
  /// Wall time spent in functions offloadable to PIM (the set F of Eq. 2).
  double offloadable_ms = 0.0;
};

/// Runs the four baseline kNN algorithms (Standard, OST, SM, FNN) on the
/// workload — the paper's Fig. 5a/6a/7a setting (MSD, k=10).
std::vector<ProfiledRun> ProfileKnnAlgorithms(const BenchWorkload& workload,
                                              int k);

/// Runs the four baseline k-means algorithms (Standard, Elkan, Drake,
/// Yinyang) — the paper's Fig. 5b/6b/7b setting (NUS-WIDE, k=64). Reported
/// numbers are per iteration.
std::vector<ProfiledRun> ProfileKmeansAlgorithms(const BenchWorkload& workload,
                                                 int k, int iterations);

}  // namespace bench
}  // namespace pimine

#endif  // PIMINE_BENCH_PROFILE_WORKLOADS_H_
