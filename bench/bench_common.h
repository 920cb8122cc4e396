#ifndef PIMINE_BENCH_BENCH_COMMON_H_
#define PIMINE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/memory_planner.h"
#include "core/similarity.h"
#include "data/catalog.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "profiling/modeled_time.h"
#include "sim/cost_model.h"
#include "util/flags.h"

namespace pimine {
namespace bench {

/// Deterministic seed shared by every bench binary.
inline constexpr uint64_t kBenchSeed = 20210416;  // ICDE'21 week.

/// A generated dataset + query workload for one catalog entry.
struct BenchWorkload {
  DatasetSpec spec;
  FloatMatrix data;
  FloatMatrix queries;
};

/// Generates (deterministically) the scaled stand-in for a paper dataset.
/// `n` <= 0 uses the spec's default; `num_queries` defaults to 20.
BenchWorkload LoadWorkload(const std::string& name, int64_t n = 0,
                           int64_t num_queries = 20);

/// Engine options whose crossbar budget is scaled to the workload so that
/// Theorem 4 exerts the paper's capacity pressure (DESIGN.md §1).
EngineOptions ScaledEngineOptions(const BenchWorkload& workload);

/// The --crossbars flag of pimine_cli and pimine_serve: 0 (the default)
/// gives ScaledEngineOptions(workload); any other count gives the default
/// EngineOptions with that many crossbars.
EngineOptions CrossbarsFromFlags(const FlagParser& flags,
                                 const BenchWorkload& workload);

/// The --distance flag of pimine_cli and pimine_serve: ED (the default),
/// CS or PCC; any other name is InvalidArgument.
Result<Distance> DistanceFromFlags(const FlagParser& flags);

/// One measured + modeled data point.
struct BenchPoint {
  std::string label;
  double wall_ms = 0.0;
  double model_ms = 0.0;
  RunStats stats;
};

/// Runs a kNN algorithm (already Prepared) and composes its modeled time.
BenchPoint RunKnnPoint(KnnAlgorithm& algorithm, const FloatMatrix& queries,
                       int k, const HostCostModel& model);

/// Simple fixed-width table printer for the bench output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with 2 (default) decimals.
std::string Fmt(double value, int decimals = 2);

/// Prints a section banner ("=== Figure 13(a) ... ===").
void Banner(const std::string& title);

}  // namespace bench
}  // namespace pimine

#endif  // PIMINE_BENCH_BENCH_COMMON_H_
