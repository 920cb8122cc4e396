// Figure 15: pruning ratio and total data-transfer cost of the original
// bounds (LB_FNN^7, LB_FNN^28, LB_FNN^105) vs the PIM-aware bound
// (LB_PIM-FNN^105) on MSD, alpha = 1e6. Paper findings to reproduce:
// LB_PIM-FNN^105 prunes more than LB_FNN^7 and LB_FNN^105 and slightly
// less than LB_FNN^28 in their plot's regime, at a tiny fraction of the
// transfer cost (3*b bits vs 2*d0*b). Includes the alpha-sensitivity
// ablation of Theorem 3.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/bounds.h"
#include "core/engine.h"
#include "core/plan.h"
#include "core/quantize.h"
#include "core/segments.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"

namespace pimine {
namespace bench {
namespace {

/// Measures the mean pruning ratio of a bound over sample queries with the
/// k-th exact distance as threshold.
template <typename BoundFn>
double MeasureRatio(const FloatMatrix& data, const FloatMatrix& queries,
                    int k, const BoundFn& bound_fn) {
  const size_t n = data.rows();
  std::vector<double> exact(n);
  std::vector<double> values(n);
  double total_ratio = 0.0;
  for (size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto q = queries.row(qi);
    for (size_t i = 0; i < n; ++i) {
      exact[i] = SquaredEuclidean(data.row(i), q);
    }
    std::vector<double> sorted = exact;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end());
    const double tau = sorted[k - 1];
    for (size_t i = 0; i < n; ++i) values[i] = bound_fn(i, q);
    total_ratio += MeasurePruningRatio(values, tau, false);
  }
  return total_ratio / static_cast<double>(queries.rows());
}

/// MeasureRatio of an engine's bounds: one RunQueryBatch per query, its
/// span of bounds read per object.
double MeasureEngineRatio(const FloatMatrix& data, const FloatMatrix& queries,
                          int k, const ShardedPimEngine& engine) {
  std::vector<double> bounds(data.rows());
  return MeasureRatio(data, queries, k,
                      [&](size_t i, std::span<const float> q) {
                        if (i == 0) {
                          auto batch = engine.RunQueryBatch(q, 1);
                          PIMINE_CHECK(batch.ok())
                              << batch.status().ToString();
                          engine.BoundsFor(*batch, 0, bounds);
                        }
                        return bounds[i];
                      });
}

void Run() {
  const BenchWorkload w = LoadWorkload("MSD", /*n=*/8000, /*num_queries=*/5);
  const size_t n = w.data.rows();
  const int k = 10;
  const double b = 32.0;  // operand bits.

  Banner("Figure 15: pruning ratio and data-transfer cost of bounds "
         "(MSD, alpha=1e6, k=10)");

  TablePrinter table({"bound", "prune ratio %", "transfer bits/cand",
                      "total transfer MB"});

  // Original LB_FNN at the paper's three segment counts.
  for (int64_t d0 : {7, 28, 105}) {
    const SegmentStats stats = ComputeSegmentStats(w.data, d0);
    std::vector<float> q_means(d0), q_stds(d0);
    const double ratio = MeasureRatio(
        w.data, w.queries, k,
        [&](size_t i, std::span<const float> q) {
          ComputeSegments(q, d0, q_means, q_stds);
          return LbFnn(stats.means.row(i), stats.stds.row(i), q_means,
                       q_stds, stats.segment_length);
        });
    const double bits = 2.0 * static_cast<double>(d0) * b;
    table.AddRow({"LB_FNN^" + std::to_string(d0), Fmt(100.0 * ratio, 1),
                  Fmt(bits, 0), Fmt(bits * n / 8.0 / 1e6, 2)});
  }

  // PIM-aware bound at s = 105 (the paper's Theorem 4 pick for MSD).
  {
    EngineOptions options = ScaledEngineOptions(w);
    options.bound = EngineOptions::Bound::kSegmentFnn;
    options.force_segments = 105;
    auto engine_or =
        ShardedPimEngine::Build(w.data, Distance::kEuclidean, options);
    PIMINE_CHECK(engine_or.ok()) << engine_or.status().ToString();
    const ShardedPimEngine& engine = **engine_or;
    const double ratio = MeasureEngineRatio(w.data, w.queries, k, engine);
    const double bits = engine.TransferBitsPerCandidate();
    table.AddRow({"LB_PIM-FNN^105", Fmt(100.0 * ratio, 1), Fmt(bits, 0),
                  Fmt(bits * n / 8.0 / 1e6, 2)});
  }
  table.Print();

  // Ablation: Theorem 3 — bound tightness vs alpha.
  Banner("Ablation: LB_PIM-FNN^105 pruning ratio vs alpha (Theorem 3)");
  TablePrinter ablation({"alpha", "prune ratio %", "error bound (Thm. 3)"});
  for (double alpha : {1e2, 1e3, 1e4, 1e6}) {
    EngineOptions options = ScaledEngineOptions(w);
    options.bound = EngineOptions::Bound::kSegmentFnn;
    options.force_segments = 105;
    options.alpha = alpha;
    auto engine_or =
        ShardedPimEngine::Build(w.data, Distance::kEuclidean, options);
    PIMINE_CHECK(engine_or.ok()) << engine_or.status().ToString();
    const double ratio = MeasureEngineRatio(w.data, w.queries, k, **engine_or);
    ablation.AddRow({Fmt(alpha, 0), Fmt(100.0 * ratio, 1),
                     Fmt(LbPimEdErrorBound(w.data.cols(), alpha), 4)});
  }
  ablation.Print();

  std::cout << "\nPaper reference: at alpha=1e6 LB_PIM-FNN^105 prunes ~99% "
               "of objects at 96 bits/candidate, far below the original "
               "bounds' transfer cost.\n";
}

}  // namespace
}  // namespace bench
}  // namespace pimine

int main() {
  pimine::bench::Run();
  return 0;
}
