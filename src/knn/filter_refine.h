#ifndef PIMINE_KNN_FILTER_REFINE_H_
#define PIMINE_KNN_FILTER_REFINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "sim/traffic.h"
#include "util/top_k.h"

namespace pimine {

/// The exact measure of a FilterRefine walk over the rows of `data`:
/// early-abandoning squared ED, or -similarity for CS/PCC.
struct ExactMeasure {
  Distance distance;
  const FloatMatrix& data;
  std::span<const float> query;

  /// Row `idx`'s value at `threshold`, timed as its Fig. 6 function (ED,
  /// CS or PCC).
  double operator()(uint32_t idx, double threshold) const {
    const std::span<const float> row = data.row(idx);
    switch (distance) {
      case Distance::kCosine: {
        ScopedFunctionTimer timer(Fn::kCs);
        return -CosineSimilarity(row, query);
      }
      case Distance::kPearson: {
        ScopedFunctionTimer timer(Fn::kPcc);
        return -PearsonCorrelation(row, query);
      }
      default: {
        ScopedFunctionTimer timer(Fn::kEd);
        return SquaredEuclideanEarlyAbandon(row, query, threshold);
      }
    }
  }
};

/// FilterRefine's prune type when the caller passes none (a null `prune`).
struct NoPrune {
  bool operator()(uint32_t, const TopK&) const { return false; }
};

/// The filter-and-refine loop of every bound-ordered kNN path (§V-D,
/// §VI-B). The algorithms differ only in the bound that fills `bounds`, in
/// the measure and in an optional prune step; this loop is the same for
/// all of them.
///
/// Offers the candidates in ascending (bound, index) order, the order of
/// ArgsortAscending(bounds), until the next bound cannot beat
/// topk.threshold(). A reached candidate is dropped when a non-null prune
/// step says so, `(*prune)(idx, topk)` (FNN's cascaded levels, ORCA's self
/// row and cutoff); otherwise its exact value is pushed and counted as
/// exact in the calling thread's ledger. For CS/PCC the result is flipped
/// back to similarities, most similar first. Bounds must be NaN-free.
///
/// Only the reachable prefix of that order is sorted (DESIGN.md §4): phase
/// 1 walks the k best pairs, which fills topk; phase 2 sorts only the later
/// pairs below the threshold phase 1 left, which can only fall. Both phases
/// are timed as `order_fn`, the path's bound function, and the modeled
/// charge is the full sort's (ChargeArgsortTraffic).
///
/// ED without a prune step, on a host with EdLanesSupported(), refines
/// windows of up to kEdLanes candidates: the next ones whose bounds pass
/// the stop test at the window's threshold run in SIMD lanes at that
/// threshold (SquaredEuclideanLanes), and only that call is timed, once
/// per window, as ED. The window is then replayed in order at the
/// current threshold, which is lower or equal: the same stop test, then
/// the value and traffic SquaredEuclideanEarlyAbandon would give
/// (ReplayEarlyAbandon). The replay and the pushes are untimed, so they
/// count as Fig. 6's "Other", as the pushes of every walk do. Results,
/// counts and traffic are those of refining one candidate at a time, which
/// CS/PCC, a walk with a prune step and a host without AVX2 do.
template <typename Prune = NoPrune>
std::vector<Neighbor> FilterRefine(std::span<const double> bounds, int k,
                                   const ExactMeasure& exact, Fn order_fn,
                                   const Prune* prune = nullptr) {
  using Candidate = std::pair<double, uint32_t>;
  const size_t n = bounds.size();
  ChargeArgsortTraffic(n);
  TopK topk(static_cast<size_t>(k));
  const auto keep = [&](double value, uint32_t idx) {
    topk.Push(value, static_cast<int32_t>(idx));
    traffic::CountExact(1);
  };
  const auto stops = [&](double bound, double threshold) {
    return topk.full() && bound >= threshold;
  };
  const bool windowed = exact.distance == Distance::kEuclidean &&
                        prune == nullptr && EdLanesSupported();
  const size_t d = exact.data.cols();
  std::vector<double> checkpoints(windowed ? kEdLanes * EdCheckpoints(d) : 0);
  // Refines `ordered` in turn; false once the next bound cannot beat topk.
  const auto walk = [&](std::span<const Candidate> ordered) {
    for (size_t p = 0; p < ordered.size();) {
      const double threshold = topk.threshold();
      if (stops(ordered[p].first, threshold)) return false;
      if (!windowed) {
        const uint32_t idx = ordered[p++].second;
        if (prune == nullptr || !(*prune)(idx, std::as_const(topk))) {
          keep(exact(idx, threshold), idx);
        }
        continue;
      }
      const float* rows[kEdLanes];
      size_t width = 0;
      do {
        rows[width] = exact.data.row(ordered[p + width].second).data();
        ++width;
      } while (width < kEdLanes && p + width < ordered.size() &&
               !stops(ordered[p + width].first, threshold));
      {
        ScopedFunctionTimer timer(Fn::kEd);
        SquaredEuclideanLanes({rows, width}, exact.query, threshold,
                              checkpoints);
      }
      for (size_t lane = 0; lane < width; ++lane, ++p) {
        if (stops(ordered[p].first, topk.threshold())) return false;
        keep(ReplayEarlyAbandon(checkpoints, lane, d, topk.threshold()),
             ordered[p].second);
      }
    }
    return true;
  };
  std::vector<Candidate> run;
  {
    // Phase 1: the k best pairs, ascending.
    ScopedFunctionTimer timer(order_fn);
    const size_t m = std::min(topk.k(), n);
    run.reserve(m);
    for (uint32_t i = 0; i < n; ++i) {
      const Candidate c{bounds[i], i};
      if (run.size() < m) {
        run.push_back(c);
        std::push_heap(run.begin(), run.end());
      } else if (c < run.front()) {
        std::pop_heap(run.begin(), run.end());
        run.back() = c;
        std::push_heap(run.begin(), run.end());
      }
    }
    std::sort_heap(run.begin(), run.end());
  }
  if (walk(run) && run.size() < n) {
    {
      // Phase 2: the later pairs the walk can still reach, ascending.
      ScopedFunctionTimer timer(order_fn);
      const Candidate last = run.back();
      // A prune step that dropped a candidate left topk short, so the
      // threshold is still +inf and every later pair stays reachable.
      const bool keep_all = !topk.full();
      const double threshold = topk.threshold();
      run.clear();
      for (uint32_t i = 0; i < n; ++i) {
        const Candidate c{bounds[i], i};
        if (last < c && (keep_all || c.first < threshold)) run.push_back(c);
      }
      std::sort(run.begin(), run.end());
    }
    walk(run);
  }
  return IsSimilarityMeasure(exact.distance)
             ? FinalizeSimilarityNeighbors(topk)
             : topk.TakeSorted();
}

}  // namespace pimine

#endif  // PIMINE_KNN_FILTER_REFINE_H_
