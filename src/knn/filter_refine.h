#ifndef PIMINE_KNN_FILTER_REFINE_H_
#define PIMINE_KNN_FILTER_REFINE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "profiling/function_profiler.h"
#include "util/top_k.h"

namespace pimine {

/// The filter-and-refine loop of every bound-ordered kNN path (§V-D,
/// §VI-B). The algorithms differ only in the bound that fills `bounds`
/// and in the refine step; this loop is the same for all of them.
///
/// Offers the candidates in ascending (bound, index) order, the order of
/// ArgsortAscending(bounds), to `refine(idx, topk)` until the next bound
/// cannot beat topk.threshold(). `refine` returns the exact value to keep
/// (squared ED, or -similarity for CS/PCC), or std::nullopt when a finer
/// bound pruned the candidate (FNN's cascaded levels). Each returned value
/// is pushed and counted in `*exact_count`. With `similarity` the result is
/// flipped back to similarities, most similar first. Bounds must be
/// NaN-free.
///
/// Only the reachable prefix of that order is sorted (DESIGN.md §4): phase
/// 1 walks the k best pairs, which fills topk; phase 2 sorts only the later
/// pairs below the threshold phase 1 left, which can only fall. Both phases
/// are timed under `order_tag` (a null `profile` leaves them untimed), and
/// the modeled charge is the full sort's (ChargeArgsortTraffic).
template <typename Refine>
std::vector<Neighbor> FilterRefine(std::span<const double> bounds, int k,
                                   bool similarity, FunctionProfiler* profile,
                                   std::string_view order_tag,
                                   uint64_t* exact_count, Refine&& refine) {
  using Candidate = std::pair<double, uint32_t>;
  const size_t n = bounds.size();
  ChargeArgsortTraffic(n);
  TopK topk(static_cast<size_t>(k));
  // Refines `ordered` in turn; false once the next bound cannot beat topk.
  const auto walk = [&](std::span<const Candidate> ordered) {
    for (const auto& [bound, idx] : ordered) {
      if (topk.full() && bound >= topk.threshold()) return false;
      const std::optional<double> value = refine(idx, std::as_const(topk));
      if (!value) continue;
      topk.Push(*value, static_cast<int32_t>(idx));
      ++*exact_count;
    }
    return true;
  };
  std::vector<Candidate> run;
  {
    // Phase 1: the k best pairs, ascending.
    ScopedFunctionTimer timer(profile, order_tag);
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
      ScopedFunctionTimer timer(profile, order_tag);
      const Candidate last = run.back();
      // A refine step that returned std::nullopt left topk short, so the
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
  return similarity ? FinalizeSimilarityNeighbors(topk) : topk.TakeSorted();
}

/// Returns the exact measure as a FilterRefine step over the rows of
/// `data`: early-abandoning squared ED, or -similarity for CS/PCC. Each
/// call is timed under its Fig. 6 tag ("ED", "CS" or "PCC").
inline auto ExactRefine(Distance distance, const FloatMatrix& data,
                        std::span<const float> query,
                        FunctionProfiler* profile) {
  return [distance, &data, query, profile](uint32_t idx,
                                           const TopK& topk) -> double {
    const std::span<const float> row = data.row(idx);
    switch (distance) {
      case Distance::kCosine: {
        ScopedFunctionTimer timer(profile, "CS");
        return -CosineSimilarity(row, query);
      }
      case Distance::kPearson: {
        ScopedFunctionTimer timer(profile, "PCC");
        return -PearsonCorrelation(row, query);
      }
      default: {
        ScopedFunctionTimer timer(profile, "ED");
        return SquaredEuclideanEarlyAbandon(row, query, topk.threshold());
      }
    }
  };
}

}  // namespace pimine

#endif  // PIMINE_KNN_FILTER_REFINE_H_
