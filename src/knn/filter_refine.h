#ifndef PIMINE_KNN_FILTER_REFINE_H_
#define PIMINE_KNN_FILTER_REFINE_H_

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
/// Orders the candidates by ascending bound (ArgsortAscending, timed under
/// `order_tag`) and offers them best-first to `refine(idx, topk)` until the
/// next bound cannot beat topk.threshold(). `refine` returns the exact
/// value to keep (squared ED, or -similarity for CS/PCC), or std::nullopt
/// when a finer bound pruned the candidate (FNN's cascaded levels). Each
/// returned value is pushed and counted in `*exact_count`. With
/// `similarity` the result is flipped back to similarities, most similar
/// first. A null `profile` leaves the loop untimed.
template <typename Refine>
std::vector<Neighbor> FilterRefine(std::span<const double> bounds, int k,
                                   bool similarity, FunctionProfiler* profile,
                                   std::string_view order_tag,
                                   uint64_t* exact_count, Refine&& refine) {
  std::vector<uint32_t> order;
  {
    ScopedFunctionTimer timer(profile, order_tag);
    order = ArgsortAscending(bounds);
  }
  TopK topk(static_cast<size_t>(k));
  for (const uint32_t idx : order) {
    if (topk.full() && bounds[idx] >= topk.threshold()) break;
    const std::optional<double> value = refine(idx, std::as_const(topk));
    if (!value) continue;
    topk.Push(*value, static_cast<int32_t>(idx));
    ++*exact_count;
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
