#ifndef PIMINE_KNN_FILTER_REFINE_H_
#define PIMINE_KNN_FILTER_REFINE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

namespace filter_refine_internal {

/// A candidate's place in the bound order: (bound, row index).
using Candidate = std::pair<double, uint32_t>;

/// Bounds an order scan tests per step.
inline constexpr size_t kOrderBlock = 16;

/// Bit j is set when lo <= block[j] < hi, for j < width <= kOrderBlock. A
/// full block is tested two bounds per SSE2 compare (part of the x86-64
/// baseline); a partial one, or a host without SSE2, takes the plain loop.
inline uint32_t InRangeMask(const double* block, size_t width, double lo,
                            double hi) {
#if defined(__SSE2__)
  if (width == kOrderBlock) {
    const __m128d low = _mm_set1_pd(lo);
    const __m128d high = _mm_set1_pd(hi);
    uint32_t mask = 0;
    for (size_t j = 0; j < kOrderBlock; j += 2) {
      const __m128d b = _mm_loadu_pd(block + j);
      const __m128d in =
          _mm_and_pd(_mm_cmpge_pd(b, low), _mm_cmplt_pd(b, high));
      mask |= static_cast<uint32_t>(_mm_movemask_pd(in)) << j;
    }
    return mask;
  }
#endif
  uint32_t mask = 0;
  for (size_t j = 0; j < width; ++j) {
    mask |= static_cast<uint32_t>(lo <= block[j] && block[j] < hi) << j;
  }
  return mask;
}

/// Calls visit(i), in index order, for each i >= begin whose bound lies in
/// [lo, hi()) when its block is tested. hi() is read once per block, so a
/// visit that lowers it must re-test its own pair.
template <typename Hi, typename Visit>
void ScanInRange(std::span<const double> bounds, size_t begin, double lo,
                 const Hi& hi, const Visit& visit) {
  for (size_t i = begin; i < bounds.size(); i += kOrderBlock) {
    const size_t width = std::min(kOrderBlock, bounds.size() - i);
    for (uint32_t mask = InRangeMask(&bounds[i], width, lo, hi()); mask != 0;
         mask &= mask - 1) {
      visit(static_cast<uint32_t>(i + std::countr_zero(mask)));
    }
  }
}

/// The `m` smallest pairs after `*after` (of all pairs when null), into
/// `out` ascending; at least m >= 1 such pairs must exist, unless `bounds`
/// is empty. A max-heap is seeded with the first m of them, and each later
/// pair replaces its worst when it is smaller. Every pair in the heap has a
/// lower index, so that test is `bound < worst bound`, the block test; the
/// pair logic runs on the bounds that pass it.
inline void TakeSmallest(std::span<const double> bounds, const Candidate* after,
                         size_t m, std::vector<Candidate>& out) {
  const auto later = [after](const Candidate& c) {
    return after == nullptr || *after < c;
  };
  out.clear();
  uint32_t i = 0;
  for (; out.size() < m && i < bounds.size(); ++i) {
    if (const Candidate c{bounds[i], i}; later(c)) out.push_back(c);
  }
  std::make_heap(out.begin(), out.end());
  ScanInRange(
      bounds, i, after == nullptr ? -HUGE_VAL : after->first,
      [&out] { return out.front().first; },
      [&](uint32_t j) {
        const Candidate c{bounds[j], j};
        if (c < out.front() && later(c)) {
          std::pop_heap(out.begin(), out.end());
          out.back() = c;
          std::push_heap(out.begin(), out.end());
        }
      });
  std::sort_heap(out.begin(), out.end());
}

/// Sorts `pairs`, whose bounds lie in [lo, hi), ascending. A counting pass
/// spreads them over pairs.size() buckets of equal width; the bucket
/// `(bound - lo) * scale` cannot fall as the bound grows, so std::sort
/// orders only each bucket's few pairs, where a sort of the whole list
/// spends most of its time on mispredicted compares. An infinite `lo` or
/// scale makes that product NaN or +inf, which std::min maps to the last
/// bucket: every pair lands there, and the whole list is sorted.
inline void SortInRange(std::vector<Candidate>& pairs, double lo, double hi) {
  const size_t n = pairs.size();
  const double scale = static_cast<double>(n) / (hi - lo);
  const double top = static_cast<double>(n) - 1.0;
  const auto bucket = [&](double bound) {
    return static_cast<uint32_t>(std::min(top, (bound - lo) * scale));
  };
  std::vector<uint32_t> end(n + 1);
  for (const Candidate& c : pairs) ++end[bucket(c.first) + 1];
  std::partial_sum(end.begin(), end.end(), end.begin());
  std::vector<Candidate> sorted(n);
  for (const Candidate& c : pairs) sorted[end[bucket(c.first)]++] = c;
  for (size_t b = 0, begin = 0; b < n; begin = end[b++]) {
    std::sort(sorted.begin() + begin, sorted.begin() + end[b]);
  }
  pairs.swap(sorted);
}

/// Every pair after `last` whose bound lies below `threshold`, into `out`
/// ascending. The block test is `last.bound <= bound < threshold`; the
/// pair test `last < c` then drops the ties at or before `last`.
inline void TakeBelow(std::span<const double> bounds, const Candidate& last,
                      double threshold, std::vector<Candidate>& out) {
  out.clear();
  ScanInRange(
      bounds, 0, last.first, [threshold] { return threshold; },
      [&](uint32_t j) {
        if (const Candidate c{bounds[j], j}; last < c) out.push_back(c);
      });
  SortInRange(out, last.first, threshold);
}

}  // namespace filter_refine_internal

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
/// Only the reachable prefix of that order is sorted (DESIGN.md §4), by
/// scans that test 16 bounds per step (ScanInRange). Phase 1 walks the k
/// best pairs (TakeSmallest), which fills topk unless a prune step dropped
/// one; then refill rounds walk the next smallest pairs, twice as many per
/// round, until topk is full or no pair is left. Phase 2 walks the later
/// pairs below the threshold that left (TakeBelow), which can only fall.
/// Each order step is timed as `order_fn`, the path's bound function, and
/// the modeled charge is the full sort's (ChargeArgsortTraffic).
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
  using filter_refine_internal::Candidate;
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
  size_t round = std::min(topk.k(), n);
  {
    // Phase 1: the k best pairs, ascending.
    ScopedFunctionTimer timer(order_fn);
    filter_refine_internal::TakeSmallest(bounds, nullptr, round, run);
  }
  size_t taken = run.size();
  bool reachable = walk(run);
  // Refill rounds: while a prune step has left topk short, its threshold
  // is +inf and every later pair stays reachable.
  while (reachable && taken < n && !topk.full()) {
    const Candidate last = run.back();
    round *= 2;
    {
      ScopedFunctionTimer timer(order_fn);
      filter_refine_internal::TakeSmallest(bounds, &last,
                                           std::min(round, n - taken), run);
    }
    taken += run.size();
    reachable = walk(run);
  }
  if (reachable && taken < n) {
    // Phase 2: the later pairs the walk can still reach, ascending.
    const Candidate last = run.back();
    {
      ScopedFunctionTimer timer(order_fn);
      filter_refine_internal::TakeBelow(bounds, last, topk.threshold(), run);
    }
    walk(run);
  }
  return IsSimilarityMeasure(exact.distance)
             ? FinalizeSimilarityNeighbors(topk)
             : topk.TakeSorted();
}

}  // namespace pimine

#endif  // PIMINE_KNN_FILTER_REFINE_H_
