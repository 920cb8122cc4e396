#ifndef PIMINE_KNN_MOTIF_H_
#define PIMINE_KNN_MOTIF_H_

#include <cstdint>
#include <span>

#include "core/engine.h"
#include "knn/knn_common.h"

namespace pimine {

/// Time-series motif discovery — the fourth similarity-based mining task
/// the paper's introduction names (Mueen's survey, reference [3]): find the
/// pair of non-overlapping subsequences of a series with the smallest
/// distance (the "motif"). A closest-pair problem over sliding windows,
/// and thus another customer of the PIM-aware bounds.
struct MotifOptions {
  /// Subsequence length (window width).
  int64_t window = 64;
  /// Trivial-match exclusion: pairs with |i - j| <= exclusion are ignored
  /// (overlapping windows are near-identical by construction). Defaults to
  /// window/2 when <= 0.
  int64_t exclusion = 0;
};

struct MotifResult {
  int32_t first = -1;
  int32_t second = -1;
  /// Squared ED between the motif pair's windows.
  double distance = 0.0;
  RunStats stats;
};

/// Slides a width-`window` window (stride 1) over the series and min-max
/// normalizes the values into [0, 1] globally, producing the matrix the
/// engines consume. Series must have at least `window` samples.
Result<FloatMatrix> ExtractWindows(std::span<const float> series,
                                   int64_t window);

/// Host baseline: brute-force closest pair with early-abandoning ED.
class MotifDiscovery {
 public:
  Result<MotifResult> Find(const FloatMatrix& windows,
                           const MotifOptions& options);
};

/// PIM variant: each window's candidate partners are screened with the
/// engine's lower bounds; exact distances only for pairs whose bound beats
/// the best motif found so far. Results match the baseline exactly. The
/// bounds come from a ShardedPimEngine built with the given options, and
/// the run opens and closes on a RunScope over it.
class PimMotifDiscovery {
 public:
  explicit PimMotifDiscovery(EngineOptions options);

  Result<MotifResult> Find(const FloatMatrix& windows,
                           const MotifOptions& options);

 private:
  EngineOptions options_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_MOTIF_H_
