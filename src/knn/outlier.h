#ifndef PIMINE_KNN_OUTLIER_H_
#define PIMINE_KNN_OUTLIER_H_

#include <memory>
#include <vector>

#include "core/engine.h"
#include "knn/knn_common.h"

namespace pimine {

/// Distance-based outlier detection — the third similarity-based mining
/// task §II-C of the paper names. A point's outlier score is the distance
/// to its k-th nearest neighbour; the top-n scorers are the outliers
/// (Knorr/Ng, and the ORCA nested-loop algorithm of Bay & Schwabacher).
///
/// Like kNN/k-means, the workload is a pruning game: once the running
/// cutoff (the weakest score in the current top-n) is known, a candidate
/// can be abandoned as soon as k neighbours within the cutoff are found —
/// and PIM lower bounds identify those neighbours with 3*b bits per pair.
struct OutlierOptions {
  /// Neighbour rank defining the score (distance to the k-th NN).
  int k = 5;
  /// How many outliers to report.
  int num_outliers = 10;
};

struct OutlierResult {
  /// Outliers sorted by descending score; Neighbor::distance holds the
  /// squared distance to the point's k-th nearest neighbour.
  std::vector<Neighbor> outliers;
  RunStats stats;
};

/// Host baseline: ORCA's nested loop with early candidate abandonment.
class OrcaOutlierDetector {
 public:
  Result<OutlierResult> Detect(const FloatMatrix& data,
                               const OutlierOptions& options);
};

/// PIM variant: each candidate's neighbour scan is a FilterRefine walk in
/// ascending PIM-bound order, so the k within-cutoff neighbours (which kill
/// the candidate) are found almost immediately; exact distances are
/// computed only for the bound-order prefix. Results match the baseline
/// exactly. The bounds come from a ShardedPimEngine built with the given
/// options (shards, replicas and faults included), and the run opens and
/// closes on a RunScope over it.
class OrcaPimOutlierDetector {
 public:
  explicit OrcaPimOutlierDetector(EngineOptions options);

  Result<OutlierResult> Detect(const FloatMatrix& data,
                               const OutlierOptions& options);

 private:
  EngineOptions options_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_OUTLIER_H_
