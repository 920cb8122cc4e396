#ifndef PIMINE_KMEANS_YINYANG_H_
#define PIMINE_KMEANS_YINYANG_H_

#include "kmeans/kmeans_common.h"

namespace pimine {

/// Yinyang (Ding et al., ICML'15): global + group filtering. Centers are
/// clustered into t = max(1, k/10) groups once at start; each point keeps
/// one upper bound and t group lower bounds. Cheaper bound maintenance than
/// Elkan (N*t instead of N*k), at the price of more exact distances on
/// high-dimensional data — the regime where Yinyang-PIM shines (§VI-D,
/// up to 4.9x). Produces exactly Lloyd's trajectory.
class YinyangKmeans : public KmeansAlgorithm {
 public:
  std::string_view name() const override { return "Yinyang"; }

 private:
  std::unique_ptr<KmeansBounds> NewBounds(const KmeansRun& run) const override;
};

}  // namespace pimine

#endif  // PIMINE_KMEANS_YINYANG_H_
