#ifndef PIMINE_KMEANS_LLOYD_H_
#define PIMINE_KMEANS_LLOYD_H_

#include "kmeans/kmeans_common.h"

namespace pimine {

/// The paper's "Standard": Lloyd's algorithm. The assign step computes the
/// distance from every point to every center; with options.use_pim the
/// PIM lower bound LB_PIM-ED filters far-away centers first, reducing the
/// per-pair transfer from d*b to 3*b bits (§VI-D: up to 33.4x).
class LloydKmeans : public KmeansAlgorithm {
 public:
  std::string_view name() const override { return "Standard"; }

 private:
  std::unique_ptr<KmeansBounds> NewBounds(const KmeansRun& run) const override;
};

}  // namespace pimine

#endif  // PIMINE_KMEANS_LLOYD_H_
