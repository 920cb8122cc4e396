#ifndef PIMINE_KMEANS_ELKAN_H_
#define PIMINE_KMEANS_ELKAN_H_

#include "kmeans/kmeans_common.h"

namespace pimine {

/// Elkan (ICML'03): triangle-inequality acceleration of Lloyd with one
/// upper bound per point and k lower bounds per (point, center) pair.
/// Produces exactly Lloyd's trajectory. The paper's profiling shows its
/// weakness (§VI-D): maintaining N*k bounds ("bound update") costs up to
/// 45% of the iteration, which is why Elkan-PIM gains little.
class ElkanKmeans : public KmeansAlgorithm {
 public:
  std::string_view name() const override { return "Elkan"; }

 private:
  std::unique_ptr<KmeansBounds> NewBounds(const KmeansRun& run) const override;
};

}  // namespace pimine

#endif  // PIMINE_KMEANS_ELKAN_H_
