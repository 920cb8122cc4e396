#ifndef PIMINE_KMEANS_DRAKE_H_
#define PIMINE_KMEANS_DRAKE_H_

#include "kmeans/kmeans_common.h"

namespace pimine {

/// Drake & Hamerly (NIPS OPT'12): keeps lower bounds only for the b
/// closest centers per point (b = max(2, k/4) here) plus one catch-all
/// bound for the rest — less bound-maintenance than Elkan, more exact
/// distances. Produces exactly Lloyd's trajectory.
class DrakeKmeans : public KmeansAlgorithm {
 public:
  std::string_view name() const override { return "Drake"; }

 private:
  std::unique_ptr<KmeansBounds> NewBounds(const KmeansRun& run) const override;
};

}  // namespace pimine

#endif  // PIMINE_KMEANS_DRAKE_H_
