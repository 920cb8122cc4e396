#ifndef PIMINE_KMEANS_HAMERLY_H_
#define PIMINE_KMEANS_HAMERLY_H_

#include "kmeans/kmeans_common.h"

namespace pimine {

/// Hamerly (SDM'10): the minimal-bound member of the triangle-inequality
/// family the paper surveys (§II-C — Drake and Yinyang "follow the similar
/// strategy with employing less bounds" than Elkan). One upper bound per
/// point plus a single lower bound on the distance to the second-closest
/// center. Cheapest bound maintenance of all, most exact distances.
/// Produces exactly Lloyd's trajectory; options.use_pim adds the PIM
/// filter in the rescan, like the other algorithms.
///
/// Not part of the paper's evaluated set — included as the natural fourth
/// point on the bounds-vs-recomputation spectrum (extension; see
/// DESIGN.md §5).
class HamerlyKmeans : public KmeansAlgorithm {
 public:
  std::string_view name() const override { return "Hamerly"; }

 private:
  std::unique_ptr<KmeansBounds> NewBounds(const KmeansRun& run) const override;
};

}  // namespace pimine

#endif  // PIMINE_KMEANS_HAMERLY_H_
