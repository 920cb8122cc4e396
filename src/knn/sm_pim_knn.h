#ifndef PIMINE_KNN_SM_PIM_KNN_H_
#define PIMINE_KNN_SM_PIM_KNN_H_

#include "knn/standard_pim_knn.h"

namespace pimine {

/// SM-PIM: SM with its bottleneck bound LB_SM replaced by the PIM-aware
/// means-only segment bound. Theorem 4 picks the segment count (as large as
/// the PIM array allows), so the PIM bound is typically *tighter* than the
/// original LB_SM^{d/4} while transferring only 3*b bits per candidate.
///
/// The filter-and-refine loop is Standard-PIM's, so SM-PIM is Standard-PIM
/// on ED with the bound forced to kSegmentSm.
class SmPimKnn : public StandardPimKnn {
 public:
  explicit SmPimKnn(EngineOptions options)
      : StandardPimKnn(Distance::kEuclidean, WithSmBound(std::move(options))) {}

  std::string_view name() const override { return "SM-PIM"; }

 private:
  static EngineOptions WithSmBound(EngineOptions options) {
    options.bound = EngineOptions::Bound::kSegmentSm;
    return options;
  }
};

}  // namespace pimine

#endif  // PIMINE_KNN_SM_PIM_KNN_H_
