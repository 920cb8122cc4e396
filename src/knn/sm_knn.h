#ifndef PIMINE_KNN_SM_KNN_H_
#define PIMINE_KNN_SM_KNN_H_

#include "core/segments.h"
#include "knn/knn_search_base.h"

namespace pimine {

/// SM (Yi & Faloutsos, VLDB'00): filter-and-refine with the segmented-mean
/// lower bound LB_SM (Table 3) over d0 = max(1, d/4) segments.
class SmKnn : public KnnSearchBase {
 public:
  std::string_view name() const override { return "SM"; }
  Status Prepare(const FloatMatrix& data) override;

  uint64_t OfflineBytesWritten() const override {
    return stats_.means.SizeBytes();
  }
  int64_t num_segments() const { return stats_.num_segments; }

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s) const override;
  /// The segment means plus the rows refined per query.
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const override;

 private:
  SegmentStats stats_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_SM_KNN_H_
