#ifndef PIMINE_KNN_OST_KNN_H_
#define PIMINE_KNN_OST_KNN_H_

#include <vector>

#include "knn/knn_search_base.h"

namespace pimine {

/// OST (Liaw et al.): filter-and-refine with the orthogonal-search-tree
/// bound LB_OST (Table 3): exact partial distance on a d0-dimensional
/// prefix plus the suffix-norm difference, d0 = OstPrefixDims(d).
class OstKnn : public KnnSearchBase {
 public:
  std::string_view name() const override { return "OST"; }
  Status Prepare(const FloatMatrix& data) override;

  uint64_t OfflineBytesWritten() const override {
    return suffix_norms_.size() * sizeof(double);
  }
  int64_t prefix_dims() const { return d0_; }

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s) const override;
  /// The bound itself streams the d0-dim prefixes of the whole dataset.
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const override;

 private:
  int64_t d0_ = 0;
  std::vector<double> suffix_norms_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_OST_KNN_H_
