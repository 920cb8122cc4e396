#ifndef PIMINE_KNN_STANDARD_KNN_H_
#define PIMINE_KNN_STANDARD_KNN_H_

#include "core/similarity.h"
#include "knn/knn_search_base.h"

namespace pimine {

/// The paper's "Standard" baseline: exhaustive linear scan with the exact
/// measure (early-abandoning for ED). Supports ED, CS and PCC (Fig. 13d).
class StandardKnn : public KnnSearchBase {
 public:
  explicit StandardKnn(Distance distance = Distance::kEuclidean);

  std::string_view name() const override { return name_; }
  Status Prepare(const FloatMatrix& data) override;

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s) const override;
  /// The whole dataset, which every query scans.
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const override;

 private:
  Distance distance_;
  std::string name_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_STANDARD_KNN_H_
