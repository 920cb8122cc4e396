#include "knn/sm_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"

namespace pimine {

Status SmKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  const int64_t d = static_cast<int64_t>(data.cols());
  const int64_t d0 = std::max<int64_t>(1, d / 4);
  stats_ = ComputeSegmentStats(data, d0);
  data_ = &data;
  return Status::OK();
}

uint64_t SmKnn::FootprintBytes(uint64_t exact_count,
                               size_t num_queries) const {
  return stats_.means.SizeBytes() +
         exact_count * data_->cols() * sizeof(float) /
             std::max<uint64_t>(1, num_queries);
}

std::vector<Neighbor> SmKnn::SearchQuery(std::span<const float> q,
                                         size_t /*bq*/, int k,
                                         BatchScratch& s) const {
  const size_t n = data_->rows();
  const int64_t d0 = stats_.num_segments;
  std::vector<float> q_means(static_cast<size_t>(d0));
  std::vector<float> q_stds(static_cast<size_t>(d0));
  // Filter phase: LB_SM for every object.
  {
    ScopedFunctionTimer timer(Fn::kLbSm);
    ComputeSegments(q, d0, q_means, q_stds);
    for (size_t i = 0; i < n; ++i) {
      s.bounds[i] = LbSm(stats_.means.row(i), q_means, stats_.segment_length);
    }
    traffic::CountBounds(n);
  }
  // Refine phase: exact ED in ascending-bound order.
  return FilterRefine(s.bounds, k, {Distance::kEuclidean, *data_, q},
                      Fn::kLbSm);
}

}  // namespace pimine
