#include "knn/ost_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"

namespace pimine {

Status OstKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  d0_ = OstPrefixDims(data.cols());
  suffix_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    suffix_norms_[i] = SuffixNorm(data.row(i), d0_);
  }
  data_ = &data;
  return Status::OK();
}

uint64_t OstKnn::FootprintBytes(uint64_t /*exact_count*/,
                                size_t /*num_queries*/) const {
  return data_->rows() * static_cast<uint64_t>(d0_) * sizeof(float);
}

std::vector<Neighbor> OstKnn::SearchQuery(std::span<const float> q,
                                          size_t /*bq*/, int k,
                                          BatchScratch& s) const {
  const size_t n = data_->rows();
  {
    ScopedFunctionTimer timer(Fn::kLbOst);
    const double q_suffix = SuffixNorm(q, d0_);
    for (size_t i = 0; i < n; ++i) {
      s.bounds[i] = LbOst(data_->row(i), q, d0_, suffix_norms_[i], q_suffix);
    }
    traffic::CountBounds(n);
  }
  return FilterRefine(s.bounds, k, {Distance::kEuclidean, *data_, q},
                      Fn::kLbOst);
}

}  // namespace pimine
