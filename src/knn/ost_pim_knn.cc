#include "knn/ost_pim_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"

namespace pimine {
namespace {

/// The d0-dim prefixes of `rows`: what the fleet programs.
FloatMatrix Prefixes(const FloatMatrix& rows, int64_t d0) {
  FloatMatrix prefixes(rows.rows(), static_cast<size_t>(d0));
  for (size_t i = 0; i < rows.rows(); ++i) {
    const auto row = rows.row(i);
    std::copy(row.begin(), row.begin() + d0, prefixes.mutable_row(i).begin());
  }
  return prefixes;
}

}  // namespace

OstPimKnn::OstPimKnn(EngineOptions options)
    : PimKnnBase(std::move(options)) {
  options_.bound = EngineOptions::Bound::kDirectEd;
}

Status OstPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  d0_ = OstPrefixDims(data.cols());
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(Prefixes(data, d0_),
                                       Distance::kEuclidean, options_));

  suffix_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    suffix_norms_[i] = SuffixNorm(data.row(i), d0_);
  }
  data_ = &data;
  return Status::OK();
}

Status OstPimKnn::OnInsert(const FloatMatrix& rows) {
  PIMINE_RETURN_IF_ERROR(PimKnnBase::OnInsert(Prefixes(rows, d0_)));
  for (size_t i = 0; i < rows.rows(); ++i) {
    suffix_norms_.push_back(SuffixNorm(rows.row(i), d0_));
  }
  return Status::OK();
}

Status OstPimKnn::OnCompact(const std::vector<uint32_t>& live) {
  PIMINE_RETURN_IF_ERROR(PimKnnBase::OnCompact(live));
  // Compact the suffix-norm table with the same ascending live list the
  // engines used, so physical ids keep lining up.
  size_t w = 0;
  for (const uint32_t r : live) suffix_norms_[w++] = suffix_norms_[r];
  suffix_norms_.resize(w);
  return Status::OK();
}

std::span<const float> OstPimKnn::DeviceOperands(const FloatMatrix& queries,
                                                 size_t begin, size_t end,
                                                 BatchScratch& s) const {
  const size_t d0 = static_cast<size_t>(d0_);
  s.operands.resize((end - begin) * d0);
  for (size_t qi = begin; qi < end; ++qi) {
    const auto q = queries.row(qi);
    std::copy(q.begin(), q.begin() + d0,
              s.operands.begin() + (qi - begin) * d0);
  }
  return s.operands;
}

std::vector<Neighbor> OstPimKnn::SearchQuery(std::span<const float> q,
                                             size_t bq, int k,
                                             BatchScratch& s) const {
  const size_t n = data_->rows();
  {
    ScopedFunctionTimer timer(Fn::kLbPim);
    const double q_suffix = SuffixNorm(q, d0_);
    engine_->BoundsFor(s.batch, bq, s.bounds);
    for (size_t i = 0; i < n; ++i) {
      const double norm_diff = suffix_norms_[i] - q_suffix;
      s.bounds[i] = std::max(0.0, s.bounds[i]) + norm_diff * norm_diff;
    }
    traffic::CountBounds(n);
  }
  return FilterRefine(s.bounds, k, {Distance::kEuclidean, *data_, q},
                      Fn::kLbPim);
}

}  // namespace pimine
