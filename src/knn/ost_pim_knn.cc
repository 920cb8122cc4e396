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

OstPimKnn::OstPimKnn(EngineOptions options, int64_t prefix_divisor)
    : PimKnnBase(std::move(options)), prefix_divisor_(prefix_divisor) {
  options_.bound = EngineOptions::Bound::kDirectEd;
}

Status OstPimKnn::Prepare(const FloatMatrix& data) {
  if (prefix_divisor_ < 1) {
    return Status::InvalidArgument("OST-PIM prefix_divisor must be >= 1");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  const int64_t d = static_cast<int64_t>(data.cols());
  d0_ = std::max<int64_t>(1, d / prefix_divisor_);
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(Prefixes(data, d0_),
                                       Distance::kEuclidean, options_));

  suffix_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    suffix_norms_[i] = SuffixNorm(data.row(i), d0_);
  }
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
                                             size_t bq, int k, BatchScratch& s,
                                             SearchSlot& slot) const {
  const size_t n = data_->rows();
  {
    ScopedFunctionTimer timer(&slot.profile, "LB_PIM");
    const double q_suffix = SuffixNorm(q, d0_);
    for (size_t i = 0; i < n; ++i) {
      const double norm_diff = suffix_norms_[i] - q_suffix;
      const double prefix_lb =
          std::max(0.0, engine_->BoundFor(s.batch, bq, i));
      s.bounds[i] = prefix_lb + norm_diff * norm_diff;
    }
    slot.bound_count += n;
  }
  return FilterRefine(
      s.bounds, k, /*similarity=*/false, &slot.profile, "LB_PIM",
      &slot.exact_count,
      ExactRefine(Distance::kEuclidean, *data_, q, &slot.profile));
}

}  // namespace pimine
