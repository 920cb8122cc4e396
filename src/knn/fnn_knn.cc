#include "knn/fnn_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"

namespace pimine {

std::vector<int64_t> LevelSegmentCounts(size_t d) {
  std::vector<int64_t> segments;
  for (const int64_t div : {64, 16, 4}) {
    const int64_t d0 = std::max<int64_t>(1, static_cast<int64_t>(d) / div);
    if (segments.empty() || d0 != segments.back()) segments.push_back(d0);
  }
  return segments;
}

Status FnnKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  levels_.clear();
  for (const int64_t d0 : LevelSegmentCounts(data.cols())) {
    levels_.push_back(ComputeSegmentStats(data, d0));
  }
  data_ = &data;
  return Status::OK();
}

uint64_t FnnKnn::OfflineBytesWritten() const {
  uint64_t bytes = 0;
  for (const SegmentStats& level : levels_) {
    bytes += level.means.SizeBytes() + level.stds.SizeBytes();
  }
  return bytes;
}

uint64_t FnnKnn::FootprintBytes(uint64_t /*exact_count*/,
                                size_t /*num_queries*/) const {
  return levels_[0].means.SizeBytes() + levels_[0].stds.SizeBytes();
}

std::vector<Neighbor> FnnKnn::SearchQuery(std::span<const float> q,
                                          size_t /*bq*/, int k,
                                          BatchScratch& s) const {
  const size_t n = data_->rows();
  const size_t num_levels = levels_.size();
  // Query-side segment statistics of every level.
  std::vector<std::vector<float>> q_means(num_levels);
  std::vector<std::vector<float>> q_stds(num_levels);

  // Coarsest level over every object.
  {
    ScopedFunctionTimer timer(Fn::kLbFnn);
    for (size_t lv = 0; lv < num_levels; ++lv) {
      const auto segments = static_cast<size_t>(levels_[lv].num_segments);
      q_means[lv].resize(segments);
      q_stds[lv].resize(segments);
      ComputeSegments(q, levels_[lv].num_segments, q_means[lv], q_stds[lv]);
    }
    const SegmentStats& l0 = levels_[0];
    for (size_t i = 0; i < n; ++i) {
      s.bounds[i] = LbFnn(l0.means.row(i), l0.stds.row(i), q_means[0],
                          q_stds[0], l0.segment_length);
    }
    traffic::CountBounds(n);
  }

  // Refinement in coarse-bound order; finer levels prune survivors.
  const auto prune = [&](uint32_t idx, const TopK& topk) {
    for (size_t lv = 1; lv < num_levels; ++lv) {
      ScopedFunctionTimer timer(Fn::kLbFnn);
      const SegmentStats& level = levels_[lv];
      const double lb = LbFnn(level.means.row(idx), level.stds.row(idx),
                              q_means[lv], q_stds[lv], level.segment_length);
      traffic::CountBounds(1);
      if (topk.full() && lb >= topk.threshold()) return true;
    }
    return false;
  };
  return FilterRefine(s.bounds, k, {Distance::kEuclidean, *data_, q},
                      Fn::kLbFnn, num_levels > 1 ? &prune : nullptr);
}

}  // namespace pimine
