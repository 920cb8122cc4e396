#include "knn/ost_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"
#include "util/timer.h"

namespace pimine {

OstKnn::OstKnn(int64_t prefix_divisor) : prefix_divisor_(prefix_divisor) {}

Status OstKnn::Prepare(const FloatMatrix& data) {
  if (prefix_divisor_ < 1) {
    return Status::InvalidArgument("OST prefix_divisor must be >= 1");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  const int64_t d = static_cast<int64_t>(data.cols());
  d0_ = std::max<int64_t>(1, d / prefix_divisor_);
  suffix_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    suffix_norms_[i] = SuffixNorm(data.row(i), d0_);
  }
  return Status::OK();
}

Result<KnnRunResult> OstKnn::Search(const FloatMatrix& queries, int k) {
  if (data_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (k <= 0 || static_cast<size_t>(k) > data_->rows()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  traffic::AggregateScope traffic_scope;
  Timer wall;

  const size_t n = data_->rows();
  // Per-worker bound array, reused across the worker's queries.
  std::vector<std::vector<double>> bound_scratch(
      NumSlots(exec_policy_, queries.rows(), 1), std::vector<double>(n));

  Status status = RunQueriesWithPolicy(
      exec_policy_, queries.rows(), &result.stats,
      [&](size_t qi, size_t slot_index, SearchSlot& slot) {
        const auto q = queries.row(qi);
        std::vector<double>& bounds = bound_scratch[slot_index];
        {
          ScopedFunctionTimer timer(&slot.profile, "LB_OST");
          const double q_suffix = SuffixNorm(q, d0_);
          for (size_t i = 0; i < n; ++i) {
            bounds[i] =
                LbOst(data_->row(i), q, d0_, suffix_norms_[i], q_suffix);
          }
          slot.bound_count += n;
        }
        result.neighbors[qi] = FilterRefine(
            bounds, k, /*similarity=*/false, &slot.profile, "LB_OST",
            &slot.exact_count,
            ExactRefine(Distance::kEuclidean, *data_, q, &slot.profile));
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  // The bound itself streams the d0-dim prefixes of the whole dataset.
  result.stats.footprint_bytes =
      data_->rows() * static_cast<uint64_t>(d0_) * sizeof(float);
  return result;
}

}  // namespace pimine
