#include "knn/sm_knn.h"

#include <algorithm>

#include "core/bounds.h"
#include "knn/filter_refine.h"
#include "util/timer.h"

namespace pimine {

SmKnn::SmKnn(int64_t segment_divisor) : segment_divisor_(segment_divisor) {}

Status SmKnn::Prepare(const FloatMatrix& data) {
  if (segment_divisor_ < 1) {
    return Status::InvalidArgument("SM segment_divisor must be >= 1");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  const int64_t d = static_cast<int64_t>(data.cols());
  const int64_t d0 = std::max<int64_t>(1, d / segment_divisor_);
  stats_ = ComputeSegmentStats(data, d0);
  return Status::OK();
}

Result<KnnRunResult> SmKnn::Search(const FloatMatrix& queries, int k) {
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
  const int64_t d0 = stats_.num_segments;

  // Per-worker scratch: query segment stats + bound array.
  struct Scratch {
    std::vector<float> q_means;
    std::vector<float> q_stds;
    std::vector<double> bounds;
  };
  std::vector<Scratch> scratch(NumSlots(exec_policy_, queries.rows(), 1));
  for (Scratch& s : scratch) {
    s.q_means.resize(static_cast<size_t>(d0));
    s.q_stds.resize(static_cast<size_t>(d0));
    s.bounds.resize(n);
  }

  Status status = RunQueriesWithPolicy(
      exec_policy_, queries.rows(), &result.stats,
      [&](size_t qi, size_t slot_index, SearchSlot& slot) {
        const auto q = queries.row(qi);
        Scratch& s = scratch[slot_index];
        // Filter phase: LB_SM for every object.
        {
          ScopedFunctionTimer timer(&slot.profile, "LB_SM");
          ComputeSegments(q, d0, s.q_means, s.q_stds);
          for (size_t i = 0; i < n; ++i) {
            s.bounds[i] =
                LbSm(stats_.means.row(i), s.q_means, stats_.segment_length);
          }
          slot.bound_count += n;
        }
        // Refine phase: exact ED in ascending-bound order.
        result.neighbors[qi] = FilterRefine(
            s.bounds, k, /*similarity=*/false, &slot.profile, "LB_SM",
            &slot.exact_count,
            ExactRefine(Distance::kEuclidean, *data_, q, &slot.profile));
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  result.stats.footprint_bytes =
      stats_.means.SizeBytes() + result.stats.exact_count * data_->cols() *
                                     sizeof(float) / std::max<uint64_t>(
                                         1, queries.rows());
  return result;
}

}  // namespace pimine
