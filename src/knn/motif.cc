#include "knn/motif.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

Status ValidateMotifInput(const FloatMatrix& windows,
                          const MotifOptions& options, int64_t* exclusion) {
  if (windows.rows() < 2) {
    return Status::InvalidArgument("need at least two windows");
  }
  *exclusion = options.exclusion > 0
                   ? options.exclusion
                   : std::max<int64_t>(1, options.window / 2);
  if (static_cast<size_t>(*exclusion) + 1 >= windows.rows()) {
    return Status::InvalidArgument("exclusion zone leaves no valid pair");
  }
  return Status::OK();
}

}  // namespace

Result<FloatMatrix> ExtractWindows(std::span<const float> series,
                                   int64_t window) {
  if (window <= 0 || static_cast<size_t>(window) > series.size()) {
    return Status::InvalidArgument("window must be in [1, series length]");
  }
  float lo = series[0];
  float hi = series[0];
  for (float v : series) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float range = hi - lo;
  const size_t n = series.size() - static_cast<size_t>(window) + 1;
  FloatMatrix windows(n, static_cast<size_t>(window));
  for (size_t i = 0; i < n; ++i) {
    auto row = windows.mutable_row(i);
    for (int64_t j = 0; j < window; ++j) {
      row[j] = range > 0.0f ? (series[i + j] - lo) / range : 0.0f;
    }
  }
  return windows;
}

Result<MotifResult> MotifDiscovery::Find(const FloatMatrix& windows,
                                         const MotifOptions& options) {
  int64_t exclusion = 0;
  PIMINE_RETURN_IF_ERROR(ValidateMotifInput(windows, options, &exclusion));

  MotifResult result;
  result.stats.footprint_bytes = windows.SizeBytes();
  const RunScope scope(nullptr);

  const size_t n = windows.rows();
  double best = HUGE_VAL;
  {
    // Ends with the loop: a charge after scope.Close is not the run's.
    ScopedFunctionTimer timer(Fn::kEd);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + static_cast<size_t>(exclusion) + 1; j < n; ++j) {
        const double d =
            SquaredEuclideanEarlyAbandon(windows.row(i), windows.row(j), best);
        traffic::CountExact(1);
        if (d < best) {
          best = d;
          result.first = static_cast<int32_t>(i);
          result.second = static_cast<int32_t>(j);
        }
      }
    }
  }
  result.distance = best;
  scope.Close(&result.stats);
  return result;
}

PimMotifDiscovery::PimMotifDiscovery(EngineOptions options)
    : options_(std::move(options)) {}

Result<MotifResult> PimMotifDiscovery::Find(const FloatMatrix& windows,
                                            const MotifOptions& options) {
  int64_t exclusion = 0;
  PIMINE_RETURN_IF_ERROR(ValidateMotifInput(windows, options, &exclusion));
  PIMINE_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedPimEngine> engine,
      ShardedPimEngine::Build(windows, Distance::kEuclidean, options_));

  MotifResult result;
  const RunScope scope(engine.get());

  const size_t n = windows.rows();
  double best = HUGE_VAL;
  for (size_t i = 0; i + static_cast<size_t>(exclusion) + 1 < n; ++i) {
    ShardedPimEngine::QueryHandleBatch handle;
    {
      ScopedFunctionTimer timer(Fn::kLbPim);
      PIMINE_ASSIGN_OR_RETURN(
          handle, engine->RunQueryBatch(windows.row(i), /*num_queries=*/1));
    }
    ScopedFunctionTimer timer(Fn::kEd);
    for (size_t j = i + static_cast<size_t>(exclusion) + 1; j < n; ++j) {
      traffic::CountBounds(1);
      if (engine->BoundFor(handle, 0, j) >= best) continue;
      const double d =
          SquaredEuclideanEarlyAbandon(windows.row(i), windows.row(j), best);
      traffic::CountExact(1);
      if (d < best) {
        best = d;
        result.first = static_cast<int32_t>(i);
        result.second = static_cast<int32_t>(j);
      }
    }
  }
  result.distance = best;
  scope.Close(&result.stats);
  result.stats.footprint_bytes = n * sizeof(uint64_t) * 2;
  return result;
}

}  // namespace pimine
