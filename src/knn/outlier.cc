#include "knn/outlier.h"

#include <algorithm>

#include "common/logging.h"
#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "knn/filter_refine.h"

namespace pimine {
namespace {

Status ValidateOutlierInput(const FloatMatrix& data,
                            const OutlierOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options.k <= 0 ||
      static_cast<size_t>(options.k) >= data.rows()) {
    return Status::InvalidArgument("k must be in [1, n-1]");
  }
  if (options.num_outliers <= 0 ||
      static_cast<size_t>(options.num_outliers) > data.rows()) {
    return Status::InvalidArgument("num_outliers out of range");
  }
  return Status::OK();
}

/// Top-n collector for the LARGEST scores: stores negated scores in a TopK
/// (which keeps the smallest). cutoff() is the weakest retained score.
class TopOutliers {
 public:
  explicit TopOutliers(int n) : heap_(static_cast<size_t>(n)) {}

  void Offer(double score, int32_t id) { heap_.Push(-score, id); }

  /// Scores <= cutoff can never enter the top-n.
  double cutoff() const {
    return heap_.full() ? -heap_.threshold() : 0.0;
  }

  std::vector<Neighbor> TakeSortedDescending() {
    std::vector<Neighbor> out = heap_.TakeSorted();
    for (Neighbor& nb : out) nb.distance = -nb.distance;
    return out;  // TakeSorted ascending on -score == descending on score.
  }

 private:
  TopK heap_;
};

}  // namespace

Result<OutlierResult> OrcaOutlierDetector::Detect(
    const FloatMatrix& data, const OutlierOptions& options) {
  PIMINE_RETURN_IF_ERROR(ValidateOutlierInput(data, options));

  OutlierResult result;
  result.stats.footprint_bytes = data.SizeBytes();
  const RunScope scope(nullptr);

  const size_t n = data.rows();
  TopOutliers outliers(options.num_outliers);

  for (size_t i = 0; i < n; ++i) {
    const auto p = data.row(i);
    TopK knn(static_cast<size_t>(options.k));
    const double cutoff = outliers.cutoff();
    bool pruned = false;
    ScopedFunctionTimer timer(Fn::kEd);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d =
          SquaredEuclideanEarlyAbandon(data.row(j), p, knn.threshold());
      traffic::CountExact(1);
      knn.Push(d, static_cast<int32_t>(j));
      // ORCA early abandonment: k neighbours within the cutoff kill the
      // candidate (its score can only shrink further).
      if (knn.full() && knn.threshold() <= cutoff) {
        pruned = true;
        break;
      }
    }
    if (!pruned) {
      outliers.Offer(knn.threshold(), static_cast<int32_t>(i));
    }
  }

  result.outliers = outliers.TakeSortedDescending();
  scope.Close(&result.stats);
  return result;
}

OrcaPimOutlierDetector::OrcaPimOutlierDetector(EngineOptions options)
    : options_(std::move(options)) {}

Result<OutlierResult> OrcaPimOutlierDetector::Detect(
    const FloatMatrix& data, const OutlierOptions& options) {
  PIMINE_RETURN_IF_ERROR(ValidateOutlierInput(data, options));
  PIMINE_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedPimEngine> engine,
      ShardedPimEngine::Build(data, Distance::kEuclidean, options_));

  OutlierResult result;
  const RunScope scope(engine.get());

  const size_t n = data.rows();
  TopOutliers outliers(options.num_outliers);
  std::vector<double> bounds(n);

  for (size_t i = 0; i < n; ++i) {
    const auto p = data.row(i);
    const double cutoff = outliers.cutoff();
    {
      ScopedFunctionTimer timer(Fn::kLbPim);
      PIMINE_ASSIGN_OR_RETURN(const ShardedPimEngine::QueryHandleBatch batch,
                              engine->RunQueryBatch(p, /*num_queries=*/1));
      engine->BoundsFor(batch, 0, bounds);
      traffic::CountBounds(n);
    }
    // The point is not its own neighbour, and once k neighbours lie within
    // the cutoff its score can only shrink further (ORCA's early
    // abandonment): both prune.
    const auto prune = [&](uint32_t idx, const TopK& topk) {
      return idx == i || (topk.full() && topk.threshold() <= cutoff);
    };
    const std::vector<Neighbor> knn = FilterRefine(
        bounds, options.k, {Distance::kEuclidean, data, p}, Fn::kLbPim,
        &prune);
    const double score = knn.back().distance;
    if (score > cutoff) outliers.Offer(score, static_cast<int32_t>(i));
  }

  result.outliers = outliers.TakeSortedDescending();
  scope.Close(&result.stats);
  result.stats.footprint_bytes =
      n * sizeof(double) * 2 + result.stats.exact_count * data.cols() *
                                   sizeof(float) / std::max<size_t>(1, n);
  return result;
}

}  // namespace pimine
