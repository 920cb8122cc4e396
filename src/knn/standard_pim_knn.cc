#include "knn/standard_pim_knn.h"

#include "core/similarity.h"
#include "knn/filter_refine.h"

namespace pimine {

StandardPimKnn::StandardPimKnn(Distance distance, EngineOptions options)
    : PimKnnBase(std::move(options)), distance_(distance) {}

Status StandardPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  // The engine refuses Hamming (HammingPimKnn serves binary codes).
  PIMINE_ASSIGN_OR_RETURN(engine_,
                          ShardedPimEngine::Build(data, distance_, options_));
  data_ = &data;
  return Status::OK();
}

std::vector<Neighbor> StandardPimKnn::SearchQuery(std::span<const float> q,
                                                  size_t bq, int k,
                                                  BatchScratch& s) const {
  return StandardPimQuery(*engine_, s.batch, bq, distance_, *data_, q, k,
                          s.bounds);
}

std::vector<Neighbor> StandardPimQuery(
    const ShardedPimEngine& engine,
    const ShardedPimEngine::QueryHandleBatch& batch, size_t bq,
    Distance distance, const FloatMatrix& data, std::span<const float> q,
    int k, std::span<double> bounds) {
  const size_t n = data.rows();
  const bool similarity = IsSimilarityMeasure(distance);
  {
    ScopedFunctionTimer timer(Fn::kLbPim);
    engine.BoundsFor(batch, bq, bounds.first(n));
    // Negate similarity upper bounds so ascending order = most promising
    // first for both measure families.
    if (similarity) {
      for (double& b : bounds.first(n)) b = -b;
    }
    traffic::CountBounds(n);
  }
  return FilterRefine(bounds, k, {distance, data, q}, Fn::kLbPim);
}

}  // namespace pimine
