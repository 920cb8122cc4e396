#include "knn/standard_pim_knn.h"

#include "core/similarity.h"
#include "knn/filter_refine.h"

namespace pimine {

StandardPimKnn::StandardPimKnn(Distance distance, EngineOptions options)
    : PimKnnBase(std::move(options)), distance_(distance) {}

Status StandardPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  // The engine refuses Hamming (HammingPimKnn serves binary codes).
  PIMINE_ASSIGN_OR_RETURN(engine_,
                          ShardedPimEngine::Build(data, distance_, options_));
  return Status::OK();
}

std::vector<Neighbor> StandardPimKnn::SearchQuery(std::span<const float> q,
                                                  size_t bq, int k,
                                                  BatchScratch& s,
                                                  SearchSlot& slot) const {
  return StandardPimQuery(*engine_, s.batch, bq, distance_, *data_, q, k,
                          s.bounds, slot, &slot.profile);
}

std::vector<Neighbor> StandardPimQuery(
    const ShardedPimEngine& engine,
    const ShardedPimEngine::QueryHandleBatch& batch, size_t bq,
    Distance distance, const FloatMatrix& data, std::span<const float> q,
    int k, std::span<double> bounds, SearchSlot& slot,
    FunctionProfiler* profile) {
  const size_t n = data.rows();
  const bool similarity = IsSimilarityMeasure(distance);
  {
    ScopedFunctionTimer timer(profile, "LB_PIM");
    for (size_t i = 0; i < n; ++i) {
      // Negate similarity upper bounds so ascending order = most
      // promising first for both measure families.
      const double b = engine.BoundFor(batch, bq, i);
      bounds[i] = similarity ? -b : b;
    }
    slot.bound_count += n;
  }
  return FilterRefine(bounds, k, similarity, profile, "LB_PIM",
                      &slot.exact_count,
                      ExactRefine(distance, data, q, profile));
}

}  // namespace pimine
