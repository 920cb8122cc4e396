#ifndef PIMINE_KNN_STANDARD_PIM_KNN_H_
#define PIMINE_KNN_STANDARD_PIM_KNN_H_

#include <span>
#include <vector>

#include "knn/pim_knn_base.h"

namespace pimine {

/// Standard-PIM (§VI-B): the linear scan with its exact-distance bottleneck
/// offloaded to PIM. For ED the engine supplies LB_PIM-FNN / LB_PIM-ED
/// lower bounds (Theorem 4 picks the compressed dimensionality); objects
/// are refined in ascending-bound order with exact ED, so results match
/// Standard exactly. For CS/PCC the engine supplies upper bounds on the
/// similarity and refinement runs in descending-bound order.
/// EngineOptions::bound picks the ED bound family (SmPimKnn forces
/// kSegmentSm).
class StandardPimKnn : public PimKnnBase {
 public:
  StandardPimKnn(Distance distance, EngineOptions options);

  std::string_view name() const override { return "Standard-PIM"; }
  Status Prepare(const FloatMatrix& data) override;

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s,
                                    SearchSlot& slot) const override;

 private:
  Distance distance_;
};

/// Standard-PIM's per-query step, shared by StandardPimKnn::Search and the
/// serving scheduler (serve::PimServer) so a served query runs the offline
/// path itself. Reads query `bq` of `batch`'s fleet bounds for every row of
/// `data` into `bounds` (data.rows() long; negated for CS/PCC so ascending
/// order is most promising first), then runs FilterRefine with the exact
/// measure. Bound and exact counts go to `slot`, wall time to `profile`
/// (null: untimed).
std::vector<Neighbor> StandardPimQuery(
    const ShardedPimEngine& engine,
    const ShardedPimEngine::QueryHandleBatch& batch, size_t bq,
    Distance distance, const FloatMatrix& data, std::span<const float> q,
    int k, std::span<double> bounds, SearchSlot& slot,
    FunctionProfiler* profile);

}  // namespace pimine

#endif  // PIMINE_KNN_STANDARD_PIM_KNN_H_
