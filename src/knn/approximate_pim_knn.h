#ifndef PIMINE_KNN_APPROXIMATE_PIM_KNN_H_
#define PIMINE_KNN_APPROXIMATE_PIM_KNN_H_

#include <span>
#include <vector>

#include "core/engine.h"
#include "knn/knn_common.h"
#include "knn/knn_search_base.h"

namespace pimine {

/// The road NOT taken by the paper, implemented for comparison: GraphR-style
/// fixed-point approximation (§II-A). Distances are computed *entirely*
/// from the quantized values —
///   ED~(p, q) = sum floor(a*p_i)^2 + sum floor(a*q_i)^2
///               - 2 * floor(a*p).floor(a*q)
/// — and the top-k is taken on these approximations with **no exact
/// refinement**. Fast and fully in-PIM, but results can be wrong: with a
/// coarse scaling factor the quantization error flips neighbour ranks.
///
/// The dot products come from a kDirectEd fleet, like any PIM kNN path's,
/// so the path follows set_exec_policy and EngineOptions::shard and
/// rejects queries outside [0, 1]. The fleet's bounds go unused: each
/// query reads its raw dot products through the shard map. Prepare
/// rejects VerifyMode::kBoundSlack: an approximate distance has no
/// admissible worst case to widen a flagged dot product to.
///
/// The paper's argument ("such precision loss may compromise the accuracy
/// of results in data mining tasks ... instead, we utilize PIM to compute
/// bound functions") is exactly the recall gap `bench_ext_accuracy`
/// measures between this class and StandardPimKnn.
class ApproximatePimKnn : public KnnSearchBase {
 public:
  explicit ApproximatePimKnn(EngineOptions options);

  std::string_view name() const override { return "Approx-PIM"; }
  Status Prepare(const FloatMatrix& data) override;

  double OfflineModeledNs() const override {
    return engine_ ? engine_->OfflineNs() : 0.0;
  }

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s) const override;
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const override;

 private:
  EngineOptions options_;  // The caller's, with the bound forced direct.
  /// sum of squared floors per object (offline part of the approximation).
  std::vector<double> floor_norms_;
};

/// Fraction of the true top-k ids found in `approx` (order-insensitive).
double RecallAtK(const std::vector<Neighbor>& exact,
                 const std::vector<Neighbor>& approx);

}  // namespace pimine

#endif  // PIMINE_KNN_APPROXIMATE_PIM_KNN_H_
