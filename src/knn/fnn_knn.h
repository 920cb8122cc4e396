#ifndef PIMINE_KNN_FNN_KNN_H_
#define PIMINE_KNN_FNN_KNN_H_

#include <span>
#include <vector>

#include "core/segments.h"
#include "knn/knn_common.h"

namespace pimine {

/// InvalidArgument unless `level_divisors` names at least one LB_FNN level
/// and every divisor of d is >= 1 (shared by FNN and FNN-PIM).
Status CheckLevelDivisors(std::span<const int64_t> level_divisors);

/// FNN (Hwang et al., CVPR'12): a cascade of LB_FNN bounds of increasing
/// tightness — d/64, d/16, d/4 segments (Fig. 12a) — followed by exact ED.
/// Coarser levels are cheap and prune most candidates; survivors face the
/// tighter levels.
class FnnKnn : public KnnAlgorithm {
 public:
  /// Divisors of d giving the cascade's segment counts, coarse to fine.
  explicit FnnKnn(std::vector<int64_t> level_divisors = {64, 16, 4});

  std::string_view name() const override { return "FNN"; }
  Status Prepare(const FloatMatrix& data) override;
  Result<KnnRunResult> Search(const FloatMatrix& queries, int k) override;

  uint64_t OfflineBytesWritten() const override;
  size_t num_levels() const { return levels_.size(); }
  const SegmentStats& level(size_t i) const { return levels_[i]; }

 private:
  std::vector<int64_t> level_divisors_;
  const FloatMatrix* data_ = nullptr;
  std::vector<SegmentStats> levels_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_FNN_KNN_H_
