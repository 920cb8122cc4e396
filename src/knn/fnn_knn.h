#ifndef PIMINE_KNN_FNN_KNN_H_
#define PIMINE_KNN_FNN_KNN_H_

#include <span>
#include <vector>

#include "core/segments.h"
#include "knn/knn_search_base.h"

namespace pimine {

/// Segment counts of the LB_FNN levels, coarse to fine: max(1, d / div)
/// for the divisors 64, 16 and 4 (Fig. 12a), skipping a level whose count
/// repeats the previous one (degenerate levels on small d). FNN builds
/// every level; FNN-PIM builds all but the first, which its PIM bound
/// replaces.
std::vector<int64_t> LevelSegmentCounts(size_t d);

/// FNN (Hwang et al., CVPR'12): a cascade of LB_FNN bounds of increasing
/// tightness — d/64, d/16, d/4 segments (Fig. 12a) — followed by exact ED.
/// Coarser levels are cheap and prune most candidates; survivors face the
/// tighter levels.
class FnnKnn : public KnnSearchBase {
 public:
  std::string_view name() const override { return "FNN"; }
  Status Prepare(const FloatMatrix& data) override;

  uint64_t OfflineBytesWritten() const override;
  size_t num_levels() const { return levels_.size(); }
  const SegmentStats& level(size_t i) const { return levels_[i]; }

 protected:
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s) const override;
  /// The coarsest level's statistics, which every query streams.
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const override;

 private:
  std::vector<SegmentStats> levels_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_FNN_KNN_H_
