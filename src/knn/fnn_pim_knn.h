#ifndef PIMINE_KNN_FNN_PIM_KNN_H_
#define PIMINE_KNN_FNN_PIM_KNN_H_

#include <span>
#include <vector>

#include "core/plan.h"
#include "core/segments.h"
#include "knn/pim_knn_base.h"

namespace pimine {

/// FNN-PIM (§V-D, Fig. 12): FNN with its bottleneck bound (the coarsest
/// LB_FNN level) replaced by LB_PIM-FNN^s, where Theorem 4 maximizes s.
///
/// With `optimize = false` the remaining original levels (d/16, d/4) stay
/// in the cascade (Fig. 12b, "replace"). With `optimize = true` the Eq. 13
/// plan optimizer measures every candidate bound's pruning ratio on sample
/// queries at Prepare time and keeps only the subset with the least
/// estimated data transfer (Fig. 12b, "remove" — typically the PIM bound
/// alone, since s > d/16 makes the survivors hard to re-filter).
class FnnPimKnn : public PimKnnBase {
 public:
  FnnPimKnn(EngineOptions options, bool optimize,
            std::vector<int64_t> level_divisors = {64, 16, 4},
            int plan_sample_queries = 4, int plan_k = 10);

  std::string_view name() const override {
    return optimize_ ? "FNN-PIM-optimize" : "FNN-PIM";
  }
  Status Prepare(const FloatMatrix& data) override;

  /// Mutation mirroring: inserts append to the fleet and to every retained
  /// original level's per-row segment statistics; compaction compacts both
  /// and — with optimize — re-measures the Eq. 13 plan on the (dense)
  /// compacted corpus, matching a fresh Prepare of the same data. Between
  /// compactions an optimized plan reflects the corpus it was measured on
  /// (bounds stay admissible, so results stay exact).
  Status OnInsert(const FloatMatrix& rows) override;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  uint64_t OfflineBytesWritten() const override;

  /// The chosen plan (meaningful after Prepare; trivial when !optimize).
  const ExecutionPlan& plan() const { return plan_; }
  const std::vector<BoundCandidate>& candidates() const { return candidates_; }

 protected:
  /// No device op is issued when the plan dropped the PIM bound.
  bool UsesDevice() const override { return use_pim_filter_; }
  std::vector<Neighbor> SearchQuery(std::span<const float> q, size_t bq,
                                    int k, BatchScratch& s,
                                    SearchSlot& slot) const override;

 private:
  /// Measures pruning ratios on sample queries and fills `candidates_`.
  Status MeasureCandidates(const FloatMatrix& data);

  /// MeasureCandidates + the Eq. 13 plan selection, shared by Prepare and
  /// the post-compaction re-plan (identical inputs give identical plans).
  Status RebuildPlan(const FloatMatrix& data);

  bool optimize_;
  std::vector<int64_t> level_divisors_;
  int plan_sample_queries_;
  int plan_k_;

  /// Retained original LB_FNN levels (coarsest level is replaced by PIM).
  std::vector<SegmentStats> levels_;
  std::vector<BoundCandidate> candidates_;  // [0] = PIM, then levels.
  ExecutionPlan plan_;
  /// selected_levels_[j] = index into levels_ applied after the PIM filter.
  std::vector<size_t> selected_levels_;
  bool use_pim_filter_ = true;
};

}  // namespace pimine

#endif  // PIMINE_KNN_FNN_PIM_KNN_H_
