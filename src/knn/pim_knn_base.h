#ifndef PIMINE_KNN_PIM_KNN_BASE_H_
#define PIMINE_KNN_PIM_KNN_BASE_H_

#include <vector>

#include "core/engine.h"
#include "core/mutable_dataset.h"
#include "knn/knn_search_base.h"

namespace pimine {

/// The PIM kNN paths (Standard-, SM-, OST- and FNN-PIM) on the shared
/// KnnSearchBase driver. A path's Prepare builds `engine_` (its fleet)
/// before it sets `data_`; the path supplies its device operands, its
/// per-query bound fill and refine step (SearchQuery, which ends in
/// FilterRefine) and its side tables.
///
/// As a MutationListener (attach after Prepare to the MutableDataset whose
/// corpus() was Prepared) the base forwards inserts, deletes and
/// compactions to the fleet; paths with side tables extend OnInsert and
/// OnCompact, so every path stays bit-identical to a fresh build of the
/// live corpus.
class PimKnnBase : public KnnSearchBase, public MutationListener {
 public:
  Status OnInsert(const FloatMatrix& rows) override;
  Status OnDelete(size_t row) final;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  double OfflineModeledNs() const override {
    return engine_ ? engine_->OfflineNs() : 0.0;
  }
  uint64_t OfflineBytesWritten() const override {
    return engine_ ? engine_->OfflineBytesWritten() : 0;
  }
  const ShardedPimEngine* engine() const { return engine_.get(); }

 protected:
  explicit PimKnnBase(EngineOptions options) : options_(std::move(options)) {}

  /// The host tables plus the rows refined per query.
  uint64_t FootprintBytes(uint64_t exact_count,
                          size_t num_queries) const final;

  /// Host working set besides the refined rows: the bound array and its
  /// ordering.
  virtual uint64_t HostTableBytes() const {
    return data_->rows() * sizeof(double) * 2;
  }

  EngineOptions options_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_PIM_KNN_BASE_H_
