#ifndef PIMINE_KNN_PIM_KNN_BASE_H_
#define PIMINE_KNN_PIM_KNN_BASE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/mutable_dataset.h"
#include "core/sharded_engine.h"
#include "knn/knn_common.h"

namespace pimine {

/// The Search skeleton of the PIM kNN paths (Standard-, SM-, OST- and
/// FNN-PIM): argument checks, one fleet RunQueryBatch per device batch, a
/// QuerySpan per query and the stats epilogue. A path supplies only its
/// device operands, its per-query bound fill and refine step
/// (SearchQuery, which ends in FilterRefine), its side tables and its host
/// footprint.
///
/// As a MutationListener (attach after Prepare to the MutableDataset whose
/// corpus() was Prepared) the base forwards inserts, deletes and
/// compactions to the fleet; paths with side tables extend OnInsert and
/// OnCompact, so every path stays bit-identical to a fresh build of the
/// live corpus.
class PimKnnBase : public KnnAlgorithm, public MutationListener {
 public:
  Result<KnnRunResult> Search(const FloatMatrix& queries, int k) final;

  Status OnInsert(const FloatMatrix& rows) override;
  Status OnDelete(std::span<const uint32_t> rows) final;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  double OfflineModeledNs() const override {
    return engine_ ? engine_->OfflineNs() : 0.0;
  }
  uint64_t OfflineBytesWritten() const override {
    return engine_ ? engine_->OfflineBytesWritten() : 0;
  }
  const ShardedPimEngine* engine() const { return engine_.get(); }

 protected:
  /// Per-worker scratch, reused across every device batch the worker runs.
  struct BatchScratch {
    ShardedPimEngine::QueryScratch query;
    ShardedPimEngine::QueryHandleBatch batch;
    std::vector<float> operands;  // gathered device operands (OST-PIM).
    std::vector<double> bounds;   // one per data row.
  };

  explicit PimKnnBase(EngineOptions options) : options_(std::move(options)) {}

  /// Device operands of queries [begin, end): the query rows themselves,
  /// which are contiguous in the matrix.
  virtual std::span<const float> DeviceOperands(const FloatMatrix& queries,
                                                size_t begin, size_t end,
                                                BatchScratch& s) const;

  /// False when the path issues no device op at all (an Eq. 13 plan that
  /// dropped the PIM bound).
  virtual bool UsesDevice() const { return true; }

  /// Answers query `q`, row `bq` of the device batch in `s.batch`: fills
  /// `s.bounds` and runs FilterRefine, charging `slot`.
  virtual std::vector<Neighbor> SearchQuery(std::span<const float> q,
                                            size_t bq, int k, BatchScratch& s,
                                            SearchSlot& slot) const = 0;

  /// Host working set besides the refined rows: the bound array and its
  /// ordering.
  virtual uint64_t HostTableBytes() const {
    return data_->rows() * sizeof(double) * 2;
  }

  EngineOptions options_;
  const FloatMatrix* data_ = nullptr;
  std::unique_ptr<ShardedPimEngine> engine_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_PIM_KNN_BASE_H_
