#ifndef PIMINE_KNN_KNN_SEARCH_BASE_H_
#define PIMINE_KNN_KNN_SEARCH_BASE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sharded_engine.h"
#include "knn/knn_common.h"

namespace pimine {

/// The one Search of the kNN paths: Standard, SM, OST and FNN and their
/// PIM counterparts (§V-D, §VI-B swap one bound inside an unchanged
/// loop), and the §II-A approximate kNN (ApproximatePimKnn). It checks
/// the arguments, opens the run's RunScope, gives every worker a
/// BatchScratch, and runs RunSlotPass in device batches with a ModeledSpan
/// per query. A path with a fleet (`engine_`) first answers each device
/// batch with one RunQueryBatch. The run closes on the scope, then
/// PublishRunMetrics. A path supplies its Prepare, SearchQuery and
/// FootprintBytes. Host baselines chunk queries by ExecPolicy::device_batch
/// too, so every path rejects device_batch = 0.
class KnnSearchBase : public KnnAlgorithm {
 public:
  Result<KnnRunResult> Search(const FloatMatrix& queries, int k) final;

 protected:
  /// Per-worker scratch, reused across every query the worker answers.
  struct BatchScratch {
    ShardedPimEngine::QueryScratch query;
    ShardedPimEngine::QueryHandleBatch batch;
    std::vector<float> operands;  // gathered device operands (OST-PIM).
    std::vector<double> bounds;   // one per data row.
  };

  /// Device operands of queries [begin, end): the query rows themselves,
  /// which are contiguous in the matrix.
  virtual std::span<const float> DeviceOperands(const FloatMatrix& queries,
                                                size_t begin, size_t end,
                                                BatchScratch& s) const;

  /// False when the path issues no device op: every host baseline, and a
  /// PIM path whose Eq. 13 plan dropped the PIM bound.
  virtual bool UsesDevice() const { return engine_ != nullptr; }

  /// Answers query `q`, row `bq` of the device batch in `s.batch`: fills
  /// `s.bounds` and runs FilterRefine (Standard scans every row instead),
  /// charging the calling thread's ledger.
  virtual std::vector<Neighbor> SearchQuery(std::span<const float> q,
                                            size_t bq, int k,
                                            BatchScratch& s) const = 0;

  /// RunStats::footprint_bytes of a Search over `num_queries` queries that
  /// computed `exact_count` exact distances.
  virtual uint64_t FootprintBytes(uint64_t exact_count,
                                  size_t num_queries) const = 0;

  /// Set by Prepare once it has succeeded: Search fails with
  /// FailedPrecondition until then.
  const FloatMatrix* data_ = nullptr;
  /// The path's PIM fleet; null for the host baselines.
  std::unique_ptr<ShardedPimEngine> engine_;
};

}  // namespace pimine

#endif  // PIMINE_KNN_KNN_SEARCH_BASE_H_
