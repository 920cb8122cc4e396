#ifndef PIMINE_CORE_PARTITIONED_ENGINE_H_
#define PIMINE_CORE_PARTITIONED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "data/matrix.h"
#include "pim/pim_device.h"

namespace pimine {

/// The paper's §VII future-work direction, implemented: when a dataset does
/// not fit the PIM array even after Theorem 4 compression (or when the
/// user wants full-dimensionality bounds regardless), split the objects
/// into partitions and re-program the crossbars between them.
///
/// Re-programming is the expensive, endurance-limited operation the paper
/// warns about (§V-C), so the engine amortizes it across a *batch* of
/// queries: program partition 1 -> run every query in the batch against it
/// -> program partition 2 -> ... Each batch therefore costs
/// `num_partitions` reprograms regardless of batch size, and per-cell write
/// endurance is tracked so callers can budget device lifetime.
///
/// The partitions take turns on one kDirectEd PimEngine: the first batch
/// builds it on the first partition, and each later program is a
/// PimEngine::Reprogram. §VII models one bank, so the engine is
/// single-device (EngineOptions::shard is ignored) and calls PimEngine's
/// batch halves itself, as the fleet does; the fault model applies, and a
/// kFailOp DeviceFault is returned.
///
/// Bounds are the direct Theorem 1 LB_PIM-ED at full dimensionality —
/// tighter than the compressed segment bounds, at the price of reprogram
/// latency and wear. `bench_ext_reprogram` quantifies the trade.
class PartitionedPimEngine {
 public:
  /// Checks the options and the data, whose rows must be in [0, 1]. The
  /// partition size is the largest row count whose full-dimensionality
  /// quantized matrix fits the PIM array.
  static Result<std::unique_ptr<PartitionedPimEngine>> Build(
      const FloatMatrix& data, const EngineOptions& options);

  /// Lower bounds on squared ED for every (query, object) pair.
  /// (*bounds)[q][i] <= SquaredEuclidean(data[i], queries[q]).
  /// One pass over the partitions per call; reprogram cost is amortized
  /// over the whole query batch. An empty batch programs nothing.
  Status ComputeBoundsBatch(const FloatMatrix& queries,
                            std::vector<std::vector<double>>* bounds);

  int64_t num_partitions() const {
    const int64_t n = static_cast<int64_t>(data_->rows());
    return (n + partition_rows_ - 1) / partition_rows_;
  }
  int64_t partition_rows() const { return partition_rows_; }

  /// Modeled PIM compute time (batch dot products) since construction.
  double PimComputeNs() const { return DeviceStats().compute_ns; }
  /// Modeled programming time spent so far (the §VII overhead), Phi store
  /// included.
  double ReprogramNs() const { return DeviceStats().program_ns; }
  /// Full-array programming events so far (endurance proxy).
  uint64_t ProgrammingEvents() const {
    return DeviceStats().programming_events;
  }
  double EnduranceRemainingFraction() const {
    return engine_ ? engine_->device(0).EnduranceRemainingFraction() : 1.0;
  }

 private:
  PartitionedPimEngine(const FloatMatrix& data, const EngineOptions& options,
                       int64_t partition_rows);

  /// The engine's device stats; all zero before the first batch.
  PimDeviceStats DeviceStats() const {
    return engine_ ? engine_->device(0).stats() : PimDeviceStats();
  }

  const FloatMatrix* data_;
  EngineOptions options_;  // The caller's, with the bound forced direct.
  int64_t partition_rows_;
  std::unique_ptr<PimEngine> engine_;  // Null until the first batch.
};

}  // namespace pimine

#endif  // PIMINE_CORE_PARTITIONED_ENGINE_H_
