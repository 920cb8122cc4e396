#include "core/partitioned_engine.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "data/normalize.h"
#include "pim/crossbar_math.h"

namespace pimine {

PartitionedPimEngine::PartitionedPimEngine(const FloatMatrix& data,
                                           const EngineOptions& options,
                                           int64_t partition_rows)
    : data_(&data), options_(options), partition_rows_(partition_rows) {
  options_.bound = EngineOptions::Bound::kDirectEd;
}

Result<std::unique_ptr<PartitionedPimEngine>> PartitionedPimEngine::Build(
    const FloatMatrix& data, const EngineOptions& options) {
  PIMINE_RETURN_IF_ERROR(options.Validate());
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  PIMINE_RETURN_IF_ERROR(CheckUnitRange(data.values(), "data"));
  const int64_t d = static_cast<int64_t>(data.cols());
  if (!FitsInPimArray(1, options.operand_bits, d, options.pim_config)) {
    return Status::CapacityExceeded(
        "a single full-dimensionality vector does not fit the PIM array");
  }
  // Largest partition (row count) that fits at full dimensionality.
  int64_t lo = 1;
  int64_t hi = static_cast<int64_t>(data.rows()) + 1;  // first infeasible.
  while (lo + 1 < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (FitsInPimArray(mid, options.operand_bits, d, options.pim_config)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  return std::unique_ptr<PartitionedPimEngine>(
      new PartitionedPimEngine(data, options, lo));
}

Status PartitionedPimEngine::ComputeBoundsBatch(
    const FloatMatrix& queries, std::vector<std::vector<double>>* bounds) {
  PIMINE_CHECK(bounds != nullptr);
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  const size_t n = data_->rows();
  const size_t nq = queries.rows();
  const size_t d = data_->cols();
  bounds->assign(nq, std::vector<double>(n, 0.0));
  if (nq == 0) return Status::OK();

  const size_t partition_rows = static_cast<size_t>(partition_rows_);
  const auto partition = [&](size_t start) {
    const size_t rows = std::min(partition_rows, n - start);
    return FloatMatrix(rows, d,
                       std::vector<float>(data_->data() + start * d,
                                          data_->data() + (start + rows) * d));
  };
  // The first batch builds the engine on the first partition, which then
  // needs no reprogram.
  const bool first_batch = engine_ == nullptr;
  if (first_batch) {
    PIMINE_ASSIGN_OR_RETURN(engine_, PimEngine::Build(partition(0),
                                                      Distance::kEuclidean,
                                                      options_));
  }
  // The query operands do not depend on the programmed rows, so the batch
  // is prepared (and checked) once, before any partition is reprogrammed.
  PimEngine::QueryScratch scratch;
  PimEngine::QueryHandleBatch handle;
  PIMINE_RETURN_IF_ERROR(engine_->PrepareBatch(
      std::span<const float>(queries.data(), nq * d), nq, &scratch, &handle));
  for (size_t start = 0; start < n; start += partition_rows) {
    // Program the crossbars with this partition (endurance-counted).
    if (start > 0 || !first_batch) {
      PIMINE_RETURN_IF_ERROR(engine_->Reprogram(partition(start)));
    }
    PIMINE_RETURN_IF_ERROR(engine_->DeviceBatch(scratch, nq, &handle));
    for (size_t q = 0; q < nq; ++q) {
      engine_->BoundsFor(handle, q,
                         std::span<double>((*bounds)[q])
                             .subspan(start, engine_->num_objects()));
    }
  }
  return Status::OK();
}

}  // namespace pimine
