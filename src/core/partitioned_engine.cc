#include "core/partitioned_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "core/pim_bounds.h"
#include "pim/crossbar_math.h"

namespace pimine {

PartitionedPimEngine::PartitionedPimEngine(const FloatMatrix& data,
                                           const EngineOptions& options,
                                           int64_t partition_rows)
    : data_(&data),
      options_(options),
      quantizer_(options.alpha),
      partition_rows_(partition_rows),
      device_(std::make_unique<PimDevice>(options.pim_config)) {}

Result<std::unique_ptr<PartitionedPimEngine>> PartitionedPimEngine::Build(
    const FloatMatrix& data, const EngineOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  for (size_t i = 0; i < data.rows(); ++i) {
    for (float v : data.row(i)) {
      if (!(v >= 0.0f && v <= 1.0f)) {
        return Status::InvalidArgument("data must be normalized into [0, 1]");
      }
    }
  }
  const int64_t d = static_cast<int64_t>(data.cols());
  // Largest partition (row count) that fits at full dimensionality.
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(data.rows()) + 1;  // first infeasible.
  if (!FitsInPimArray(1, options.operand_bits, d, options.pim_config)) {
    return Status::CapacityExceeded(
        "a single full-dimensionality vector does not fit the PIM array");
  }
  lo = 1;
  while (lo + 1 < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (FitsInPimArray(mid, options.operand_bits, d, options.pim_config)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  auto engine = std::unique_ptr<PartitionedPimEngine>(
      new PartitionedPimEngine(data, options, lo));
  for (size_t start = 0; start < data.rows();
       start += static_cast<size_t>(lo)) {
    engine->partition_starts_.push_back(start);
  }
  engine->phi_ = engine->quantizer_.PhiEdAll(data);
  return engine;
}

Status PartitionedPimEngine::ComputeBoundsBatch(
    const FloatMatrix& queries, std::vector<std::vector<double>>* bounds) {
  PIMINE_CHECK(bounds != nullptr);
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  const size_t n = data_->rows();
  const size_t nq = queries.rows();
  const int64_t d = static_cast<int64_t>(data_->cols());

  bounds->assign(nq, std::vector<double>(n, 0.0));

  // Quantize every query once per batch.
  IntMatrix quantized_queries(nq, data_->cols());
  std::vector<double> phi_q(nq);
  for (size_t q = 0; q < nq; ++q) {
    for (float v : queries.row(q)) {
      if (!(v >= 0.0f && v <= 1.0f)) {
        return Status::InvalidArgument(
            "queries must be normalized into [0, 1]");
      }
    }
    quantizer_.QuantizeRow(queries.row(q), quantized_queries.mutable_row(q));
    phi_q[q] = quantizer_.PhiEd(queries.row(q));
  }

  std::vector<uint64_t> dots;
  for (size_t start : partition_starts_) {
    const size_t rows =
        std::min<size_t>(static_cast<size_t>(partition_rows_), n - start);
    // Re-program the crossbars with this partition (endurance-counted).
    IntMatrix partition(rows, data_->cols());
    for (size_t r = 0; r < rows; ++r) {
      quantizer_.QuantizeRow(data_->row(start + r),
                             partition.mutable_row(r));
    }
    PIMINE_RETURN_IF_ERROR(
        device_->ReprogramDataset(partition, options_.operand_bits));

    for (size_t q = 0; q < nq; ++q) {
      PIMINE_RETURN_IF_ERROR(
          device_->DotProductAll(quantized_queries.row(q), &dots));
      std::vector<double>& out = (*bounds)[q];
      for (size_t r = 0; r < rows; ++r) {
        out[start + r] = LbPimEd(phi_[start + r], phi_q[q], dots[r], d,
                                 quantizer_.alpha());
      }
      ChargeBounds(kLbPimEdCost, rows);
    }
  }
  return Status::OK();
}

}  // namespace pimine
