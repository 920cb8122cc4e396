#include "knn/pim_knn_base.h"

#include <algorithm>

#include "obs/obs.h"
#include "sim/traffic.h"
#include "util/timer.h"

namespace pimine {

Status PimKnnBase::OnInsert(const FloatMatrix& rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->AppendRows(rows);
}

Status PimKnnBase::OnDelete(std::span<const uint32_t> rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  for (const uint32_t row : rows) {
    PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  }
  return Status::OK();
}

Status PimKnnBase::OnCompact(const std::vector<uint32_t>& /*live*/) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->Compact();
}

std::span<const float> PimKnnBase::DeviceOperands(const FloatMatrix& queries,
                                                  size_t begin, size_t end,
                                                  BatchScratch& /*s*/) const {
  return std::span<const float>(queries.data() + begin * queries.cols(),
                                (end - begin) * queries.cols());
}

Result<KnnRunResult> PimKnnBase::Search(const FloatMatrix& queries, int k) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  // Tombstoned rows are unreachable (their bound sorts last), so k ranges
  // over the LIVE corpus.
  if (k <= 0 || static_cast<size_t>(k) > engine_->live_objects()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  engine_->ResetOnlineStats();
  traffic::AggregateScope traffic_scope;
  Timer wall;

  std::vector<BatchScratch> scratch(
      NumBatchSlots(exec_policy_, queries.rows()));
  for (BatchScratch& s : scratch) s.bounds.resize(data_->rows());

  // Serial-equivalent device time per query, hoisted so every QuerySpan
  // charges the same value regardless of device-batch grouping.
  const bool device = UsesDevice();
  const double device_ns_per_query =
      obs::Obs::Enabled() && device ? engine_->SerialDeviceNsPerQuery() : 0.0;

  Status status = RunQueryBatchesWithPolicy(
      exec_policy_, queries.rows(), &result.stats,
      [&](size_t begin, size_t end, size_t slot_index, SearchSlot& slot) {
        BatchScratch& s = scratch[slot_index];
        // PIM filter phase: one batched fleet operation for the whole
        // device batch.
        if (device) {
          ScopedFunctionTimer timer(&slot.profile, "LB_PIM");
          const Status run = engine_->RunQueryBatch(
              DeviceOperands(queries, begin, end, s), end - begin, &s.query,
              &s.batch);
          if (!run.ok()) {
            slot.status = run;
            return;
          }
        }
        for (size_t qi = begin; qi < end; ++qi) {
          obs::QuerySpan query_span(static_cast<int64_t>(qi), &slot.latency,
                                    device_ns_per_query);
          result.neighbors[qi] =
              SearchQuery(queries.row(qi), qi - begin, k, s, slot);
        }
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  result.stats.pim_ns = engine_->PimComputeNs();
  result.stats.fault = engine_->FaultStatsTotal();
  result.stats.fleet = engine_->FleetStats();
  result.stats.footprint_bytes =
      HostTableBytes() +
      (result.stats.exact_count / std::max<uint64_t>(1, queries.rows())) *
          data_->cols() * sizeof(float);
  return result;
}

}  // namespace pimine
