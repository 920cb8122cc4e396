#include "knn/knn_search_base.h"

#include "obs/obs.h"
#include "sim/traffic.h"

namespace pimine {

std::span<const float> KnnSearchBase::DeviceOperands(
    const FloatMatrix& queries, size_t begin, size_t end,
    BatchScratch& /*s*/) const {
  return std::span<const float>(queries.data() + begin * queries.cols(),
                                (end - begin) * queries.cols());
}

Result<KnnRunResult> KnnSearchBase::Search(const FloatMatrix& queries,
                                           int k) {
  if (data_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  // Tombstoned rows are unreachable (their bound sorts last), so k ranges
  // over the LIVE corpus.
  const size_t live = engine_ ? engine_->live_objects() : data_->rows();
  if (k <= 0 || static_cast<size_t>(k) > live) {
    return Status::InvalidArgument("k out of range");
  }

  PIMINE_RETURN_IF_ERROR(exec_policy_.CheckDeviceBatch());

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  RunScope scope(engine_.get());

  const size_t batch = exec_policy_.device_batch;
  std::vector<BatchScratch> scratch(
      NumSlots(exec_policy_, queries.rows(), batch));
  for (BatchScratch& s : scratch) s.bounds.resize(data_->rows());

  // Serial-equivalent device time per query, hoisted so every query span
  // charges the same value regardless of device-batch grouping.
  const bool device = UsesDevice();
  const double device_ns_per_query =
      obs::Obs::Enabled() && device ? engine_->SerialDeviceNsPerQuery() : 0.0;

  // Each piece of the slot pass is one device batch: its boundaries depend
  // only on device_batch, so the realized batches (and the device's batch
  // accounting) are the same for every thread count.
  PIMINE_RETURN_IF_ERROR(RunSlotPass(
      exec_policy_, queries.rows(), batch, &result.stats.latency_hist,
      [&](size_t begin, size_t end, size_t slot_index, WorkerSlot& slot) {
        // Engine/device code labels per-query spans with global query ids
        // relative to this batch's first query.
        obs::ScopedTrackBase track_base(static_cast<int64_t>(begin));
        BatchScratch& s = scratch[slot_index];
        // PIM filter phase: one batched fleet operation for the whole
        // device batch.
        if (device) {
          ScopedFunctionTimer timer(Fn::kLbPim);
          const Status run = engine_->RunQueryBatch(
              DeviceOperands(queries, begin, end, s), end - begin, &s.query,
              &s.batch);
          if (!run.ok()) {
            slot.status = run;
            return;
          }
        }
        const RunLedger& ledger = traffic::Local();
        for (size_t qi = begin; qi < end; ++qi) {
          obs::ModeledSpan query_span(static_cast<int64_t>(qi),
                                      &slot.latency, device_ns_per_query);
          const uint64_t bounds_before = ledger.bound_count;
          const uint64_t exact_before = ledger.exact_count;
          result.neighbors[qi] = SearchQuery(queries.row(qi), qi - begin, k, s);
          // A query that evaluated bounds pruned every live row it did not
          // refine.
          if (ledger.bound_count != bounds_before) {
            traffic::CountPruned(live - (ledger.exact_count - exact_before));
          }
        }
      }));
  scope.Close(&result.stats);
  result.stats.footprint_bytes =
      FootprintBytes(result.stats.exact_count, queries.rows());
  obs::AddCounter("pimine_queries_total", queries.rows());
  PublishRunMetrics(result.stats, "pimine_query_latency_ns");
  return result;
}

}  // namespace pimine
