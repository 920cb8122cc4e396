#include "knn/hamming_knn.h"

#include "common/logging.h"
#include "core/sharded_engine.h"
#include "sim/traffic.h"

namespace pimine {

Status HammingScanKnn::Prepare(const BitMatrix& codes) {
  if (codes.rows() == 0) return Status::InvalidArgument("empty codes");
  codes_ = &codes;
  return Status::OK();
}

Result<KnnRunResult> HammingScanKnn::Search(const BitMatrix& queries, int k) {
  if (codes_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.bits() != codes_->bits()) {
    return Status::InvalidArgument("code width mismatch");
  }
  if (k <= 0 || static_cast<size_t>(k) > codes_->rows()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.reserve(queries.rows());
  result.stats.footprint_bytes = codes_->SizeBytes();
  const RunScope scope(nullptr);

  const size_t n = codes_->rows();
  const size_t words = codes_->words_per_row();
  for (size_t qi = 0; qi < queries.rows(); ++qi) {
    const auto q = queries.row(qi);
    TopK topk(static_cast<size_t>(k));
    ScopedFunctionTimer timer(Fn::kHd);
    for (size_t i = 0; i < n; ++i) {
      const int hd = BitMatrix::HammingDistance(codes_->row(i), q);
      topk.Push(static_cast<double>(hd), static_cast<int32_t>(i));
    }
    traffic::CountRead(n * words * sizeof(uint64_t));
    traffic::CountArithmetic(n * words * 2);
    traffic::CountExact(n);
    result.neighbors.push_back(topk.TakeSorted());
  }

  scope.Close(&result.stats);
  return result;
}

HammingPimKnn::HammingPimKnn(PimConfig config) : config_(config) {}

Status HammingPimKnn::Prepare(const BitMatrix& codes) {
  if (codes.rows() == 0) return Status::InvalidArgument("empty codes");
  PIMINE_ASSIGN_OR_RETURN(engine_, PimHammingEngine::Build(codes, config_));
  return Status::OK();
}

Result<KnnRunResult> HammingPimKnn::Search(const BitMatrix& queries, int k) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.bits() != engine_->code_bits()) {
    return Status::InvalidArgument("code width mismatch");
  }
  if (k <= 0 || static_cast<size_t>(k) > engine_->num_objects()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.reserve(queries.rows());
  // The popcount engine is not a fleet: the run resets and reads its
  // device time itself, and the scope closes the host half.
  engine_->ResetOnlineStats();
  const RunScope scope(nullptr);

  const size_t n = engine_->num_objects();
  std::vector<int32_t> distances;
  for (size_t qi = 0; qi < queries.rows(); ++qi) {
    TopK topk(static_cast<size_t>(k));
    ScopedFunctionTimer timer(Fn::kHdPim);
    PIMINE_RETURN_IF_ERROR(
        engine_->ComputeDistances(queries.row(qi), &distances));
    for (size_t i = 0; i < n; ++i) {
      topk.Push(static_cast<double>(distances[i]), static_cast<int32_t>(i));
    }
    // Host loads two 32-bit PIM results per candidate from the buffer.
    traffic::CountPimResults(n);
    traffic::CountArithmetic(2 * n);
    traffic::CountExact(n);
    result.neighbors.push_back(topk.TakeSorted());
  }

  scope.Close(&result.stats);
  result.stats.pim_ns = engine_->PimComputeNs();
  result.stats.footprint_bytes = n * sizeof(uint64_t);
  return result;
}

}  // namespace pimine
