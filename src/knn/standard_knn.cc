#include "knn/standard_knn.h"

#include <algorithm>

#include "sim/traffic.h"

namespace pimine {

StandardKnn::StandardKnn(Distance distance) : distance_(distance) {
  name_ = "Standard";
}

Status StandardKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  return Status::OK();
}

uint64_t StandardKnn::FootprintBytes(uint64_t /*exact_count*/,
                                     size_t /*num_queries*/) const {
  return data_->SizeBytes();
}

std::vector<Neighbor> StandardKnn::SearchQuery(std::span<const float> q,
                                               size_t /*bq*/, int k,
                                               BatchScratch& s) const {
  const size_t n = data_->rows();
  TopK topk(static_cast<size_t>(k));
  traffic::CountExact(n);
  if (distance_ != Distance::kEuclidean) {
    const bool cosine = distance_ == Distance::kCosine;
    {
      ScopedFunctionTimer timer(cosine ? Fn::kCs : Fn::kPcc);
      for (size_t i = 0; i < n; ++i) {
        const double sim = cosine ? CosineSimilarity(data_->row(i), q)
                                  : PearsonCorrelation(data_->row(i), q);
        topk.Push(-sim, static_cast<int32_t>(i));
      }
    }
    return FinalizeSimilarityNeighbors(topk);
  }
  // Distances are computed in blocks of kScanBlock rows so the ED timer
  // covers only the distance function itself; top-k
  // maintenance is charged to the (unattributed) remainder, like the
  // paper's per-function breakdown. The pruning threshold refreshes between
  // blocks, which keeps early abandoning exact. The block is fixed, not an
  // ExecPolicy knob: it decides how early a row may abandon, and with it
  // the traffic.
  constexpr size_t kScanBlock = 512;
  for (size_t begin = 0; begin < n; begin += kScanBlock) {
    const size_t end = std::min(n, begin + kScanBlock);
    {
      ScopedFunctionTimer timer(Fn::kEd);
      const double threshold = topk.threshold();
      for (size_t i = begin; i < end; ++i) {
        s.bounds[i] = SquaredEuclideanEarlyAbandon(data_->row(i), q, threshold);
      }
    }
    for (size_t i = begin; i < end; ++i) {
      topk.Push(s.bounds[i], static_cast<int32_t>(i));
    }
  }
  return topk.TakeSorted();
}

}  // namespace pimine
