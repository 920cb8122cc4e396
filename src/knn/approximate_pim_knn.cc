#include "knn/approximate_pim_knn.h"

#include "core/quantize.h"
#include "sim/traffic.h"
#include "util/top_k.h"

namespace pimine {
namespace {

/// sum floor(alpha * v)^2 over one row in [0, 1]: the approximation's norm
/// term, of an object offline and of a query online.
double FloorNorm(const Quantizer& quantizer, std::span<const float> row) {
  double acc = 0.0;
  for (float v : row) {
    const double floor = quantizer.QuantizeValue(v);
    acc += floor * floor;
  }
  return acc;
}

}  // namespace

ApproximatePimKnn::ApproximatePimKnn(EngineOptions options)
    : options_(std::move(options)) {
  options_.bound = EngineOptions::Bound::kDirectEd;
}

Status ApproximatePimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options_.recovery.verify_mode == VerifyMode::kBoundSlack) {
    return Status::InvalidArgument(
        "Approx-PIM cannot widen a flagged dot product; use another "
        "VerifyMode");
  }
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(data, Distance::kEuclidean, options_));
  const Quantizer quantizer(options_.alpha);
  floor_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    floor_norms_[i] = FloorNorm(quantizer, data.row(i));
  }
  data_ = &data;
  return Status::OK();
}

std::vector<Neighbor> ApproximatePimKnn::SearchQuery(std::span<const float> q,
                                                     size_t bq, int k,
                                                     BatchScratch& s) const {
  ScopedFunctionTimer timer(Fn::kEdApprox);
  const size_t n = data_->rows();
  const double alpha = engine_->alpha();
  const double alpha_sq = alpha * alpha;
  const double q_norm = FloorNorm(Quantizer(alpha), q);
  const ShardMap& map = engine_->shard_map();

  // Rows in global order, each dot product read from its shard's results.
  TopK topk(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    const PimEngine::QueryHandleBatch& shard = s.batch.shards[map.shard_of[i]];
    const uint64_t dot = shard.dots[0][bq * shard.stride + map.local_of[i]];
    const double approx =
        (floor_norms_[i] + q_norm - 2.0 * static_cast<double>(dot)) /
        alpha_sq;
    topk.Push(approx, static_cast<int32_t>(i));
  }
  traffic::CountPimResults(n);
  traffic::CountArithmetic(4 * n);
  traffic::CountBounds(n);  // no exact computation at all.
  return topk.TakeSorted();
}

uint64_t ApproximatePimKnn::FootprintBytes(uint64_t /*exact_count*/,
                                           size_t /*num_queries*/) const {
  return data_->rows() * sizeof(double) * 2;
}

double RecallAtK(const std::vector<Neighbor>& exact,
                 const std::vector<Neighbor>& approx) {
  if (exact.empty()) return 1.0;
  size_t hits = 0;
  for (const Neighbor& a : approx) {
    for (const Neighbor& e : exact) {
      if (a.id == e.id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

}  // namespace pimine
