#include "knn/fnn_pim_knn.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/bounds.h"
#include "core/similarity.h"
#include "knn/filter_refine.h"
#include "knn/fnn_knn.h"
#include "util/random.h"

namespace pimine {

FnnPimKnn::FnnPimKnn(EngineOptions options, bool optimize,
                     std::vector<int64_t> level_divisors,
                     int plan_sample_queries, int plan_k)
    : PimKnnBase(std::move(options)),
      optimize_(optimize),
      level_divisors_(std::move(level_divisors)),
      plan_sample_queries_(plan_sample_queries),
      plan_k_(plan_k) {
  options_.bound = EngineOptions::Bound::kSegmentFnn;
}

Status FnnPimKnn::Prepare(const FloatMatrix& data) {
  PIMINE_RETURN_IF_ERROR(CheckLevelDivisors(level_divisors_));
  if (plan_sample_queries_ < 1 || plan_k_ < 1) {
    return Status::InvalidArgument(
        "FNN-PIM plan_sample_queries and plan_k must be >= 1");
  }
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(data, Distance::kEuclidean, options_));

  // The coarsest original level is the replaced bottleneck; the finer
  // levels remain candidates.
  levels_.clear();
  const int64_t d = static_cast<int64_t>(data.cols());
  int64_t previous_d0 = std::max<int64_t>(1, d / level_divisors_[0]);
  for (size_t lv = 1; lv < level_divisors_.size(); ++lv) {
    const int64_t d0 = std::max<int64_t>(1, d / level_divisors_[lv]);
    if (d0 == previous_d0) continue;
    levels_.push_back(ComputeSegmentStats(data, d0));
    previous_d0 = d0;
  }

  return RebuildPlan(data);
}

Status FnnPimKnn::RebuildPlan(const FloatMatrix& data) {
  PIMINE_RETURN_IF_ERROR(MeasureCandidates(data));

  const int64_t d = static_cast<int64_t>(data.cols());
  selected_levels_.clear();
  use_pim_filter_ = true;
  if (optimize_) {
    const double exact_cost_bits =
        static_cast<double>(d) * 8 * sizeof(float);
    plan_ = ChooseExecutionPlan(candidates_, exact_cost_bits);
    use_pim_filter_ = false;
    for (size_t idx : plan_.selected) {
      if (idx == 0) {
        use_pim_filter_ = true;
      } else {
        selected_levels_.push_back(idx - 1);
      }
    }
  } else {
    // Default execution: PIM bound + every retained original level.
    plan_ = ExecutionPlan();
    plan_.selected.push_back(0);
    for (size_t lv = 0; lv < levels_.size(); ++lv) {
      plan_.selected.push_back(lv + 1);
      selected_levels_.push_back(lv);
    }
    plan_.cost_bits_per_object = PlanCostBits(
        candidates_, plan_.selected,
        static_cast<double>(d) * 8 * sizeof(float));
  }
  return Status::OK();
}

Status FnnPimKnn::OnInsert(const FloatMatrix& rows) {
  PIMINE_RETURN_IF_ERROR(PimKnnBase::OnInsert(rows));
  // Per-row segment statistics of the retained original levels: means and
  // stds depend only on their own row, so appending equals a fresh
  // ComputeSegmentStats of the merged corpus.
  for (SegmentStats& level : levels_) {
    const SegmentStats appended =
        ComputeSegmentStats(rows, level.num_segments);
    level.means.AppendRows(appended.means);
    level.stds.AppendRows(appended.stds);
  }
  return Status::OK();
}

Status FnnPimKnn::OnCompact(const std::vector<uint32_t>& live) {
  PIMINE_RETURN_IF_ERROR(PimKnnBase::OnCompact(live));
  for (SegmentStats& level : levels_) {
    level.means.KeepRows(live);
    level.stds.KeepRows(live);
  }
  // With the corpus dense again, re-measure the Eq. 13 plan exactly as a
  // fresh Prepare of the compacted data would (same sample-query seed for
  // the same row count). Search resets online device stats, so the
  // measurement passes do not leak into query accounting.
  return RebuildPlan(*data_);
}

Status FnnPimKnn::MeasureCandidates(const FloatMatrix& data) {
  candidates_.clear();
  const double b = 32.0;  // operand bits.

  BoundCandidate pim;
  pim.name = "LB_PIM-FNN^" + std::to_string(engine_->num_segments());
  pim.transfer_bits = engine_->TransferBitsPerCandidate();
  pim.is_pim = true;
  candidates_.push_back(pim);
  for (const SegmentStats& level : levels_) {
    BoundCandidate c;
    c.name = "LB_FNN^" + std::to_string(level.num_segments);
    // Means + stds of each candidate stream from memory.
    c.transfer_bits = 2.0 * static_cast<double>(level.num_segments) * b;
    candidates_.push_back(c);
  }

  // Pruning ratios measured on sample queries drawn from the dataset
  // (§V-D: measured offline on a traditional architecture). Ratios are
  // *conditional* on the preceding bounds in the cascade — the survivors of
  // the tight PIM bound are exactly the candidates a coarser original bound
  // cannot re-filter, which is what lets Eq. 13 drop redundant bounds (the
  // paper's "remove" optimization, Fig. 12b).
  const size_t n = data.rows();
  const int nq = plan_sample_queries_;
  const size_t k = std::min<size_t>(plan_k_, n);
  Rng rng(0x91a0000ULL ^ n);
  std::vector<double> ratios(candidates_.size(), 0.0);
  std::vector<double> exact(n);
  std::vector<double> bound_values(n);
  std::vector<float> q_means;
  std::vector<float> q_stds;

  for (int s = 0; s < nq; ++s) {
    const auto q = data.row(rng.NextBounded(n));
    for (size_t i = 0; i < n; ++i) {
      exact[i] = SquaredEuclidean(data.row(i), q);
    }
    std::vector<double> sorted_exact = exact;
    std::nth_element(sorted_exact.begin(), sorted_exact.begin() + (k - 1),
                     sorted_exact.end());
    const double tau = sorted_exact[k - 1];

    std::vector<uint32_t> survivors(n);
    for (size_t i = 0; i < n; ++i) survivors[i] = static_cast<uint32_t>(i);

    // PIM candidate first (cascade order), then the original levels on the
    // survivors of everything before them.
    {
      PIMINE_ASSIGN_OR_RETURN(ShardedPimEngine::QueryHandleBatch handle,
                              engine_->RunQueryBatch(q, /*num_queries=*/1));
      bound_values.resize(n);
      for (size_t i = 0; i < n; ++i) {
        bound_values[i] = engine_->BoundFor(handle, 0, i);
      }
      ratios[0] += MeasurePruningRatio(bound_values, tau, false);
      std::vector<uint32_t> next;
      for (uint32_t i : survivors) {
        if (bound_values[i] <= tau) next.push_back(i);
      }
      survivors = std::move(next);
    }
    for (size_t lv = 0; lv < levels_.size(); ++lv) {
      const SegmentStats& level = levels_[lv];
      q_means.resize(static_cast<size_t>(level.num_segments));
      q_stds.resize(static_cast<size_t>(level.num_segments));
      ComputeSegments(q, level.num_segments, q_means, q_stds);
      bound_values.clear();
      std::vector<uint32_t> next;
      for (uint32_t i : survivors) {
        const double lb = LbFnn(level.means.row(i), level.stds.row(i),
                                q_means, q_stds, level.segment_length);
        bound_values.push_back(lb);
        if (lb <= tau) next.push_back(i);
      }
      ratios[lv + 1] += MeasurePruningRatio(bound_values, tau, false);
      survivors = std::move(next);
    }
  }
  for (size_t c = 0; c < candidates_.size(); ++c) {
    candidates_[c].pruning_ratio = ratios[c] / nq;
  }
  return Status::OK();
}

uint64_t FnnPimKnn::OfflineBytesWritten() const {
  uint64_t bytes = PimKnnBase::OfflineBytesWritten();
  for (size_t lv : selected_levels_) {
    bytes += levels_[lv].means.SizeBytes() + levels_[lv].stds.SizeBytes();
  }
  return bytes;
}

std::vector<Neighbor> FnnPimKnn::SearchQuery(std::span<const float> q,
                                             size_t bq, int k, BatchScratch& s,
                                             SearchSlot& slot) const {
  const size_t n = data_->rows();
  // Query-side segment statistics of each level the query uses.
  std::vector<std::vector<float>> q_means(levels_.size());
  std::vector<std::vector<float>> q_stds(levels_.size());
  const auto query_segments = [&](size_t lv) {
    const auto segments = static_cast<size_t>(levels_[lv].num_segments);
    q_means[lv].resize(segments);
    q_stds[lv].resize(segments);
    ComputeSegments(q, levels_[lv].num_segments, q_means[lv], q_stds[lv]);
  };

  // Sort-order filter: the PIM bound when selected, else the first
  // retained original level, else no filter at all.
  if (use_pim_filter_) {
    ScopedFunctionTimer timer(&slot.profile, "LB_PIM");
    for (size_t i = 0; i < n; ++i) {
      s.bounds[i] = engine_->BoundFor(s.batch, bq, i);
    }
    slot.bound_count += n;
  } else if (!selected_levels_.empty()) {
    ScopedFunctionTimer timer(&slot.profile, "LB_FNN");
    const size_t lv = selected_levels_[0];
    const SegmentStats& level = levels_[lv];
    query_segments(lv);
    for (size_t i = 0; i < n; ++i) {
      // Host-side level bounds know nothing about tombstones, so prune
      // deleted rows here the way the PIM bound would.
      s.bounds[i] = engine_->IsDeleted(i)
                        ? std::numeric_limits<double>::infinity()
                        : LbFnn(level.means.row(i), level.stds.row(i),
                                q_means[lv], q_stds[lv], level.segment_length);
    }
    slot.bound_count += n;
  } else {
    for (size_t i = 0; i < n; ++i) {
      s.bounds[i] =
          engine_->IsDeleted(i) ? std::numeric_limits<double>::infinity() : 0.0;
    }
  }

  // The remaining selected levels prune the filter's survivors.
  const std::span<const size_t> cascade =
      std::span<const size_t>(selected_levels_)
          .subspan(!use_pim_filter_ && !selected_levels_.empty() ? 1 : 0);
  {
    ScopedFunctionTimer timer(&slot.profile, "LB_FNN");
    for (const size_t lv : cascade) query_segments(lv);
  }
  const auto exact =
      ExactRefine(Distance::kEuclidean, *data_, q, &slot.profile);
  return FilterRefine(
      s.bounds, k, /*similarity=*/false, &slot.profile, "LB_PIM",
      &slot.exact_count,
      [&](uint32_t idx, const TopK& topk) -> std::optional<double> {
        for (const size_t lv : cascade) {
          ScopedFunctionTimer timer(&slot.profile, "LB_FNN");
          const SegmentStats& level = levels_[lv];
          const double lb = LbFnn(level.means.row(idx), level.stds.row(idx),
                                  q_means[lv], q_stds[lv],
                                  level.segment_length);
          ++slot.bound_count;
          if (topk.full() && lb >= topk.threshold()) return std::nullopt;
        }
        return exact(idx, topk);
      });
}

}  // namespace pimine
