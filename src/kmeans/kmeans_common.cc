#include "kmeans/kmeans_common.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <unordered_set>

#include "common/logging.h"
#include "core/similarity.h"
#include "obs/obs.h"
#include "sim/traffic.h"
#include "util/exact_sum.h"
#include "util/random.h"
#include "util/timer.h"

namespace pimine {
namespace {

/// Points per chunk of an assign pass: 512, or fewer when that would leave
/// a worker under four chunks, so small passes still spread across every
/// worker. Serial policies run the whole pass inline whatever the chunk.
size_t AssignChunk(const ExecPolicy& policy, size_t num_points) {
  const size_t chunks =
      4 * static_cast<size_t>(std::max(1, policy.num_threads));
  return std::clamp<size_t>((num_points + chunks - 1) / chunks, 1, 512);
}

}  // namespace

Result<KmeansResult> KmeansAlgorithm::Run(const FloatMatrix& data,
                                          const KmeansOptions& options) const {
  PIMINE_RETURN_IF_ERROR(ValidateKmeansInput(data, options));

  std::unique_ptr<PimAssignFilter> owned_filter;
  PimAssignFilter* filter = options.filter;
  if (options.use_pim && filter == nullptr) {
    PIMINE_ASSIGN_OR_RETURN(
        owned_filter, PimAssignFilter::Build(data, options.engine_options));
    filter = owned_filter.get();
  }
  if (filter != nullptr) filter->set_fanout_policy(options.exec);

  KmeansResult result;
  result.centers = InitCenters(data, options.k, options.seed);
  result.assignments.assign(data.rows(), 0);
  const std::unique_ptr<KmeansBounds> bounds =
      NewBounds(KmeansRun{data, options, filter, result});

  RunScope scope(filter != nullptr ? &filter->engine() : nullptr);
  CenterSums sums(result.centers.rows(), data.cols(), data.rows());
  std::vector<double> moved;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    Timer iter_wall;
    // Modeled iteration latency: this thread's host traffic delta, which
    // the assign pass's slots fold back into (exact at any thread count),
    // + the device time this iteration's BeginIteration charges (added
    // below, before any early exit).
    const double pim_ns_before =
        filter != nullptr ? filter->PimComputeNs() : 0.0;
    obs::ModeledSpan iter_span("kmeans", "iteration",
                               &result.stats.latency_hist);

    if (filter != nullptr) {
      ScopedFunctionTimer timer(Fn::kLbPim);
      PIMINE_RETURN_IF_ERROR(
          filter->BeginIteration(result.centers, options.exec.device_batch));
    }
    const size_t changed = bounds->Assign(iter);
    {
      ScopedFunctionTimer timer(Fn::kUpdate);
      result.centers = sums.Update(data, result.assignments, result.centers,
                                   &moved, filter);
    }
    bounds->UpdateBounds(moved);

    if (filter != nullptr) {
      iter_span.AddModeledNs(filter->PimComputeNs() - pim_ns_before);
    }
    obs::AddCounter("pimine_kmeans_iterations_total", 1);
    result.iteration_wall_ms.push_back(iter_wall.ElapsedMillis());
    ++result.iterations;
    if (changed == 0 && iter > 0) break;
  }

  result.inertia = ComputeInertia(data, result.centers, result.assignments);
  scope.Close(&result.stats);
  PublishRunMetrics(result.stats, "pimine_kmeans_iteration_ns");
  return result;
}

KmeansBounds::KmeansBounds(const KmeansRun& run)
    : data_(run.data),
      options_(run.options),
      filter_(run.filter),
      result_(run.result),
      n_(run.data.rows()),
      k_(static_cast<size_t>(run.options.k)) {}

size_t KmeansBounds::AssignPass(
    const std::function<bool(size_t, size_t)>& assign_point) {
  uint64_t changed = 0;
  const Status status = RunSlotPass(
      options_.exec, n_, AssignChunk(options_.exec, n_),
      &result_.stats.latency_hist,
      [&](size_t begin, size_t end, size_t slot_index, WorkerSlot& slot) {
        for (size_t i = begin; i < end; ++i) {
          if (assign_point(i, slot_index)) ++slot.changed;
        }
      },
      &changed);
  PIMINE_DCHECK(status.ok());  // no assign step records an error.
  obs::AddCounter("pimine_kmeans_reassignments_total", changed);
  return changed;
}

size_t KmeansBounds::ScanAllCenters(size_t i, std::span<double> dist) const {
  size_t best_c = 0;
  double best_d = HUGE_VAL;
  for (size_t c = 0; c < k_; ++c) {
    dist[c] = DistanceOrBound(i, c, best_d);
    if (dist[c] < best_d) {
      best_d = dist[c];
      best_c = c;
    }
  }
  return best_c;
}

void KmeansBounds::CenterSeparation(std::span<double> half_nearest,
                                    std::span<double> cc) const {
  ScopedFunctionTimer timer(Fn::kEd);
  std::fill(half_nearest.begin(), half_nearest.end(), HUGE_VAL);
  for (size_t a = 0; a < k_; ++a) {
    for (size_t b = a + 1; b < k_; ++b) {
      const double d = KmeansExactDistance(result_.centers.row(a),
                                           result_.centers.row(b));
      half_nearest[a] = std::min(half_nearest[a], d);
      half_nearest[b] = std::min(half_nearest[b], d);
      if (!cc.empty()) {
        cc[a * k_ + b] = d;
        cc[b * k_ + a] = d;
      }
    }
  }
  for (double& s : half_nearest) s *= 0.5;
  traffic::CountExact(k_ * (k_ - 1) / 2);
}

double KmeansExactDistance(std::span<const float> a,
                           std::span<const float> b) {
  const double d2 = SquaredEuclidean(a, b);
  traffic::CountLongOps(1);
  return std::sqrt(d2);
}

Status ValidateKmeansInput(const FloatMatrix& data,
                           const KmeansOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options.k <= 0 || static_cast<size_t>(options.k) > data.rows()) {
    return Status::InvalidArgument("k out of range");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  PIMINE_RETURN_IF_ERROR(options.exec.CheckDeviceBatch());
  // LowerBound indexes the filter's live-row map by point, so every row of
  // `data` needs an entry there.
  if (options.filter != nullptr &&
      options.filter->live_points() != data.rows()) {
    return Status::InvalidArgument(
        "shared filter covers " +
        std::to_string(options.filter->live_points()) +
        " live points but data has " + std::to_string(data.rows()) +
        " rows");
  }
  return Status::OK();
}

size_t NumAssignSlots(const ExecPolicy& policy, size_t num_points) {
  return NumSlots(policy, num_points, AssignChunk(policy, num_points));
}

double KmeansResult::MeanIterationMs() const {
  if (iteration_wall_ms.empty()) return 0.0;
  double sum = 0.0;
  for (double ms : iteration_wall_ms) sum += ms;
  return sum / static_cast<double>(iteration_wall_ms.size());
}

FloatMatrix InitCenters(const FloatMatrix& data, int k, uint64_t seed) {
  PIMINE_CHECK(k > 0 && static_cast<size_t>(k) <= data.rows())
      << "k=" << k << " vs n=" << data.rows();
  Rng rng(seed ^ 0xce27e25ULL);
  std::unordered_set<size_t> chosen;
  FloatMatrix centers(static_cast<size_t>(k), data.cols());
  for (int c = 0; c < k; ++c) {
    size_t idx = rng.NextBounded(data.rows());
    while (chosen.count(idx) > 0) idx = rng.NextBounded(data.rows());
    chosen.insert(idx);
    const auto src = data.row(idx);
    auto dst = centers.mutable_row(c);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return centers;
}

CenterSums::CenterSums(size_t k, size_t dims, size_t num_points)
    : k_(k),
      d_(dims),
      counts_(k, 0),
      sums_(k * dims),
      summed_under_(num_points, -1) {}

FloatMatrix CenterSums::Update(const FloatMatrix& data,
                               const std::vector<int32_t>& assignments,
                               const FloatMatrix& previous_centers,
                               std::vector<double>* moved,
                               const PimAssignFilter* filter) {
  PIMINE_CHECK(assignments.size() == data.rows() &&
               data.rows() == summed_under_.size() && data.cols() == d_ &&
               previous_centers.rows() == k_ && previous_centers.cols() == d_)
      << "CenterSums::Update needs the points and centers it was built for";

  // Only points that moved since the last update change a sum: Add(-x) on
  // the old center is exact, so the limbs equal a fresh sum's.
  for (size_t i = 0; i < data.rows(); ++i) {
    const int32_t c = assignments[i];
    const int32_t old = summed_under_[i];
    if (c == old) continue;
    PIMINE_DCHECK(c >= 0 && static_cast<size_t>(c) < k_);
    const auto row = data.row(i);
    if (old >= 0) {
      ExactSum* sum = sums_.data() + static_cast<size_t>(old) * d_;
      for (size_t j = 0; j < d_; ++j) sum[j].Add(-row[j]);
      --counts_[old];
    }
    ExactSum* sum = sums_.data() + static_cast<size_t>(c) * d_;
    for (size_t j = 0; j < d_; ++j) sum[j].Add(row[j]);
    ++counts_[c];
    summed_under_[i] = c;
  }
  if (filter != nullptr) {
    filter->ChargeTreeReduction(k_ * d_ * sizeof(ExactSum) +
                                k_ * sizeof(int64_t));
  }
  traffic::CountRead(data.SizeBytes());
  traffic::CountArithmetic(data.rows() * d_);

  FloatMatrix centers(k_, d_);
  if (moved != nullptr) moved->assign(k_, 0.0);
  for (size_t c = 0; c < k_; ++c) {
    auto dst = centers.mutable_row(c);
    const auto prev = previous_centers.row(c);
    if (counts_[c] == 0) {
      std::copy(prev.begin(), prev.end(), dst.begin());
      continue;
    }
    const double inv = 1.0 / static_cast<double>(counts_[c]);
    double shift_sq = 0.0;
    const ExactSum* sum = sums_.data() + c * d_;
    for (size_t j = 0; j < d_; ++j) {
      dst[j] = static_cast<float>(sum[j].ToDouble() * inv);
      const double diff = static_cast<double>(dst[j]) - prev[j];
      shift_sq += diff * diff;
    }
    if (moved != nullptr) (*moved)[c] = std::sqrt(shift_sq);
  }
  traffic::CountWrite(centers.SizeBytes());
  traffic::CountArithmetic(k_ * d_ * 3);
  traffic::CountLongOps(k_ + 1);
  return centers;
}

FloatMatrix UpdateCenters(const FloatMatrix& data,
                          const std::vector<int32_t>& assignments,
                          const FloatMatrix& previous_centers,
                          std::vector<double>* moved,
                          const PimAssignFilter* filter) {
  return CenterSums(previous_centers.rows(), data.cols(), data.rows())
      .Update(data, assignments, previous_centers, moved, filter);
}

double ComputeInertia(const FloatMatrix& data, const FloatMatrix& centers,
                      const std::vector<int32_t>& assignments) {
  double total = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    total += SquaredEuclidean(data.row(i), centers.row(assignments[i]));
  }
  return total;
}

PimAssignFilter::PimAssignFilter(std::unique_ptr<ShardedPimEngine> engine)
    : engine_(std::move(engine)) {
  live_ids_.resize(engine_->num_objects());
  std::iota(live_ids_.begin(), live_ids_.end(), 0u);
}

Result<std::unique_ptr<PimAssignFilter>> PimAssignFilter::Build(
    const FloatMatrix& data, const EngineOptions& options) {
  EngineOptions opts = options;
  // k-means uses the direct Theorem 1 bound (§VI-D: "PIM is used to compute
  // LB_PIM-ED").
  opts.bound = EngineOptions::Bound::kDirectEd;
  PIMINE_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedPimEngine> engine,
      ShardedPimEngine::Build(data, Distance::kEuclidean, opts));
  return std::unique_ptr<PimAssignFilter>(
      new PimAssignFilter(std::move(engine)));
}

Status PimAssignFilter::OnInsert(const FloatMatrix& rows) {
  const size_t first = engine_->num_objects();
  PIMINE_RETURN_IF_ERROR(engine_->AppendRows(rows));
  for (size_t i = 0; i < rows.rows(); ++i) {
    live_ids_.push_back(static_cast<uint32_t>(first + i));
  }
  return Status::OK();
}

Status PimAssignFilter::OnDelete(size_t row) {
  PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  const auto it = std::lower_bound(live_ids_.begin(), live_ids_.end(), row);
  PIMINE_CHECK(it != live_ids_.end() && *it == row)
      << "deleted row " << row << " missing from the live view";
  live_ids_.erase(it);
  return Status::OK();
}

Status PimAssignFilter::OnCompact(const std::vector<uint32_t>& live) {
  PIMINE_RETURN_IF_ERROR(engine_->Compact());
  // Post-compaction ids are dense: the live view is the identity again.
  live_ids_.resize(live.size());
  std::iota(live_ids_.begin(), live_ids_.end(), 0u);
  return Status::OK();
}

Status PimAssignFilter::BeginIteration(const FloatMatrix& centers,
                                       size_t device_batch) {
  if (device_batch == 0) {
    return Status::InvalidArgument(
        "BeginIteration requires device_batch >= 1 (centers per device "
        "operation); 0 is not a valid batch size");
  }
  group_size_ = device_batch;
  const size_t k = centers.rows();
  const size_t d = centers.cols();
  batches_.clear();
  batches_.reserve((k + group_size_ - 1) / group_size_);
  // Center rows are contiguous, so each group is one flat span.
  for (size_t c = 0; c < k; c += group_size_) {
    const size_t group = std::min(group_size_, k - c);
    // Engine spans for center c+i land on track c+i regardless of how the
    // centers are grouped, so the trace stays bit-identical across
    // device_batch sizes (same discipline as the kNN batched harness).
    obs::ScopedTrackBase track_base(static_cast<int64_t>(c));
    PIMINE_ASSIGN_OR_RETURN(
        ShardedPimEngine::QueryHandleBatch batch,
        engine_->RunQueryBatch(
            std::span<const float>(centers.data() + c * d, group * d), group));
    batches_.push_back(std::move(batch));
  }
  return Status::OK();
}

double PimAssignFilter::LowerBound(size_t point, size_t center) const {
  PIMINE_DCHECK(center / group_size_ < batches_.size());
  const double lb_sq = engine_->BoundFor(batches_[center / group_size_],
                                         center % group_size_,
                                         live_ids_[point]);
  return lb_sq > 0.0 ? std::sqrt(lb_sq) : 0.0;
}

}  // namespace pimine
