#ifndef PIMINE_KMEANS_KMEANS_COMMON_H_
#define PIMINE_KMEANS_KMEANS_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/mutable_dataset.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "profiling/run_stats.h"
#include "sim/traffic.h"
#include "util/exact_sum.h"
#include "util/parallel.h"

namespace pimine {

class PimAssignFilter;

/// Options shared by every k-means algorithm. The same (k, seed) produces
/// the same initial centers for all algorithms, so Elkan/Drake/Yinyang can
/// be verified to follow Lloyd's trajectory exactly (they are exact
/// accelerations — tested as an invariant).
struct KmeansOptions {
  int k = 64;
  int max_iterations = 10;
  uint64_t seed = 42;
  /// When true the assign step consults PIM lower bounds (LB_PIM-ED,
  /// Theorem 1) before any exact distance computation (§VI-D).
  bool use_pim = false;
  EngineOptions engine_options;
  /// Shared PIM assign filter (not owned; must outlive the run). When set
  /// it is used instead of building a run-local filter: the mutable-
  /// dataset workflow keeps ONE filter in sync with its corpus via
  /// MutationListener and shares it across runs. The `data` passed to Run
  /// must then be the filter's dense live view — live rows in ascending
  /// physical order (MutableDataset::LiveCorpus()).
  PimAssignFilter* filter = nullptr;
  /// Host-side execution policy for the per-point assign step. Points are
  /// independent within one assign pass, so chunks spread across
  /// `exec.num_threads` workers; assignments, centers and aggregated
  /// traffic are identical for every thread count (see DESIGN.md). Update
  /// steps and bound maintenance stay serial. Default: serial.
  ExecPolicy exec;
};

/// Result of a clustering run.
struct KmeansResult {
  FloatMatrix centers;
  std::vector<int32_t> assignments;
  int iterations = 0;
  /// Online wall time of each iteration (assign + update), ms.
  std::vector<double> iteration_wall_ms;
  /// Sum of squared distances of points to their assigned centers.
  double inertia = 0.0;
  RunStats stats;

  double MeanIterationMs() const;
};

/// One k-means run as the driver (KmeansAlgorithm::Run) hands it to the
/// algorithm's KmeansBounds.
struct KmeansRun {
  const FloatMatrix& data;
  const KmeansOptions& options;
  /// options.filter or the run-owned filter; nullptr without PIM.
  const PimAssignFilter* filter;
  KmeansResult& result;
};

/// What one algorithm adds to the shared k-means iteration (§VI-D drops the
/// same LB_PIM-ED filter into each algorithm's otherwise unchanged loop):
/// its per-run bound state, its assign pass and its bound maintenance.
class KmeansBounds {
 public:
  virtual ~KmeansBounds() = default;

  /// Assign pass of iteration `iter` (0 is the pass over the initial
  /// centers). Returns the reassignments it made; the run stops after the
  /// first iteration past 0 that makes none.
  virtual size_t Assign(int iter) = 0;

  /// Bound maintenance after the update step moved center c by moved[c].
  /// Lloyd keeps no bounds.
  virtual void UpdateBounds(const std::vector<double>& /*moved*/) {}

 protected:
  explicit KmeansBounds(const KmeansRun& run);

  /// One assign pass: `assign_point(i, slot_index)` for every point
  /// through RunSlotPass (inline when serial; each worker writes only its
  /// points' entries). Returns how many calls reported a reassignment.
  size_t AssignPass(const std::function<bool(size_t, size_t)>& assign_point);

  /// Scans point i against every center into dist[0, k): the exact
  /// distance wherever the PIM bound (with a filter) could still beat the
  /// closest center found so far, else that bound, a valid lower bound.
  /// Returns the closest center; its entry is exact.
  size_t ScanAllCenters(size_t i, std::span<double> dist) const;

  /// The PIM-filter step of every assign loop: with a filter, counts one
  /// bound evaluation and returns the LB_PIM-ED bound of (point i, center
  /// c) when it is at least `cutoff`, counted as pruned. Otherwise returns
  /// ExactDistance. Either value is a valid lower bound on the distance,
  /// and a value below `cutoff` is always exact.
  double DistanceOrBound(size_t i, size_t c, double cutoff) const;

  /// The one timed exact-distance step of the assign loops: times the
  /// distance of (point i, center c) as ED, counts it as exact and
  /// returns it.
  double ExactDistance(size_t i, size_t c) const;

  /// Fills half_nearest[j] with s(j), half the distance from center j to
  /// its nearest other center, and a non-empty `cc` with the k x k
  /// center-center distances (diagonal untouched). Each pair is computed
  /// once, timed as ED, and counted as exact.
  void CenterSeparation(std::span<double> half_nearest,
                        std::span<double> cc = {}) const;

  const FloatMatrix& data_;
  const KmeansOptions& options_;
  /// During Assign its lower bounds are those of result_.centers.
  const PimAssignFilter* const filter_;
  /// centers and assignments are current whenever a hook runs.
  KmeansResult& result_;
  const size_t n_;  // points: data_.rows().
  const size_t k_;  // centers: options_.k.
};

/// Interface of the four §VI-D algorithms (Standard/Elkan/Drake/Yinyang),
/// Hamerly, and their PIM variants (the same classes with options.use_pim).
class KmeansAlgorithm {
 public:
  virtual ~KmeansAlgorithm() = default;
  virtual std::string_view name() const = 0;

  /// The one k-means driver: validates the input, sets up the shared or a
  /// run-owned PIM filter and the initial centers, and opens the run's
  /// RunScope over the filter's fleet (so a shared filter reports this run
  /// only). It then iterates BeginIteration (LB_PIM), the algorithm's
  /// Assign, the update step on the run's one CenterSums (update) and
  /// its UpdateBounds until an iteration past the first reassigns nothing
  /// or max_iterations is reached. Fills every RunStats field except
  /// footprint_bytes, which the bounds set.
  Result<KmeansResult> Run(const FloatMatrix& data,
                           const KmeansOptions& options) const;

 private:
  /// The algorithm's per-run state over `run`; sets
  /// run.result.stats.footprint_bytes. Called after the initial centers are
  /// drawn and before the run's RunScope opens, so setup work (e.g.
  /// Yinyang's center grouping) is not charged to the run.
  virtual std::unique_ptr<KmeansBounds> NewBounds(
      const KmeansRun& run) const = 0;
};

/// Exact real (non-squared) Euclidean distance with traffic accounting.
double KmeansExactDistance(std::span<const float> a, std::span<const float> b);

/// Validates data/options combinations shared by all algorithms. A shared
/// options.filter must cover exactly data's rows.
Status ValidateKmeansInput(const FloatMatrix& data,
                           const KmeansOptions& options);

/// Number of distinct slot_index values an assign pass over `num_points`
/// passes under `policy`: the size of an algorithm's per-slot scratch.
size_t NumAssignSlots(const ExecPolicy& policy, size_t num_points);

/// Draws k distinct rows of `data` as initial centers (deterministic in
/// `seed`).
FloatMatrix InitCenters(const FloatMatrix& data, int k, uint64_t seed);

/// The coordinate sums of Lloyd's update step, kept across the iterations
/// of one run (Hamerly, SDM 2010): k counts, one flat k x d array of
/// ExactSum registers and the center each point is summed under. ExactSum
/// arithmetic is exact and so is negating a float, so moving a point's row
/// from its old center's sums to its new one's leaves the limbs of a fresh
/// sum, whatever the history of the updates.
class CenterSums {
 public:
  /// Sums of `k` centers over `num_points` points of dimension `dims`; no
  /// point is summed yet.
  CenterSums(size_t k, size_t dims, size_t num_points);

  /// Update step of Lloyd's algorithm: re-sums the points whose assignment
  /// changed since the last call (every point on the first), then returns
  /// the means of the assigned points; clusters that lost all points keep
  /// their previous center. Returns per-center movement (real Euclidean
  /// distance moved) in `moved` when non-null. `data` must be the same rows
  /// at every call.
  ///
  /// Charges the paper's from-scratch update however few points moved: the
  /// read of every row, the n x d adds, the k x d means and the per-shard
  /// partials of `filter`'s fleet merged by a pairwise tree
  /// (ChargeTreeReduction's critical path in the fleet stats). The tree's
  /// result is these exact sums, so the partials exist only in the charge,
  /// and host traffic charges are identical for every shard count.
  FloatMatrix Update(const FloatMatrix& data,
                     const std::vector<int32_t>& assignments,
                     const FloatMatrix& previous_centers,
                     std::vector<double>* moved,
                     const PimAssignFilter* filter = nullptr);

 private:
  const size_t k_;
  const size_t d_;
  std::vector<int64_t> counts_;
  std::vector<ExactSum> sums_;  // k x d, row-major by center.
  std::vector<int32_t> summed_under_;  // per point; -1 before any update.
};

/// Lloyd's update step from scratch: CenterSums::Update on fresh sums. A
/// run's kept sums give the same centers, movement and charges.
FloatMatrix UpdateCenters(const FloatMatrix& data,
                          const std::vector<int32_t>& assignments,
                          const FloatMatrix& previous_centers,
                          std::vector<double>* moved,
                          const PimAssignFilter* filter = nullptr);

/// Sum of squared distances to assigned centers.
double ComputeInertia(const FloatMatrix& data, const FloatMatrix& centers,
                      const std::vector<int32_t>& assignments);

/// PIM support for the assign step: programs the dataset once (offline) and
/// refreshes one batch of dot products per center per iteration. Lower
/// bounds are combined lazily — the host loads only the PIM results of the
/// (point, center) pairs the algorithm actually examines.
///
/// As a MutationListener the filter mirrors corpus mutations onto its
/// fleet and maintains the dense-live -> physical id map: k-means always
/// runs over the dense live view, and LowerBound translates dense point
/// indices to the fleet's physical rows.
class PimAssignFilter : public MutationListener {
 public:
  static Result<std::unique_ptr<PimAssignFilter>> Build(
      const FloatMatrix& data, const EngineOptions& options);

  Status OnInsert(const FloatMatrix& rows) override;
  Status OnDelete(size_t row) override;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  /// Runs the PIM operations for the current centers (call at the start of
  /// every assign step; centers move every iteration). Centers are grouped
  /// into device batches of `device_batch` (the last group may be short),
  /// each issued as one fleet RunQueryBatch — bounds and all modeled
  /// stats except the device's batch accounting are identical for every
  /// grouping. device_batch == 0 is rejected with InvalidArgument.
  Status BeginIteration(const FloatMatrix& centers, size_t device_batch = 1);

  /// Lower bound on the *real* (non-squared) distance between dense live
  /// point `point` and `center`. O(1) host work.
  double LowerBound(size_t point, size_t center) const;

  /// Dense live points currently addressable (rows of the live view).
  size_t live_points() const { return live_ids_.size(); }

  double PimComputeNs() const { return engine_->PimComputeNs(); }
  double OfflineNs() const { return engine_->OfflineNs(); }
  void ResetOnlineStats() { engine_->ResetOnlineStats(); }
  const ShardedPimEngine& engine() const { return *engine_; }
  ShardedPimEngine& engine() { return *engine_; }

  // --- Fleet pass-throughs (trivial for shards == 1) -------------------
  FleetRunStats FleetStats() const { return engine_->FleetStats(); }
  void ChargeTreeReduction(uint64_t payload_bytes) const {
    engine_->ChargeTreeReduction(payload_bytes);
  }
  /// BeginIteration runs on the coordinator thread (before the parallel
  /// assign pass), so the fleet fan-out may safely use the run's policy.
  void set_fanout_policy(const ExecPolicy& policy) {
    engine_->set_fanout_policy(policy);
  }

 private:
  explicit PimAssignFilter(std::unique_ptr<ShardedPimEngine> engine);

  std::unique_ptr<ShardedPimEngine> engine_;
  std::vector<ShardedPimEngine::QueryHandleBatch> batches_;
  size_t group_size_ = 1;  // device_batch of the current iteration.
  /// live_ids_[dense] = physical fleet row; ascending, so the dense order
  /// matches MutableDataset::LiveCorpus().
  std::vector<uint32_t> live_ids_;
};

inline double KmeansBounds::DistanceOrBound(size_t i, size_t c,
                                            double cutoff) const {
  if (filter_ != nullptr) {
    traffic::CountBounds(1);
    const double bound = filter_->LowerBound(i, c);
    if (bound >= cutoff) {
      traffic::CountPruned(1);
      return bound;
    }
  }
  return ExactDistance(i, c);
}

inline double KmeansBounds::ExactDistance(size_t i, size_t c) const {
  ScopedFunctionTimer timer(Fn::kEd);
  traffic::CountExact(1);
  return KmeansExactDistance(data_.row(i), result_.centers.row(c));
}

}  // namespace pimine

#endif  // PIMINE_KMEANS_KMEANS_COMMON_H_
