#include "kmeans/hamerly.h"

#include <algorithm>
#include <cmath>

#include "sim/traffic.h"

namespace pimine {
namespace {

class HamerlyBounds : public KmeansBounds {
 public:
  explicit HamerlyBounds(const KmeansRun& run)
      : KmeansBounds(run),
        upper_(n_, 0.0),
        lower_(n_, 0.0),
        nearest_other_(k_, 0.0),
        dist_(NumAssignSlots(options_.exec, n_), std::vector<double>(k_)) {
    result_.stats.footprint_bytes =
        n_ * 2 * sizeof(double) + data_.SizeBytes() / 8;
  }

  size_t Assign(int iter) override {
    if (iter == 0) {
      return AssignPass([&](size_t i, size_t slot_index) {
        Rescan(i, dist_[slot_index]);
        return true;
      });
    }
    CenterSeparation(nearest_other_);
    return AssignPass([&](size_t i, size_t slot_index) {
      const size_t a = result_.assignments[i];
      const double gate = std::max(nearest_other_[a], lower_[i]);
      if (upper_[i] <= gate) return false;
      // Tighten the upper bound; re-test before the full rescan.
      upper_[i] = ExactDistance(i, a);
      if (upper_[i] <= gate) return false;
      Rescan(i, dist_[slot_index]);
      return static_cast<size_t>(result_.assignments[i]) != a;
    });
  }

  void UpdateBounds(const std::vector<double>& moved) override {
    ScopedFunctionTimer timer(Fn::kBoundUpdate);
    double max_moved = 0.0;
    for (double m : moved) max_moved = std::max(max_moved, m);
    for (size_t i = 0; i < n_; ++i) {
      upper_[i] += moved[result_.assignments[i]];
      lower_[i] = std::max(0.0, lower_[i] - max_moved);
    }
    traffic::CountRead(n_ * 2 * sizeof(double));
    traffic::CountWrite(n_ * 2 * sizeof(double));
    traffic::CountArithmetic(n_ * 3);
  }

 private:
  // Full re-evaluation of point i: the closest center exactly and a valid
  // lower bound on the second-closest distance (PIM-pruned centers
  // contribute their bound).
  void Rescan(size_t i, std::vector<double>& dist) {
    const size_t best_c = ScanAllCenters(i, dist);
    double second = HUGE_VAL;
    for (size_t c = 0; c < k_; ++c) {
      if (c != best_c) second = std::min(second, dist[c]);
    }
    result_.assignments[i] = static_cast<int32_t>(best_c);
    upper_[i] = dist[best_c];
    lower_[i] = second;
  }

  std::vector<double> upper_;
  std::vector<double> lower_;  // bound to the 2nd-closest center.
  std::vector<double> nearest_other_;
  std::vector<std::vector<double>> dist_;  // per-slot Rescan scratch.
};

}  // namespace

std::unique_ptr<KmeansBounds> HamerlyKmeans::NewBounds(
    const KmeansRun& run) const {
  return std::make_unique<HamerlyBounds>(run);
}

}  // namespace pimine
