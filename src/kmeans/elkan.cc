#include "kmeans/elkan.h"

#include <algorithm>

#include "sim/traffic.h"

namespace pimine {
namespace {

class ElkanBounds : public KmeansBounds {
 public:
  explicit ElkanBounds(const KmeansRun& run)
      : KmeansBounds(run),
        upper_(n_, 0.0),
        upper_stale_(n_, 0),
        lower_(n_ * k_, 0.0),
        cc_(k_ * k_, 0.0),
        nearest_other_(k_, 0.0) {
    result_.stats.footprint_bytes =
        n_ * k_ * sizeof(double) + data_.SizeBytes() / 8;
  }

  size_t Assign(int iter) override {
    return iter == 0 ? AssignFirst() : AssignBounded();
  }

  void UpdateBounds(const std::vector<double>& moved) override {
    ScopedFunctionTimer timer(Fn::kBoundUpdate);
    for (size_t i = 0; i < n_; ++i) {
      double* lb = lower_.data() + i * k_;
      for (size_t c = 0; c < k_; ++c) {
        lb[c] = std::max(0.0, lb[c] - moved[c]);
      }
      upper_[i] += moved[result_.assignments[i]];
      upper_stale_[i] = 1;
    }
    traffic::CountRead(n_ * k_ * sizeof(double));
    traffic::CountWrite(n_ * k_ * sizeof(double));
    traffic::CountArithmetic(n_ * k_ * 2);
  }

 private:
  // First assign pass fills every lower bound: the exact distance or, where
  // it cannot beat the closest center so far, the PIM bound.
  size_t AssignFirst() {
    return AssignPass([&](size_t i, size_t /*slot_index*/) {
      double* lb = lower_.data() + i * k_;
      const size_t best_c = ScanAllCenters(i, {lb, k_});
      result_.assignments[i] = static_cast<int32_t>(best_c);
      upper_[i] = lb[best_c];
      upper_stale_[i] = 0;
      return true;
    });
  }

  size_t AssignBounded() {
    CenterSeparation(nearest_other_, cc_);
    return AssignPass([&](size_t i, size_t /*slot_index*/) {
      const size_t a = result_.assignments[i];
      if (upper_[i] <= nearest_other_[a]) return false;
      size_t best_c = a;  // current best center; cc-tests must use it.
      double best_d = upper_[i];
      bool tightened = upper_stale_[i] == 0;
      for (size_t c = 0; c < k_; ++c) {
        if (c == best_c) continue;
        if (lower_[i * k_ + c] >= best_d) continue;
        if (0.5 * cc_[best_c * k_ + c] >= best_d) continue;
        if (!tightened) {
          best_d = ExactDistance(i, a);
          lower_[i * k_ + a] = best_d;
          upper_[i] = best_d;
          upper_stale_[i] = 0;
          tightened = true;
          if (lower_[i * k_ + c] >= best_d) continue;
          if (0.5 * cc_[best_c * k_ + c] >= best_d) continue;
        }
        // A bound is returned only when it is >= best_d, which exceeds
        // lower_ here, so d tightens the entry either way.
        const double d = DistanceOrBound(i, c, best_d);
        lower_[i * k_ + c] = d;
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      if (best_c == a) return false;
      result_.assignments[i] = static_cast<int32_t>(best_c);
      upper_[i] = best_d;
      upper_stale_[i] = 0;
      return true;
    });
  }

  std::vector<double> upper_;
  std::vector<uint8_t> upper_stale_;  // not vector<bool>: workers write
                                      // distinct entries concurrently.
  std::vector<double> lower_;
  std::vector<double> cc_;             // center-center distances.
  std::vector<double> nearest_other_;  // s(j) = 0.5 min_{j'} cc.
};

}  // namespace

std::unique_ptr<KmeansBounds> ElkanKmeans::NewBounds(
    const KmeansRun& run) const {
  return std::make_unique<ElkanBounds>(run);
}

}  // namespace pimine
