#include "kmeans/elkan.h"

#include <algorithm>
#include <cmath>

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
    ScopedFunctionTimer timer(&result_.stats.profile, "bound update");
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
  // First assign pass fills every bound exactly (Lloyd-equivalent).
  size_t AssignFirst() {
    return RunAssignWithPolicy(
        options_.exec, n_, &result_.stats,
        [&](size_t i, size_t /*slot_index*/, WorkerSlot& slot) {
          const auto p = data_.row(i);
          size_t best_c = 0;
          double best_d = HUGE_VAL;
          for (size_t c = 0; c < k_; ++c) {
            double d;
            if (filter_ != nullptr && filter_->LowerBound(i, c) >= best_d) {
              ++slot.bound_count;
              d = filter_->LowerBound(i, c);  // valid lower bound kept in lb.
            } else {
              ScopedFunctionTimer timer(&slot.profile, "ED");
              d = KmeansExactDistance(p, result_.centers.row(c));
              ++slot.exact_count;
              if (d < best_d) {
                best_d = d;
                best_c = c;
              }
            }
            lower_[i * k_ + c] = d;
          }
          result_.assignments[i] = static_cast<int32_t>(best_c);
          upper_[i] = best_d;
          upper_stale_[i] = 0;
          ++slot.changed;
        });
  }

  size_t AssignBounded() {
    // Center-center distances and s(j).
    {
      ScopedFunctionTimer timer(&result_.stats.profile, "ED");
      for (size_t a = 0; a < k_; ++a) {
        for (size_t b = a + 1; b < k_; ++b) {
          const double d = KmeansExactDistance(result_.centers.row(a),
                                               result_.centers.row(b));
          cc_[a * k_ + b] = d;
          cc_[b * k_ + a] = d;
        }
      }
      result_.stats.exact_count += k_ * (k_ - 1) / 2;
      for (size_t a = 0; a < k_; ++a) {
        double m = HUGE_VAL;
        for (size_t b = 0; b < k_; ++b) {
          if (b != a) m = std::min(m, cc_[a * k_ + b]);
        }
        nearest_other_[a] = 0.5 * m;
      }
    }

    return RunAssignWithPolicy(
        options_.exec, n_, &result_.stats,
        [&](size_t i, size_t /*slot_index*/, WorkerSlot& slot) {
          const size_t a = result_.assignments[i];
          if (upper_[i] <= nearest_other_[a]) return;
          const auto p = data_.row(i);
          size_t best_c = a;  // current best center; cc-tests must use it.
          double best_d = upper_[i];
          bool tightened = upper_stale_[i] == 0;
          for (size_t c = 0; c < k_; ++c) {
            if (c == best_c) continue;
            if (lower_[i * k_ + c] >= best_d) continue;
            if (0.5 * cc_[best_c * k_ + c] >= best_d) continue;
            if (!tightened) {
              ScopedFunctionTimer timer(&slot.profile, "ED");
              best_d = KmeansExactDistance(p, result_.centers.row(a));
              ++slot.exact_count;
              lower_[i * k_ + a] = best_d;
              upper_[i] = best_d;
              upper_stale_[i] = 0;
              tightened = true;
              if (lower_[i * k_ + c] >= best_d) continue;
              if (0.5 * cc_[best_c * k_ + c] >= best_d) continue;
            }
            if (filter_ != nullptr) {
              ++slot.bound_count;
              const double pim_lb = filter_->LowerBound(i, c);
              if (pim_lb >= best_d) {
                lower_[i * k_ + c] = std::max(lower_[i * k_ + c], pim_lb);
                continue;
              }
            }
            ScopedFunctionTimer timer(&slot.profile, "ED");
            const double d = KmeansExactDistance(p, result_.centers.row(c));
            ++slot.exact_count;
            lower_[i * k_ + c] = d;
            if (d < best_d) {
              best_d = d;
              best_c = c;
            }
          }
          if (best_c != a) {
            result_.assignments[i] = static_cast<int32_t>(best_c);
            upper_[i] = best_d;
            upper_stale_[i] = 0;
            ++slot.changed;
          }
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
