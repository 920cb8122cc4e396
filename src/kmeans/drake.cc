#include "kmeans/drake.h"

#include <algorithm>
#include <cmath>

#include "sim/traffic.h"

namespace pimine {
namespace {

/// b = max(2, k / kBoundDivisor), capped at the k - 1 other centers.
constexpr size_t kBoundDivisor = 4;

/// Per-point state: the b nearest non-assigned centers with lower bounds,
/// sorted ascending, plus a catch-all bound for every other center.
struct PointBounds {
  std::vector<double> lb;       // length b, ascending at rebuild time.
  std::vector<int32_t> center;  // centers the lb entries refer to.
  double lb_rest = 0.0;         // lower bound for all remaining centers.
};

class DrakeBounds : public KmeansBounds {
 public:
  explicit DrakeBounds(const KmeansRun& run)
      : KmeansBounds(run),
        b_(std::min<size_t>(k_ - 1, std::max<size_t>(2, k_ / kBoundDivisor))),
        upper_(n_, 0.0),
        bounds_(n_),
        scratch_(NumAssignSlots(options_.exec, n_)) {
    result_.stats.footprint_bytes =
        n_ * b_ * (sizeof(double) + sizeof(int32_t)) + data_.SizeBytes() / 8;
    for (PointBounds& pb : bounds_) {
      pb.lb.assign(b_, 0.0);
      pb.center.assign(b_, 0);
    }
    for (Scratch& s : scratch_) {
      s.dist.resize(k_);
      s.order.resize(k_);
    }
  }

  size_t Assign(int iter) override {
    if (iter == 0) {
      return AssignPass([&](size_t i, size_t slot_index) {
        result_.assignments[i] =
            static_cast<int32_t>(Rescan(i, scratch_[slot_index]));
        return true;
      });
    }
    return AssignPass([&](size_t i, size_t slot_index) {
      PointBounds& pb = bounds_[i];
      const size_t a = result_.assignments[i];
      // Skip entirely when every other center's bound exceeds upper.
      // Per-center updates unsort the list, so take the true minimum.
      double min_lb = pb.lb_rest;
      for (size_t pos = 0; pos < b_; ++pos) {
        min_lb = std::min(min_lb, pb.lb[pos]);
      }
      if (upper_[i] <= min_lb) return false;

      double best_d = ExactDistance(i, a);
      upper_[i] = best_d;
      size_t best_c = a;
      for (size_t pos = 0; pos < b_; ++pos) {
        if (pb.lb[pos] >= best_d) continue;
        const size_t c = pb.center[pos];
        if (c == best_c) continue;
        // A bound is returned only when it is >= best_d, which exceeds
        // pb.lb[pos] here, so d tightens the entry either way.
        const double d = DistanceOrBound(i, c, best_d);
        pb.lb[pos] = d;
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      // Rescan when the catch-all bound can no longer exclude the unlisted
      // centers, or when the assignment changes (the bound list excludes
      // the assigned center, so a switch invalidates coverage of the old
      // one).
      if (pb.lb_rest < best_d || best_c != a) {
        best_c = Rescan(i, scratch_[slot_index]);
      } else {
        upper_[i] = best_d;
      }
      result_.assignments[i] = static_cast<int32_t>(best_c);
      return best_c != a;
    });
  }

  void UpdateBounds(const std::vector<double>& moved) override {
    ScopedFunctionTimer timer(Fn::kBoundUpdate);
    double max_moved = 0.0;
    for (double m : moved) max_moved = std::max(max_moved, m);
    for (size_t i = 0; i < n_; ++i) {
      PointBounds& pb = bounds_[i];
      for (size_t pos = 0; pos < b_; ++pos) {
        pb.lb[pos] = std::max(0.0, pb.lb[pos] - moved[pb.center[pos]]);
      }
      if (pb.lb_rest < HUGE_VAL) {
        pb.lb_rest = std::max(0.0, pb.lb_rest - max_moved);
      }
      upper_[i] += moved[result_.assignments[i]];
    }
    traffic::CountRead(n_ * b_ * sizeof(double));
    traffic::CountWrite(n_ * b_ * sizeof(double));
    traffic::CountArithmetic(n_ * (b_ + 2));
  }

 private:
  // Per-worker Rescan scratch.
  struct Scratch {
    std::vector<double> dist;    // the point's ScanAllCenters values.
    std::vector<int32_t> order;  // centers, the first b + 1 sorted by dist.
  };

  // Full re-evaluation of one point: all k distances (through the PIM
  // filter when present), rebuilding its bound list. Returns the new
  // assignment. Pruned pairs store the PIM lower bound — a valid entry.
  size_t Rescan(size_t i, Scratch& s) {
    const size_t best_c = ScanAllCenters(i, s.dist);
    const std::vector<double>& dist = s.dist;
    // Rebuild the bound list: b smallest non-assigned entries. The first
    // b + 1 positions in (distance, index) order hold at least b centers
    // other than best_c, so only they need sorting; the rest feed lb_rest,
    // a minimum, which their order cannot change.
    std::vector<int32_t>& order = s.order;
    for (size_t c = 0; c < k_; ++c) order[c] = static_cast<int32_t>(c);
    std::partial_sort(order.begin(), order.begin() + (b_ + 1), order.end(),
                      [&](int32_t x, int32_t y) {
                        if (dist[x] != dist[y]) return dist[x] < dist[y];
                        return x < y;
                      });
    PointBounds& pb = bounds_[i];
    size_t filled = 0;
    double rest = HUGE_VAL;
    for (size_t pos = 0; pos < k_; ++pos) {
      const int32_t c = order[pos];
      if (static_cast<size_t>(c) == best_c) continue;
      if (filled < b_) {
        pb.center[filled] = c;
        pb.lb[filled] = dist[c];
        ++filled;
      } else {
        rest = std::min(rest, dist[c]);
      }
    }
    pb.lb_rest = rest;  // HUGE_VAL when b covers all other centers.
    upper_[i] = dist[best_c];
    traffic::CountArithmetic(k_ * 12);  // the model's sort of k entries.
    return best_c;
  }

  const size_t b_;
  std::vector<double> upper_;
  std::vector<PointBounds> bounds_;
  std::vector<Scratch> scratch_;
};

}  // namespace

std::unique_ptr<KmeansBounds> DrakeKmeans::NewBounds(
    const KmeansRun& run) const {
  return std::make_unique<DrakeBounds>(run);
}

}  // namespace pimine
