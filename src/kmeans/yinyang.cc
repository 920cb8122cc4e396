#include "kmeans/yinyang.h"

#include <algorithm>
#include <cmath>

#include "core/similarity.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

/// t = max(1, k / kGroupDivisor) center groups.
constexpr size_t kGroupDivisor = 10;

/// Clusters the k centers into t groups with a few plain Lloyd iterations
/// (the Yinyang paper's own group-construction step). Deterministic.
std::vector<int32_t> GroupCenters(const FloatMatrix& centers, size_t t,
                                  uint64_t seed) {
  const size_t k = centers.rows();
  std::vector<int32_t> group(k, 0);
  if (t <= 1) return group;
  FloatMatrix group_centers = InitCenters(centers, static_cast<int>(t), seed);
  for (int it = 0; it < 3; ++it) {
    for (size_t c = 0; c < k; ++c) {
      double best = HUGE_VAL;
      int32_t best_g = 0;
      for (size_t g = 0; g < t; ++g) {
        const double d = SquaredEuclidean(centers.row(c),
                                          group_centers.row(g));
        if (d < best) {
          best = d;
          best_g = static_cast<int32_t>(g);
        }
      }
      group[c] = best_g;
    }
    group_centers = UpdateCenters(centers, group, group_centers, nullptr);
  }
  return group;
}

class YinyangBounds : public KmeansBounds {
 public:
  explicit YinyangBounds(const KmeansRun& run)
      : KmeansBounds(run),
        t_(std::max<size_t>(1, k_ / kGroupDivisor)),
        group_(GroupCenters(result_.centers, t_, options_.seed)),
        members_(t_),
        upper_(n_, 0.0),
        lower_(n_ * t_, 0.0),
        group_delta_(t_, 0.0),
        scratch_(NumAssignSlots(options_.exec, n_)) {
    result_.stats.footprint_bytes =
        n_ * t_ * sizeof(double) + data_.SizeBytes() / 4;
    for (size_t c = 0; c < k_; ++c) members_[group_[c]].push_back(c);
    for (Scratch& s : scratch_) {
      s.dist.resize(k_);
      s.g_scanned.resize(t_);
      s.g_min1.resize(t_);
      s.g_min2.resize(t_);
      s.g_min1c.resize(t_);
    }
  }

  size_t Assign(int iter) override {
    return iter == 0 ? AssignFirst() : AssignFiltered();
  }

  void UpdateBounds(const std::vector<double>& moved) override {
    ScopedFunctionTimer timer(Fn::kBoundUpdate);
    std::fill(group_delta_.begin(), group_delta_.end(), 0.0);
    for (size_t c = 0; c < k_; ++c) {
      group_delta_[group_[c]] = std::max(group_delta_[group_[c]], moved[c]);
    }
    for (size_t i = 0; i < n_; ++i) {
      double* lb = lower_.data() + i * t_;
      for (size_t g = 0; g < t_; ++g) {
        lb[g] = std::max(0.0, lb[g] - group_delta_[g]);
      }
      upper_[i] += moved[result_.assignments[i]];
    }
    traffic::CountRead(n_ * t_ * sizeof(double));
    traffic::CountWrite(n_ * t_ * sizeof(double));
    traffic::CountArithmetic(n_ * t_ * 2);
  }

 private:
  // Per-worker scan scratch (init distances + group-min tracking).
  struct Scratch {
    std::vector<double> dist;
    std::vector<uint8_t> g_scanned;
    std::vector<double> g_min1;
    std::vector<double> g_min2;
    std::vector<int32_t> g_min1c;
  };

  // Initial pass: per-pair values fill the group bounds. With the PIM
  // filter, far-away centers keep their (valid) PIM lower bound instead of
  // an exact distance — same treatment as Elkan's init. Like Elkan, Hamerly
  // and Drake it counts every point as reassigned.
  size_t AssignFirst() {
    return AssignPass([&](size_t i, size_t slot_index) {
      std::vector<double>& dist = scratch_[slot_index].dist;
      const size_t best_c = ScanAllCenters(i, dist);
      result_.assignments[i] = static_cast<int32_t>(best_c);
      upper_[i] = dist[best_c];
      for (size_t g = 0; g < t_; ++g) {
        double m = HUGE_VAL;
        for (int32_t c : members_[g]) {
          if (static_cast<size_t>(c) == best_c) continue;
          m = std::min(m, dist[c]);
        }
        lower_[i * t_ + g] = m;
      }
      return true;
    });
  }

  size_t AssignFiltered() {
    return AssignPass([&](size_t i, size_t slot_index) {
      const size_t a = result_.assignments[i];
      double* lb = lower_.data() + i * t_;
      double global_lb = HUGE_VAL;
      for (size_t g = 0; g < t_; ++g) {
        global_lb = std::min(global_lb, lb[g]);
      }
      if (upper_[i] <= global_lb) return false;

      double best_d = ExactDistance(i, a);
      upper_[i] = best_d;
      if (best_d <= global_lb) return false;
      size_t best_c = a;

      Scratch& s = scratch_[slot_index];
      // Group bounds are finalized only after the final assignment is known
      // (a later group can steal the assignment, which changes which
      // candidate every earlier group must exclude).
      std::fill(s.g_scanned.begin(), s.g_scanned.end(), 0);
      for (size_t g = 0; g < t_; ++g) {
        if (lb[g] >= best_d) continue;  // group filter (stays valid as
                                        // best_d only shrinks).
        s.g_scanned[g] = 1;
        double min1 = HUGE_VAL;   // smallest value in group.
        double min2 = HUGE_VAL;   // second smallest.
        int32_t min1_c = -1;
        for (int32_t c : members_[g]) {
          if (static_cast<size_t>(c) == a) continue;
          // A PIM bound (never below best_d) still bounds the group minimum.
          const double value = DistanceOrBound(i, c, best_d);
          if (value < min1) {
            min2 = min1;
            min1 = value;
            min1_c = c;
          } else if (value < min2) {
            min2 = value;
          }
          if (value < best_d) {
            best_d = value;
            best_c = c;
          }
        }
        s.g_min1[g] = min1;
        s.g_min2[g] = min2;
        s.g_min1c[g] = min1_c;
      }
      for (size_t g = 0; g < t_; ++g) {
        if (!s.g_scanned[g]) continue;
        lb[g] = (s.g_min1c[g] >= 0 &&
                 static_cast<size_t>(s.g_min1c[g]) == best_c)
                    ? s.g_min2[g]
                    : s.g_min1[g];
      }
      if (best_c == a) return false;
      result_.assignments[i] = static_cast<int32_t>(best_c);
      upper_[i] = best_d;
      // The old assignment was excluded from every scan, but it now belongs
      // to its group's bound domain; fold its distance in.
      const size_t old_group = group_[a];
      lb[old_group] = std::min(lb[old_group], ExactDistance(i, a));
      return true;
    });
  }

  const size_t t_;
  const std::vector<int32_t> group_;  // center -> group.
  std::vector<std::vector<int32_t>> members_;
  std::vector<double> upper_;
  std::vector<double> lower_;  // per-group lower bounds.
  std::vector<double> group_delta_;
  std::vector<Scratch> scratch_;
};

}  // namespace

std::unique_ptr<KmeansBounds> YinyangKmeans::NewBounds(
    const KmeansRun& run) const {
  return std::make_unique<YinyangBounds>(run);
}

}  // namespace pimine
