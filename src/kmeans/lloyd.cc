#include "kmeans/lloyd.h"

namespace pimine {
namespace {

/// Lloyd keeps no bounds: every pass scans all k centers per point.
class LloydBounds : public KmeansBounds {
 public:
  explicit LloydBounds(const KmeansRun& run) : KmeansBounds(run) {
    result_.stats.footprint_bytes =
        options_.use_pim ? n_ * (k_ + 2) * sizeof(double)
                         : data_.SizeBytes() + result_.centers.SizeBytes();
  }

  size_t Assign(int /*iter*/) override {
    // Points are independent: each worker reads the shared centers/filter
    // and writes only its own assignment entries.
    return AssignPass([&](size_t i, size_t /*slot_index*/) {
      const auto p = data_.row(i);
      const size_t start = result_.assignments[i];
      size_t best_c = start;
      double best_d;
      {
        // One ED timer spans host Lloyd's whole scan: Figs. 6(b) and 7(b)
        // profile host Standard with it. With a filter it times the start
        // distance only, and DistanceOrBound times the rest.
        ScopedFunctionTimer timer(Fn::kEd);
        best_d = KmeansExactDistance(p, result_.centers.row(start));
        traffic::CountExact(1);
        if (filter_ == nullptr) {
          traffic::CountExact(k_ - 1);
          for (size_t c = 0; c < k_; ++c) {
            if (c == start) continue;
            const double d = KmeansExactDistance(p, result_.centers.row(c));
            if (d < best_d) {
              best_d = d;
              best_c = c;
            }
          }
        }
      }
      if (filter_ != nullptr) {
        for (size_t c = 0; c < k_; ++c) {
          if (c == start) continue;
          const double d = DistanceOrBound(i, c, best_d);
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
      }
      result_.assignments[i] = static_cast<int32_t>(best_c);
      return best_c != start;
    });
  }
};

}  // namespace

std::unique_ptr<KmeansBounds> LloydKmeans::NewBounds(
    const KmeansRun& run) const {
  return std::make_unique<LloydBounds>(run);
}

}  // namespace pimine
