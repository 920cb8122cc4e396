#ifndef PIMINE_DATA_NORMALIZE_H_
#define PIMINE_DATA_NORMALIZE_H_

#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/matrix.h"

namespace pimine {

/// Per-dimension min-max scaling parameters fitted on a dataset. The paper
/// (§V-B) normalizes all floating-point values into [0, 1] before
/// quantization; queries must be transformed with the *dataset's* scaler so
/// bound guarantees hold.
class MinMaxScaler {
 public:
  /// Fits per-dimension (min, max) on `data`. Constant dimensions map to 0.
  static MinMaxScaler Fit(const FloatMatrix& data);

  /// Returns a copy of `data` scaled into [0, 1] per dimension. Values
  /// outside the fitted range (possible for queries) are clamped.
  FloatMatrix Transform(const FloatMatrix& data) const;

  /// Scales a single vector in place.
  void TransformRow(std::span<const float> in, std::span<float> out) const;

  size_t dims() const { return mins_.size(); }
  const std::vector<float>& mins() const { return mins_; }
  const std::vector<float>& maxs() const { return maxs_; }

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
};

/// OK when every value lies in [0, 1], the range MinMaxScaler maps a
/// dataset into and the PIM quantizer requires; otherwise InvalidArgument
/// naming `what` (e.g. "queries", "appended rows").
Status CheckUnitRange(std::span<const float> values, std::string_view what);

}  // namespace pimine

#endif  // PIMINE_DATA_NORMALIZE_H_
