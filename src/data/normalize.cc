#include "data/normalize.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pimine {

MinMaxScaler MinMaxScaler::Fit(const FloatMatrix& data) {
  MinMaxScaler scaler;
  const size_t d = data.cols();
  scaler.mins_.assign(d, HUGE_VALF);
  scaler.maxs_.assign(d, -HUGE_VALF);
  for (size_t i = 0; i < data.rows(); ++i) {
    const auto row = data.row(i);
    for (size_t j = 0; j < d; ++j) {
      scaler.mins_[j] = std::min(scaler.mins_[j], row[j]);
      scaler.maxs_[j] = std::max(scaler.maxs_[j], row[j]);
    }
  }
  if (data.rows() == 0) {
    scaler.mins_.assign(d, 0.0f);
    scaler.maxs_.assign(d, 1.0f);
  }
  return scaler;
}

void MinMaxScaler::TransformRow(std::span<const float> in,
                                std::span<float> out) const {
  PIMINE_CHECK(in.size() == mins_.size() && out.size() == mins_.size())
      << "dimensionality mismatch in MinMaxScaler";
  for (size_t j = 0; j < in.size(); ++j) {
    const float range = maxs_[j] - mins_[j];
    float v = range > 0.0f ? (in[j] - mins_[j]) / range : 0.0f;
    out[j] = std::clamp(v, 0.0f, 1.0f);
  }
}

FloatMatrix MinMaxScaler::Transform(const FloatMatrix& data) const {
  FloatMatrix out(data.rows(), data.cols());
  for (size_t i = 0; i < data.rows(); ++i) {
    TransformRow(data.row(i), out.mutable_row(i));
  }
  return out;
}

Status CheckUnitRange(std::span<const float> values, std::string_view what) {
  for (float v : values) {
    if (!(v >= 0.0f && v <= 1.0f)) {
      return Status::InvalidArgument(
          std::string(what) + " must be normalized into [0, 1]; use "
          "MinMaxScaler");
    }
  }
  return Status::OK();
}

}  // namespace pimine
