#include "core/quantize.h"

#include <cmath>

#include "common/logging.h"

namespace pimine {

Quantizer::Quantizer(double alpha) : alpha_(alpha) {
  PIMINE_CHECK(alpha >= 1.0 && alpha <= 2e9)
      << "alpha out of range: " << alpha;
}

int32_t Quantizer::QuantizeValue(float v) const {
  PIMINE_DCHECK(v >= 0.0f && v <= 1.0f);
  return static_cast<int32_t>(std::floor(static_cast<double>(v) * alpha_));
}

void Quantizer::QuantizeRow(std::span<const float> in,
                            std::span<int32_t> out) const {
  PIMINE_CHECK(in.size() == out.size());
  for (size_t i = 0; i < in.size(); ++i) out[i] = QuantizeValue(in[i]);
}

double Quantizer::PhiEd(std::span<const float> normalized_row) const {
  double sum_sq = 0.0;
  double sum_floor = 0.0;
  for (float v : normalized_row) {
    const double scaled = static_cast<double>(v) * alpha_;
    sum_sq += scaled * scaled;
    sum_floor += std::floor(scaled);
  }
  return sum_sq - 2.0 * sum_floor;
}

double Quantizer::PhiFnn(std::span<const float> seg_means,
                         std::span<const float> seg_stds) const {
  PIMINE_CHECK(seg_means.size() == seg_stds.size());
  double acc = 0.0;
  for (size_t i = 0; i < seg_means.size(); ++i) {
    const double mu = static_cast<double>(seg_means[i]) * alpha_;
    const double sigma = static_cast<double>(seg_stds[i]) * alpha_;
    acc += mu * mu + sigma * sigma;
    acc -= 2.0 * std::floor(mu);
    acc -= 2.0 * std::floor(sigma);
  }
  return acc;
}

double Quantizer::PhiSm(std::span<const float> seg_means) const {
  double acc = 0.0;
  for (float v : seg_means) {
    const double mu = static_cast<double>(v) * alpha_;
    acc += mu * mu - 2.0 * std::floor(mu);
  }
  return acc;
}

double Quantizer::SumFloors(std::span<const float> normalized_row) const {
  double acc = 0.0;
  for (float v : normalized_row) {
    acc += std::floor(static_cast<double>(v) * alpha_);
  }
  return acc;
}

double LbPimEdErrorBound(int64_t dims, double alpha) {
  return 4.0 * static_cast<double>(dims) / alpha +
         2.0 * static_cast<double>(dims) / (alpha * alpha);
}

}  // namespace pimine
