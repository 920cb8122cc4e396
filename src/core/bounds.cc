#include "core/bounds.h"

#include <cmath>

#include "common/logging.h"
#include "sim/traffic.h"

namespace pimine {

double LbSm(std::span<const float> p_means, std::span<const float> q_means,
            int64_t segment_length) {
  PIMINE_DCHECK(p_means.size() == q_means.size());
  double acc = 0.0;
  for (size_t i = 0; i < p_means.size(); ++i) {
    const double diff = static_cast<double>(p_means[i]) - q_means[i];
    acc += diff * diff;
  }
  traffic::CountRead(p_means.size() * sizeof(float));
  traffic::CountArithmetic(3 * p_means.size() + 1);
  return static_cast<double>(segment_length) * acc;
}

double LbFnn(std::span<const float> p_means, std::span<const float> p_stds,
             std::span<const float> q_means, std::span<const float> q_stds,
             int64_t segment_length) {
  PIMINE_DCHECK(p_means.size() == q_means.size() &&
                p_stds.size() == q_stds.size() &&
                p_means.size() == p_stds.size());
  double acc = 0.0;
  for (size_t i = 0; i < p_means.size(); ++i) {
    const double dm = static_cast<double>(p_means[i]) - q_means[i];
    const double ds = static_cast<double>(p_stds[i]) - q_stds[i];
    acc += dm * dm + ds * ds;
  }
  traffic::CountRead(2 * p_means.size() * sizeof(float));
  traffic::CountArithmetic(6 * p_means.size() + 1);
  return static_cast<double>(segment_length) * acc;
}

double LbOst(std::span<const float> p, std::span<const float> q, int64_t d0,
             double p_suffix_norm, double q_suffix_norm) {
  PIMINE_DCHECK(p.size() == q.size());
  PIMINE_DCHECK(d0 >= 0 && static_cast<size_t>(d0) <= p.size());
  double acc = 0.0;
  for (int64_t i = 0; i < d0; ++i) {
    const double diff = static_cast<double>(p[i]) - q[i];
    acc += diff * diff;
  }
  const double norm_diff = p_suffix_norm - q_suffix_norm;
  traffic::CountRead((d0 + 1) * sizeof(float));
  traffic::CountArithmetic(3 * d0 + 3);
  return acc + norm_diff * norm_diff;
}

double SuffixNorm(std::span<const float> vec, int64_t d0) {
  PIMINE_DCHECK(d0 >= 0 && static_cast<size_t>(d0) <= vec.size());
  double acc = 0.0;
  for (size_t i = static_cast<size_t>(d0); i < vec.size(); ++i) {
    acc += static_cast<double>(vec[i]) * vec[i];
  }
  return std::sqrt(acc);
}

}  // namespace pimine
