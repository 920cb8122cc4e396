#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/traffic.h"

namespace pimine {

std::string_view DistanceName(Distance distance) {
  switch (distance) {
    case Distance::kEuclidean:
      return "ED";
    case Distance::kCosine:
      return "CS";
    case Distance::kPearson:
      return "PCC";
  }
  return "?";
}

bool IsSimilarityMeasure(Distance distance) {
  return distance == Distance::kCosine || distance == Distance::kPearson;
}

double SquaredEuclidean(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = static_cast<double>(p[i]) - q[i];
    acc += diff * diff;
  }
  // Conventional architecture: both vectors stream from memory (the query
  // stays cached across candidates; we charge the candidate payload).
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(3 * d);
  return acc;
}

double SquaredEuclideanEarlyAbandon(std::span<const float> p,
                                    std::span<const float> q,
                                    double threshold) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  size_t i = 0;
  constexpr size_t kCheckStride = 64;
  while (i < d) {
    const size_t stop = std::min(d, i + kCheckStride);
    for (; i < stop; ++i) {
      const double diff = static_cast<double>(p[i]) - q[i];
      acc += diff * diff;
    }
    if (acc > threshold) break;
  }
  traffic::CountRead(i * sizeof(float));
  traffic::CountArithmetic(3 * i + i / kCheckStride);
  traffic::CountBranches(i / kCheckStride + 1);
  return acc;
}

double DotProduct(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) {
    acc += static_cast<double>(p[i]) * q[i];
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(2 * d);
  return acc;
}

double CosineSimilarity(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double dot = 0.0;
  double norm_p = 0.0;
  double norm_q = 0.0;
  for (size_t i = 0; i < d; ++i) {
    dot += static_cast<double>(p[i]) * q[i];
    norm_p += static_cast<double>(p[i]) * p[i];
    norm_q += static_cast<double>(q[i]) * q[i];
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(6 * d);
  traffic::CountLongOps(2);  // sqrt + division.
  const double denom = std::sqrt(norm_p) * std::sqrt(norm_q);
  return denom > 0.0 ? dot / denom : 0.0;
}

double PearsonCorrelation(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  if (d == 0) return 0.0;
  double sum_p = 0.0, sum_q = 0.0, sum_pq = 0.0, sum_pp = 0.0, sum_qq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double a = p[i];
    const double b = q[i];
    sum_p += a;
    sum_q += b;
    sum_pq += a * b;
    sum_pp += a * a;
    sum_qq += b * b;
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(8 * d);
  traffic::CountLongOps(3);  // two sqrts + division.
  const double n = static_cast<double>(d);
  const double cov = n * sum_pq - sum_p * sum_q;
  const double var_p = n * sum_pp - sum_p * sum_p;
  const double var_q = n * sum_qq - sum_q * sum_q;
  const double denom = std::sqrt(var_p) * std::sqrt(var_q);
  return denom > 0.0 ? cov / denom : 0.0;
}

}  // namespace pimine
