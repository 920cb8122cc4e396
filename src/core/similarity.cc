#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/traffic.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PIMINE_LANES_X86 1
#endif

namespace pimine {
namespace {

// The modeled cost of an early-abandoning ED that read `dims` dimensions.
void ChargeEarlyAbandonTraffic(size_t dims) {
  traffic::CountRead(dims * sizeof(float));
  traffic::CountArithmetic(3 * dims + dims / kEdCheckStride);
  traffic::CountBranches(dims / kEdCheckStride + 1);
}

#if defined(PIMINE_LANES_X86)

// Adds dimensions [i, i + 4) of rows[0..3] to the lanes of `acc`: squares
// the differences row by row, transposes the 4x4 block so that vector j
// holds dimension i + j of every row, and adds the four vectors in
// dimension order, as the scalar loop does.
__attribute__((target("avx2"))) __m256d Avx2AddBlock(__m256d acc,
                                                     const float* const* rows,
                                                     size_t i, __m256d qv) {
  __m256d sq[4];
  for (size_t r = 0; r < 4; ++r) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(rows[r] + i)), qv);
    sq[r] = _mm256_mul_pd(diff, diff);
  }
  const __m256d lo01 = _mm256_unpacklo_pd(sq[0], sq[1]);
  const __m256d hi01 = _mm256_unpackhi_pd(sq[0], sq[1]);
  const __m256d lo23 = _mm256_unpacklo_pd(sq[2], sq[3]);
  const __m256d hi23 = _mm256_unpackhi_pd(sq[2], sq[3]);
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(lo01, lo23, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(hi01, hi23, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(lo01, lo23, 0x31));
  return _mm256_add_pd(acc, _mm256_permute2f128_pd(hi01, hi23, 0x31));
}

// Adds dimension i of rows[0..3] to the lanes of `acc`.
__attribute__((target("avx2"))) __m256d Avx2AddOne(__m256d acc,
                                                   const float* const* rows,
                                                   size_t i, double qi) {
  const __m256d v = _mm256_setr_pd(rows[0][i], rows[1][i], rows[2][i],
                                   rows[3][i]);
  const __m256d diff = _mm256_sub_pd(v, _mm256_set1_pd(qi));
  return _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
}

// Lanes 0-3 add in acc0 and lanes 4-7 in acc1. Sums never fall, so once
// every real lane is above the threshold at a checkpoint each has passed
// its first one.
__attribute__((target("avx2"))) void LanesAvx2(const float* const* rows,
                                              size_t lanes, const float* q,
                                              size_t d, double threshold,
                                              double* checkpoints) {
  __m256d acc0 = _mm256_setzero_pd();  // lanes 0-3
  __m256d acc1 = _mm256_setzero_pd();  // lanes 4-7
  const __m256d limit = _mm256_set1_pd(threshold);
  const int real_lanes = (1 << lanes) - 1;
  const size_t count = EdCheckpoints(d);
  for (size_t c = 0; c < count; ++c) {
    const size_t stop = std::min(d, (c + 1) * kEdCheckStride);
    size_t i = c * kEdCheckStride;
    for (; i + 4 <= stop; i += 4) {
      const __m256d qv = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
      acc0 = Avx2AddBlock(acc0, rows, i, qv);
      acc1 = Avx2AddBlock(acc1, rows + 4, i, qv);
    }
    for (; i < stop; ++i) {
      acc0 = Avx2AddOne(acc0, rows, i, q[i]);
      acc1 = Avx2AddOne(acc1, rows + 4, i, q[i]);
    }
    _mm256_storeu_pd(checkpoints + c * kEdLanes, acc0);
    _mm256_storeu_pd(checkpoints + c * kEdLanes + 4, acc1);
    const int above =
        _mm256_movemask_pd(_mm256_cmp_pd(acc0, limit, _CMP_GT_OQ)) |
        _mm256_movemask_pd(_mm256_cmp_pd(acc1, limit, _CMP_GT_OQ)) << 4;
    if ((above & real_lanes) == real_lanes) return;
  }
}

#endif  // PIMINE_LANES_X86

}  // namespace

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
  while (i < d) {
    const size_t stop = std::min(d, i + kEdCheckStride);
    for (; i < stop; ++i) {
      const double diff = static_cast<double>(p[i]) - q[i];
      acc += diff * diff;
    }
    if (acc > threshold) break;
  }
  ChargeEarlyAbandonTraffic(i);
  return acc;
}

bool EdLanesSupported() {
#if defined(PIMINE_LANES_X86)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

void SquaredEuclideanLanes(std::span<const float* const> rows,
                           std::span<const float> query, double threshold,
                           std::span<double> checkpoints) {
  PIMINE_CHECK(EdLanesSupported());
  PIMINE_DCHECK(!rows.empty() && rows.size() <= kEdLanes);
  PIMINE_DCHECK(checkpoints.size() >= kEdLanes * EdCheckpoints(query.size()));
#if defined(PIMINE_LANES_X86)
  // Lanes past rows.size() repeat row 0 and are never read.
  const float* lanes[kEdLanes];
  for (size_t l = 0; l < kEdLanes; ++l) {
    lanes[l] = rows[l < rows.size() ? l : 0];
  }
  LanesAvx2(lanes, rows.size(), query.data(), query.size(), threshold,
            checkpoints.data());
#else
  static_cast<void>(threshold);
#endif
}

double ReplayEarlyAbandon(std::span<const double> checkpoints, size_t lane,
                          size_t d, double threshold) {
  const size_t count = EdCheckpoints(d);
  if (count == 0) {
    ChargeEarlyAbandonTraffic(0);
    return 0.0;
  }
  // The scalar loop breaks at the first checkpoint above the threshold and
  // otherwise runs to the end.
  size_t c = 0;
  while (c + 1 < count && !(checkpoints[c * kEdLanes + lane] > threshold)) {
    ++c;
  }
  ChargeEarlyAbandonTraffic(std::min(d, (c + 1) * kEdCheckStride));
  return checkpoints[c * kEdLanes + lane];
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
