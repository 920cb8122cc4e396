#ifndef PIMINE_CORE_PIM_BOUNDS_H_
#define PIMINE_CORE_PIM_BOUNDS_H_

#include <cstdint>

#include "common/logging.h"
#include "sim/traffic.h"

namespace pimine {

/// PIM-aware bound combiners — the G functions of Eq. 3 for the bounds of
/// §V-B. Each takes the offline term Phi(p), the once-per-query term
/// Phi(q), and the dot-product(s) computed on PIM, and returns the bound in
/// O(1) host work (the whole point: 3*b bits of transfer instead of d*b).
///
/// All dot products arrive as the PIM device produces them: uint64 values
/// (least-significant-64-bit truncation). With the paper's alpha = 1e6 and
/// d <= 4096 no truncation actually occurs (values stay below 2^52).
///
/// The formulas are pure: callers charge the host work separately through
/// ChargeBounds, once per combine (PimEngine::BoundFor) or once per span of
/// combines (PimEngine::BoundsFor). Both paths evaluate the same inline
/// function, so their values are bit-identical and their traffic totals
/// equal.

/// Host work of one combine, in TrafficCounters units.
struct BoundCost {
  uint64_t bytes_read = 0;   // offline Phi terms streamed from memory.
  uint64_t pim_results = 0;  // PIM results loaded from the buffer array.
  uint64_t arithmetic = 0;
  uint64_t long_ops = 0;     // divisions / square roots.
};

// The host receives Phi(p) and the PIM result(s): 2-3 scalars plus the
// cached query terms.
inline constexpr BoundCost kLbPimEdCost{8, 1, 6, 0};
inline constexpr BoundCost kLbPimFnnCost{8, 2, 9, 0};
inline constexpr BoundCost kLbPimSmCost{8, 1, 7, 0};
// CS / PCC: the dot-product upper bound (16 B, 1 result, 5 ops) plus its
// ratio (2 or 4 ops and one division).
inline constexpr BoundCost kUbPimCsCost{16, 1, 7, 1};
inline constexpr BoundCost kUbPimPccCost{16, 1, 9, 1};
// Two 32-bit results = one 64-bit load.
inline constexpr BoundCost kHdPimCost{0, 1, 2, 0};

/// Charges `count` combines of `cost` with one access to the calling
/// thread's counters.
inline void ChargeBounds(const BoundCost& cost, uint64_t count) {
  TrafficCounters& t = traffic::Local().traffic;
  t.bytes_from_memory += cost.bytes_read * count;
  t.pim_results_loaded += cost.pim_results * count;
  t.arithmetic_ops += cost.arithmetic * count;
  t.long_ops += cost.long_ops * count;
}

/// Theorem 1: lower bound on squared ED.
///   LB = (Phi(p) + Phi(q) - 2*dot - 2d) / alpha^2.
inline double LbPimEd(double phi_p, double phi_q, uint64_t floor_dot,
                      int64_t dims, double alpha) {
  return (phi_p + phi_q - 2.0 * static_cast<double>(floor_dot) -
          2.0 * static_cast<double>(dims)) /
         (alpha * alpha);
}

/// Theorem 2: lower bound on squared ED via segment statistics.
///   LB = l/alpha^2 * (Phi(p-hat) + Phi(q-hat) - 2*mean_dot - 2*std_dot
///                     - 4*d0).
inline double LbPimFnn(double phi_p, double phi_q, uint64_t mean_dot,
                       uint64_t std_dot, int64_t num_segments,
                       int64_t segment_length, double alpha) {
  const double inner = phi_p + phi_q - 2.0 * static_cast<double>(mean_dot) -
                       2.0 * static_cast<double>(std_dot) -
                       4.0 * static_cast<double>(num_segments);
  return static_cast<double>(segment_length) * inner / (alpha * alpha);
}

/// Means-only segment bound (the PIM-aware form of LB_SM): lower bound on
/// squared ED using only segment means.
///   LB = l/alpha^2 * (Phi(p) + Phi(q) - 2*mean_dot - 2*d0),
/// with Phi(x) = sum mu^2 - 2*sum floor(mu) over scaled segment means.
inline double LbPimSm(double phi_p, double phi_q, uint64_t mean_dot,
                      int64_t num_segments, int64_t segment_length,
                      double alpha) {
  const double inner = phi_p + phi_q - 2.0 * static_cast<double>(mean_dot) -
                       2.0 * static_cast<double>(num_segments);
  return static_cast<double>(segment_length) * inner / (alpha * alpha);
}

/// Upper bound on the dot product p.q of the original (normalized) vectors:
///   p.q <= (floor_dot + sum_floor_p + sum_floor_q + d) / alpha^2.
/// Feeds the CS/PCC upper bounds below.
inline double UbPimDot(uint64_t floor_dot, double sum_floor_p,
                       double sum_floor_q, int64_t dims, double alpha) {
  return (static_cast<double>(floor_dot) + sum_floor_p + sum_floor_q +
          static_cast<double>(dims)) /
         (alpha * alpha);
}

/// Upper bound on cosine similarity given the dot-product upper bound and
/// the exact norms (Table 4: the norms are the offline Phi terms).
inline double UbPimCosine(double dot_upper_bound, double norm_p,
                          double norm_q) {
  const double denom = norm_p * norm_q;
  if (denom <= 0.0) return 0.0;
  return dot_upper_bound / denom;
}

/// Upper bound on Pearson correlation (Table 4 decomposition):
///   PCC = (d*p.q - sum_p*sum_q) / (phi_a_p * phi_a_q),
/// with phi_a = sqrt(d*sum(x^2) - (sum x)^2), phi_b = sum x.
inline double UbPimPearson(double dot_upper_bound, int64_t dims,
                           double phi_b_p, double phi_b_q, double phi_a_p,
                           double phi_a_q) {
  const double denom = phi_a_p * phi_a_q;
  if (denom <= 0.0) return 0.0;
  return (static_cast<double>(dims) * dot_upper_bound - phi_b_p * phi_b_q) /
         denom;
}

/// The full CS bound: UbPimCosine(UbPimDot(...)).
inline double UbPimCs(uint64_t floor_dot, double sum_floor_p,
                      double sum_floor_q, double norm_p, double norm_q,
                      int64_t dims, double alpha) {
  return UbPimCosine(
      UbPimDot(floor_dot, sum_floor_p, sum_floor_q, dims, alpha), norm_p,
      norm_q);
}

/// The full PCC bound: UbPimPearson(UbPimDot(...)).
inline double UbPimPcc(uint64_t floor_dot, double sum_floor_p,
                       double sum_floor_q, double phi_a_p, double phi_a_q,
                       double phi_b_p, double phi_b_q, int64_t dims,
                       double alpha) {
  return UbPimPearson(
      UbPimDot(floor_dot, sum_floor_p, sum_floor_q, dims, alpha), dims,
      phi_b_p, phi_b_q, phi_a_p, phi_a_q);
}

/// Exact Hamming distance from the two PIM dot products of Table 4:
///   HD = d - p.q - p~.q~  (codes and complemented codes).
/// PIM results are truncated to 32 bits for HD (§VI-B).
inline int64_t HdPim(uint32_t code_dot, uint32_t complement_dot,
                     int64_t dims) {
  const int64_t hd = dims - static_cast<int64_t>(code_dot) -
                     static_cast<int64_t>(complement_dot);
  PIMINE_DCHECK(hd >= 0 && hd <= dims);
  return hd;
}

}  // namespace pimine

#endif  // PIMINE_CORE_PIM_BOUNDS_H_
