#ifndef PIMINE_CORE_BOUNDS_H_
#define PIMINE_CORE_BOUNDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace pimine {

/// Classical distance bounds from Table 3 of the paper. All take the
/// dataset-side statistics precomputed offline; the query-side statistics
/// are computed once per query. Every function charges the data transfer it
/// causes to the thread-local TrafficCounters.
///
/// ED bounds are lower bounds on *squared* Euclidean distance (Table 2's
/// ED); UB_part is an upper bound on the dot product used by CS/PCC search.

/// LB_SM (Yi & Faloutsos): l * sum_i (mu(p_i) - mu(q_i))^2 over d0 segment
/// means of nominal length l.
double LbSm(std::span<const float> p_means, std::span<const float> q_means,
            int64_t segment_length);

/// LB_FNN (Hwang et al.): l * sum_i ((mu_p - mu_q)^2 + (sigma_p - sigma_q)^2).
double LbFnn(std::span<const float> p_means, std::span<const float> p_stds,
             std::span<const float> q_means, std::span<const float> q_stds,
             int64_t segment_length);

/// LB_OST (orthogonal-search-tree bound): exact partial distance on the
/// first d0 dimensions plus the difference of suffix norms:
///   sum_{i<=d0} (p_i-q_i)^2 + (|p_suffix| - |q_suffix|)^2.
/// `p_suffix_norm` / `q_suffix_norm` are sqrt(sum_{i>d0} x_i^2), precomputed.
double LbOst(std::span<const float> p, std::span<const float> q, int64_t d0,
             double p_suffix_norm, double q_suffix_norm);

/// Suffix L2 norm sqrt(sum_{i >= d0} x_i^2) — the offline precomputation for
/// LB_OST.
double SuffixNorm(std::span<const float> vec, int64_t d0);

/// The LB_OST prefix length OST and OST-PIM use: d0 = max(1, d/4).
inline int64_t OstPrefixDims(size_t d) {
  return std::max<int64_t>(1, static_cast<int64_t>(d) / 4);
}

}  // namespace pimine

#endif  // PIMINE_CORE_BOUNDS_H_
