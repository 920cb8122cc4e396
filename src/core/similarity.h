#ifndef PIMINE_CORE_SIMILARITY_H_
#define PIMINE_CORE_SIMILARITY_H_

#include <cstddef>
#include <span>
#include <string_view>

namespace pimine {

/// Similarity / distance measures from Table 2 of the paper.
enum class Distance {
  kEuclidean,  // squared Euclidean distance (the paper's ED).
  kCosine,     // cosine similarity (larger = more similar).
  kPearson,    // Pearson correlation coefficient (larger = more similar).
};

std::string_view DistanceName(Distance distance);

/// True for measures where larger values mean "more similar" (CS, PCC) —
/// kNN on those is maximum-similarity search with *upper* bounds.
bool IsSimilarityMeasure(Distance distance);

/// Squared Euclidean distance: sum_i (p_i - q_i)^2. Counts memory traffic
/// and arithmetic into the thread-local TrafficCounters (the instrumentation
/// behind Figs. 5-7).
double SquaredEuclidean(std::span<const float> p, std::span<const float> q);

/// Squared Euclidean with early abandoning: returns a value > `threshold`
/// (not necessarily the exact distance) as soon as the partial sum exceeds
/// it. Exact when the result is <= threshold. The partial sum is tested at
/// every checkpoint: after each kEdCheckStride dimensions and after the
/// last one.
double SquaredEuclideanEarlyAbandon(std::span<const float> p,
                                    std::span<const float> q,
                                    double threshold);

inline constexpr size_t kEdCheckStride = 64;

/// Checkpoints of a d-dimensional early-abandoning ED: ceil(d / 64).
inline size_t EdCheckpoints(size_t d) {
  return (d + kEdCheckStride - 1) / kEdCheckStride;
}

/// Rows per SquaredEuclideanLanes call: one SIMD lane each.
inline constexpr size_t kEdLanes = 8;

/// True when this build and this host can run SquaredEuclideanLanes (x86
/// with AVX2, checked at runtime). Elsewhere FilterRefine refines one
/// candidate at a time with SquaredEuclideanEarlyAbandon.
bool EdLanesSupported();

/// The early-abandoning ED of up to kEdLanes rows against one query, one
/// lane per row, in two 4-lane AVX2 groups that transpose 4x4 blocks of
/// squared differences so that each lane adds its own row's terms in
/// order. Requires EdLanesSupported(). Each row holds query.size()
/// floats. Lane l adds its terms in the order SquaredEuclideanEarlyAbandon
/// does, never fusing a multiply and an add, and writes its partial sum
/// at checkpoint c to checkpoints[c * kEdLanes + l], which must hold
/// kEdLanes * EdCheckpoints(query.size()) values. The call stops after the
/// first checkpoint at which every lane's sum exceeds `threshold` (sums
/// never fall, so each lane has then passed its own first such checkpoint)
/// and writes no later checkpoint. Charges no traffic: the caller charges
/// what it uses (ReplayEarlyAbandon).
void SquaredEuclideanLanes(std::span<const float* const> rows,
                           std::span<const float> query, double threshold,
                           std::span<double> checkpoints);

/// What SquaredEuclideanEarlyAbandon(row, query, threshold) returns for
/// lane `lane` of a SquaredEuclideanLanes call over d dimensions whose
/// threshold was at least `threshold`: the first checkpoint above
/// `threshold`, else the full sum. Charges the dimensions that loop reads.
double ReplayEarlyAbandon(std::span<const double> checkpoints, size_t lane,
                          size_t d, double threshold);

/// Dot product sum_i p_i * q_i.
double DotProduct(std::span<const float> p, std::span<const float> q);

/// Cosine similarity: p.q / (|p||q|). Returns 0 when either norm is 0.
double CosineSimilarity(std::span<const float> p, std::span<const float> q);

/// Pearson correlation coefficient. Returns 0 when either vector is
/// constant.
double PearsonCorrelation(std::span<const float> p, std::span<const float> q);

}  // namespace pimine

#endif  // PIMINE_CORE_SIMILARITY_H_
