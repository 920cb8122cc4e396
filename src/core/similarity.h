#ifndef PIMINE_CORE_SIMILARITY_H_
#define PIMINE_CORE_SIMILARITY_H_

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
/// it. Exact when the result is <= threshold.
double SquaredEuclideanEarlyAbandon(std::span<const float> p,
                                    std::span<const float> q,
                                    double threshold);

/// Dot product sum_i p_i * q_i.
double DotProduct(std::span<const float> p, std::span<const float> q);

/// Cosine similarity: p.q / (|p||q|). Returns 0 when either norm is 0.
double CosineSimilarity(std::span<const float> p, std::span<const float> q);

/// Pearson correlation coefficient. Returns 0 when either vector is
/// constant.
double PearsonCorrelation(std::span<const float> p, std::span<const float> q);

}  // namespace pimine

#endif  // PIMINE_CORE_SIMILARITY_H_
