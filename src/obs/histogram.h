#ifndef PIMINE_OBS_HISTOGRAM_H_
#define PIMINE_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>

namespace pimine {
namespace obs {

/// Log-bucketed latency histogram over the deterministic modeled-time
/// domain (nanoseconds). Designed for *exact* cross-thread merging: samples
/// are converted to integer nanosecond ticks, buckets/sum/max are plain
/// integers, and Merge is element-wise integer addition (plus max) — so any
/// partition of the same sample multiset merges to bit-identical state,
/// regardless of thread count, merge order, or associativity.
///
/// Buckets are powers of two: bucket 0 holds the value 0; bucket i
/// (1 <= i <= 63) holds ticks in [2^(i-1), 2^i). Quantiles are reported as
/// the inclusive upper edge (2^i - 1) of the bucket containing the target
/// rank — an upper bound on the exact order statistic that is never below
/// the bucket's lower edge (tested in trace_metrics_test).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  /// Samples are clamped into [0, kMaxTicks] before bucketing so llround
  /// stays defined and bucket 63 is the largest bucket ever used.
  static constexpr uint64_t kMaxTicks = 1ULL << 62;

  /// Records one sample (modeled nanoseconds; negatives clamp to 0).
  void Record(double ns);

  /// Element-wise integer merge; exact for any partition/order of samples.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t count() const { return count_; }
  /// Sum of the recorded integer ticks (exact; merge-invariant).
  uint64_t sum_ticks() const { return sum_; }
  uint64_t max_ticks() const { return max_; }
  uint64_t bucket(int index) const { return counts_[index]; }

  /// Inclusive upper edge of bucket `index` in ticks (0 for bucket 0).
  static uint64_t BucketUpperEdge(int index);
  /// Bucket index a value of `ticks` falls into.
  static int BucketIndex(uint64_t ticks);

  /// Upper bound on the q-quantile (0 < q <= 1): the upper edge of the
  /// bucket containing rank ceil(q * count); q >= 1 returns the exact max.
  /// Returns 0 when empty.
  uint64_t QuantileUpperBound(double q) const;

  bool operator==(const Histogram& other) const;

  /// "count=12 p50<=1023 p95<=4095 p99<=4095 max=3201" (exact integers; used
  /// by the determinism test for byte comparison).
  std::string Summary() const;

 private:
  uint64_t counts_[kNumBuckets] = {0};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_HISTOGRAM_H_
