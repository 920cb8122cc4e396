#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/bits.h"

namespace pimine {
namespace obs {

void Histogram::Record(double ns) {
  uint64_t ticks;
  if (!(ns > 0.0)) {  // negatives and NaN clamp to zero.
    ticks = 0;
  } else if (ns >= static_cast<double>(kMaxTicks)) {
    ticks = kMaxTicks;
  } else {
    ticks = static_cast<uint64_t>(std::llround(ns));
  }
  ++counts_[BucketIndex(ticks)];
  ++count_;
  sum_ += ticks;
  max_ = std::max(max_, ticks);
}

int Histogram::BucketIndex(uint64_t ticks) {
  if (ticks == 0) return 0;
  return std::min(kNumBuckets - 1, FloorLog2(ticks) + 1);
}

uint64_t Histogram::BucketUpperEdge(int index) {
  if (index <= 0) return 0;
  return (1ULL << index) - 1;  // inclusive: bucket i covers [2^(i-1), 2^i).
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::memset(counts_, 0, sizeof(counts_));
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

uint64_t Histogram::QuantileUpperBound(double q) const {
  if (count_ == 0) return 0;
  if (q >= 1.0) return max_;
  if (q <= 0.0) q = 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) return BucketUpperEdge(i);
  }
  return max_;
}

bool Histogram::operator==(const Histogram& other) const {
  if (count_ != other.count_ || sum_ != other.sum_ || max_ != other.max_) {
    return false;
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] != other.counts_[i]) return false;
  }
  return true;
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "count=" << count_ << " p50<=" << QuantileUpperBound(0.50)
     << " p95<=" << QuantileUpperBound(0.95)
     << " p99<=" << QuantileUpperBound(0.99) << " max=" << max_;
  return os.str();
}

}  // namespace obs
}  // namespace pimine
