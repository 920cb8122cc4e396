#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/exact_sum.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace pimine {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    EXPECT_LT(rng.NextBounded(1), 1u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(4);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 1.0, 0.03);
}

TEST(BitsTest, Helpers) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(~0ULL), 64);
  EXPECT_EQ(CeilDiv(7, 2), 4u);
  EXPECT_EQ(CeilDiv(8, 2), 4u);
  EXPECT_EQ(NumSlices(6, 2), 3);
  EXPECT_EQ(NumSlices(32, 2), 16);
  EXPECT_EQ(NumSlices(1, 2), 1);
  EXPECT_EQ(ExtractSlice(0b011001, 0, 2), 0b01u);
  EXPECT_EQ(ExtractSlice(0b011001, 1, 2), 0b10u);
  EXPECT_EQ(ExtractSlice(0b011001, 2, 2), 0b01u);
  EXPECT_TRUE(IsPowerOfTwo(256));
  EXPECT_FALSE(IsPowerOfTwo(255));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(255), 7);
  EXPECT_EQ(FloorLog2(256), 8);
}

TEST(TopKTest, KeepsSmallest) {
  TopK topk(3);
  EXPECT_EQ(topk.threshold(), HUGE_VAL);
  topk.Push(5.0, 0);
  topk.Push(1.0, 1);
  topk.Push(3.0, 2);
  EXPECT_TRUE(topk.full());
  EXPECT_DOUBLE_EQ(topk.threshold(), 5.0);
  topk.Push(2.0, 3);  // evicts 5.0.
  EXPECT_DOUBLE_EQ(topk.threshold(), 3.0);
  topk.Push(9.0, 4);  // ignored.
  const auto sorted = topk.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 1);
  EXPECT_EQ(sorted[1].id, 3);
  EXPECT_EQ(sorted[2].id, 2);
}

TEST(TopKTest, TieBreaksById) {
  TopK topk(2);
  topk.Push(1.0, 5);
  topk.Push(1.0, 2);
  topk.Push(1.0, 9);  // tie with threshold: not inserted (strict <).
  const auto sorted = topk.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 2);
  EXPECT_EQ(sorted[1].id, 5);
}

TEST(TopKTest, KOne) {
  TopK topk(1);
  topk.Push(4.0, 1);
  topk.Push(2.0, 2);
  topk.Push(3.0, 3);
  const auto sorted = topk.TakeSorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].id, 2);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter(0);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  ParallelFor(pool, 50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

// The exact accumulator gives the same limbs for the same values added in
// any order — the property the k-means centroid update rests on: its one
// flat sum is the per-shard partial sums merged by the tree the fleet
// charges. double accumulation would fail this for these magnitudes.
TEST(ExactSumTest, ShuffledAddOrdersGiveIdenticalLimbs) {
  Rng rng(5);
  std::vector<float> values;
  for (int i = 0; i < 500; ++i) {
    // Mix signs and ~100 binary orders of magnitude, including denormals.
    float v = rng.NextFloat() * 2.0f - 1.0f;
    v = std::ldexp(v, static_cast<int>(rng.NextBounded(100)) - 50);
    if (i % 97 == 0) v = 1e-42f;  // denormal.
    values.push_back(v);
  }
  ExactSum in_order;
  for (float v : values) in_order.Add(v);

  for (int trial = 0; trial < 4; ++trial) {
    for (size_t i = values.size() - 1; i > 0; --i) {
      std::swap(values[i], values[rng.NextBounded(i + 1)]);
    }
    ExactSum shuffled;
    for (float v : values) shuffled.Add(v);
    EXPECT_TRUE(shuffled == in_order) << "trial " << trial;
    EXPECT_EQ(shuffled.ToDouble(), in_order.ToDouble()) << "trial " << trial;
  }

  // Sanity: the rounded value agrees with a long-double reference, within
  // that reference's own accumulation error (relative to the magnitude of
  // the summands, not of the — possibly cancelled — net sum).
  long double reference = 0.0L;
  double magnitude = 0.0;
  for (float v : values) {
    reference += static_cast<long double>(v);
    magnitude += std::abs(static_cast<double>(v));
  }
  EXPECT_NEAR(in_order.ToDouble(), static_cast<double>(reference),
              magnitude * 1e-12);
}

// Negating a float is exact and ExactSum arithmetic is exact mod 2^256, so
// adding a value and its negation, in either order, restores the register
// it started from for every class of float: what lets a k-means run keep
// its center sums and subtract the points that move. The largest finite
// float exceeds the register's range, and it still cancels.
TEST(ExactSumTest, AddingAValueAndItsNegationRestoresTheSum) {
  using Limits = std::numeric_limits<float>;
  const float values[] = {
      1.5f, -2.75f, 0.1f, 1e30f,              // normal
      Limits::min(), -Limits::min(),          // smallest normal
      3e-39f, -1e-42f, Limits::denorm_min(),  // subnormal
      0.0f, -0.0f,                            // zero
      Limits::max(), Limits::lowest()};       // largest finite
  const ExactSum empty;
  ExactSum base;
  base.Add(0.1f);
  base.Add(-1e-40f);
  base.Add(123456.0f);
  for (const float v : values) {
    ExactSum sum;
    sum.Add(v);
    sum.Add(-v);
    EXPECT_TRUE(sum == empty) << v;
    EXPECT_EQ(sum.ToDouble(), 0.0) << v;
    ExactSum reversed;
    reversed.Add(-v);
    reversed.Add(v);
    EXPECT_TRUE(reversed == empty) << v;
    ExactSum on_base = base;
    on_base.Add(v);
    on_base.Add(-v);
    EXPECT_TRUE(on_base == base) << v;
  }
}

// ExactSum::Add as first written: the value's magnitude laid out as a full
// four-limb addend, negated for a negative value, then added with a carry
// through every limb.
class FourLimbReference {
 public:
  void Add(float value) {
    uint32_t b;
    std::memcpy(&b, &value, sizeof(b));
    const uint32_t frac = b & 0x7fffffu;
    const int exp = static_cast<int>((b >> 23) & 0xffu);
    if (frac == 0 && exp == 0) return;
    const uint64_t mant = exp == 0 ? frac : (frac | 0x800000u);
    const int shift = exp == 0 ? 0 : exp - 1;
    std::array<uint64_t, 4> addend = {};
    const int sub = shift & 63;
    const int limb = shift >> 6;
    addend[limb] = mant << sub;
    if (sub != 0 && limb + 1 < 4) addend[limb + 1] = mant >> (64 - sub);
    if ((b >> 31) != 0) {
      uint64_t carry = 1;
      for (uint64_t& a : addend) {
        const uint64_t t = ~a + carry;
        carry = t < carry ? 1u : 0u;
        a = t;
      }
    }
    uint64_t carry = 0;
    for (int i = 0; i < 4; ++i) {
      const uint64_t t = limbs[i] + addend[i];
      const uint64_t t2 = t + carry;
      carry = (t < addend[i] ? 1u : 0u) + (t2 < carry ? 1u : 0u);
      limbs[i] = t2;
    }
  }

  std::array<uint64_t, 4> limbs = {};
};

// Add touches only the limbs the value spans and the carry or borrow chain
// above them; its limbs must equal the four-limb reference's after every
// Add, for seeded floats of every class and sign (normals over the whole
// exponent range, whose top values wrap the register, subnormals, zeros
// and the extremes) added in several orders.
TEST(ExactSumTest, LimbsMatchTheFourLimbReference) {
  using Limits = std::numeric_limits<float>;
  std::vector<float> values = {0.0f,           -0.0f,
                               Limits::denorm_min(), -Limits::denorm_min(),
                               Limits::min(),  -Limits::min(),
                               Limits::max(),  Limits::lowest()};
  Rng rng(31);
  while (values.size() < 3000) {
    auto bits = static_cast<uint32_t>(rng.NextU64());
    // One in eight is subnormal or zero; NaN and infinity are not inputs.
    if (values.size() % 8 == 0) bits &= 0x807fffffu;
    if (((bits >> 23) & 0xffu) == 0xffu) continue;
    values.push_back(std::bit_cast<float>(bits));
  }
  for (int order = 0; order < 4; ++order) {
    if (order == 1) std::reverse(values.begin(), values.end());
    if (order >= 2) {
      for (size_t i = values.size() - 1; i > 0; --i) {
        std::swap(values[i], values[rng.NextBounded(i + 1)]);
      }
    }
    ExactSum sum;
    FourLimbReference reference;
    for (size_t i = 0; i < values.size(); ++i) {
      sum.Add(values[i]);
      reference.Add(values[i]);
      ASSERT_EQ(sum.limbs(), reference.limbs)
          << "order " << order << " value " << i << " = " << values[i];
    }
  }
}

}  // namespace
}  // namespace pimine
