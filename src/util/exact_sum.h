#ifndef PIMINE_UTIL_EXACT_SUM_H_
#define PIMINE_UTIL_EXACT_SUM_H_

#include <array>
#include <cstdint>
#include <cstring>

namespace pimine {

/// Exact accumulator for sums of `float` values: a 256-bit two's-complement
/// fixed-point register in units of 2^-149 (the weight of the least
/// significant single-precision denormal bit). Every finite float is an
/// integer multiple of that unit, so Add() is exact, and exact integer
/// addition is associative and commutative — the same values added in any
/// order produce bit-identical limbs. That is the property the k-means
/// centroid update rests on: its flat sums, kept across a run's iterations
/// with Add(-x) for each point that leaves a center (negation is exact and
/// the limbs wrap mod 2^256, so x and -x always cancel), equal a fresh sum
/// and the per-shard partial sums merged pairwise, which the sharded model
/// charges, for every shard count.
///
/// Capacity: values up to ~2^106 in magnitude with ~2^43 summands of that
/// size before the register could wrap — far beyond any dataset this
/// simulator programs. Inputs must be finite (no NaN/inf); callers feed
/// dataset coordinates, which the loaders validate.
class ExactSum {
 public:
  /// 64-bit limbs of the register.
  static constexpr int kLimbs = 4;

  /// Adds one float exactly: the magnitude's low and high parts at the two
  /// limbs it spans, then a carry (for a negative value, a borrow) up
  /// through the limbs above while one is pending. Whatever lies above the
  /// top limb is dropped, so the register wraps mod 2^256.
  void Add(float value) {
    uint32_t b;
    std::memcpy(&b, &value, sizeof(b));
    const uint32_t frac = b & 0x7fffffu;
    const int exp = static_cast<int>((b >> 23) & 0xffu);
    if (frac == 0 && exp == 0) return;  // +-0 contributes nothing.
    // value = mant * 2^(shift - 149): denormals keep the raw fraction at
    // shift 0; normals add the hidden bit and shift by exp - 1.
    const uint64_t mant = exp == 0 ? frac : (frac | 0x800000u);
    const int shift = exp == 0 ? 0 : exp - 1;
    const int sub = shift & 63;
    int i = shift >> 6;
    const uint64_t lo = mant << sub;
    const uint64_t hi = sub == 0 ? 0 : mant >> (64 - sub);
    // hi < 2^24, so hi plus a carry or borrow cannot wrap.
    if ((b >> 31) == 0) {
      uint64_t x = hi + __builtin_add_overflow(limbs_[i], lo, &limbs_[i]);
      for (++i; i < kLimbs && x != 0; ++i) {
        x = __builtin_add_overflow(limbs_[i], x, &limbs_[i]);
      }
    } else {
      uint64_t x = hi + __builtin_sub_overflow(limbs_[i], lo, &limbs_[i]);
      for (++i; i < kLimbs && x != 0; ++i) {
        x = __builtin_sub_overflow(limbs_[i], x, &limbs_[i]);
      }
    }
  }

  /// Rounds the exact sum to double. Deterministic: the result is a pure
  /// function of the limbs, which Add order cannot change.
  double ToDouble() const {
    uint64_t mag[kLimbs];
    std::memcpy(mag, limbs_, sizeof(mag));
    const bool negative = (limbs_[kLimbs - 1] >> 63) != 0;
    if (negative) Negate(mag);
    // High-to-low limb conversion: each limb i carries weight 2^(64i-149).
    double value = 0.0;
    for (int i = kLimbs - 1; i >= 0; --i) {
      value += Ldexp(static_cast<double>(mag[i]), 64 * i - 149);
    }
    return negative ? -value : value;
  }

  /// The register, least significant limb first.
  std::array<uint64_t, kLimbs> limbs() const {
    std::array<uint64_t, kLimbs> out;
    std::memcpy(out.data(), limbs_, sizeof(limbs_));
    return out;
  }

  bool operator==(const ExactSum& other) const {
    return std::memcmp(limbs_, other.limbs_, sizeof(limbs_)) == 0;
  }

 private:
  static void Negate(uint64_t limbs[kLimbs]) {
    uint64_t carry = 1;
    for (int i = 0; i < kLimbs; ++i) {
      const uint64_t t = ~limbs[i] + carry;
      carry = t < carry ? 1u : 0u;
      limbs[i] = t;
    }
  }

  /// ldexp without pulling <cmath> into every includer: exact power-of-two
  /// scaling via exponent arithmetic on the multiplier.
  static double Ldexp(double v, int e) {
    // 2^e as a double: e in [-149 + 0, 64*3 - 149 + 64] stays well inside
    // the normal double range, so the bit-built constant is exact.
    uint64_t bits = static_cast<uint64_t>(1023 + e) << 52;
    double scale;
    std::memcpy(&scale, &bits, sizeof(scale));
    return v * scale;
  }

  uint64_t limbs_[kLimbs] = {};
};

}  // namespace pimine

#endif  // PIMINE_UTIL_EXACT_SUM_H_
