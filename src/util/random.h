#ifndef PIMINE_UTIL_RANDOM_H_
#define PIMINE_UTIL_RANDOM_H_

#include <cstdint>
#include <limits>

namespace pimine {

/// Stateless SplitMix64 finalizer: the repo-wide mixer for seeded,
/// platform-independent decisions (shard placement, fault and backoff
/// seeds, chaos schedules, event sampling, Rng seeding).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic, fast PRNG (xoshiro256**). All stochastic components of the
/// library (dataset generators, seeding, sampling) draw from this so that
/// every experiment is reproducible from an explicit seed.
class Rng {
 public:
  /// Seeds the generator with SplitMix64 expansion of `seed`, so nearby seeds
  /// produce uncorrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound). Precondition: bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [0, 1).
  float NextFloat();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Bernoulli(p).
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

 private:
  uint64_t state_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace pimine

#endif  // PIMINE_UTIL_RANDOM_H_
