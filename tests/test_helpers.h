#ifndef PIMINE_TESTS_TEST_HELPERS_H_
#define PIMINE_TESTS_TEST_HELPERS_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "sim/traffic.h"
#include "util/random.h"

namespace pimine {
namespace testing_util {

/// Random matrix with values in [0, 1] (already "normalized").
inline FloatMatrix RandomUnitMatrix(size_t rows, size_t cols, uint64_t seed) {
  FloatMatrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (float& v : m.mutable_row(i)) v = rng.NextFloat();
  }
  return m;
}

/// Random vector with values in [0, 1].
inline std::vector<float> RandomUnitVector(size_t dims, uint64_t seed) {
  std::vector<float> v(dims);
  Rng rng(seed);
  for (float& x : v) x = rng.NextFloat();
  return v;
}

/// The bounds of one query against every object of `fleet`: a one-query
/// RunQueryBatch, then BoundsFor into `bounds` (resized to num_objects()).
inline Status QueryBounds(const ShardedPimEngine& fleet,
                          std::span<const float> query,
                          std::vector<double>* bounds) {
  PIMINE_ASSIGN_OR_RETURN(const ShardedPimEngine::QueryHandleBatch batch,
                          fleet.RunQueryBatch(query, 1));
  bounds->resize(fleet.num_objects());
  fleet.BoundsFor(batch, 0, *bounds);
  return Status::OK();
}

/// The names of the Fig. 6 functions `profile` charged time to, in Fn
/// order. Function times are wall-clock, so tests compare this set, never
/// the nanoseconds.
inline std::vector<std::string> Charged(const FunctionProfile& profile) {
  std::vector<std::string> names;
  for (size_t f = 0; f < kNumFns; ++f) {
    if (profile.ns[f] != 0) names.emplace_back(kFns[f].name);
  }
  return names;
}

}  // namespace testing_util
}  // namespace pimine

#endif  // PIMINE_TESTS_TEST_HELPERS_H_
