// Micro-benchmarks (google-benchmark) of the similarity kernels and bound
// functions — the per-candidate costs that Eq. 13 reasons about.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/bounds.h"
#include "core/segments.h"
#include "core/similarity.h"
#include "data/bit_matrix.h"
#include "data/matrix.h"
#include "knn/filter_refine.h"
#include "sim/traffic.h"
#include "util/random.h"
#include "util/top_k.h"

namespace pimine {
namespace {

std::vector<float> RandomVector(size_t d, uint64_t seed) {
  std::vector<float> v(d);
  Rng rng(seed);
  for (float& x : v) x = rng.NextFloat();
  return v;
}

void BM_SquaredEuclidean(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto p = RandomVector(d, 1);
  const auto q = RandomVector(d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclidean(p, q));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_SquaredEuclidean)->Arg(128)->Arg(420)->Arg(960)->Arg(4096);

void BM_CosineSimilarity(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto p = RandomVector(d, 3);
  const auto q = RandomVector(d, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineSimilarity(p, q));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(420)->Arg(960);

void BM_PearsonCorrelation(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto p = RandomVector(d, 5);
  const auto q = RandomVector(d, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonCorrelation(p, q));
  }
}
BENCHMARK(BM_PearsonCorrelation)->Arg(420)->Arg(960);

void BM_LbFnn(benchmark::State& state) {
  const size_t d = 420;
  const int64_t d0 = state.range(0);
  const auto p = RandomVector(d, 7);
  const auto q = RandomVector(d, 8);
  std::vector<float> pm(d0), ps(d0), qm(d0), qs(d0);
  ComputeSegments(p, d0, pm, ps);
  ComputeSegments(q, d0, qm, qs);
  const int64_t l = SegmentLength(d, d0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbFnn(pm, ps, qm, qs, l));
  }
}
BENCHMARK(BM_LbFnn)->Arg(7)->Arg(28)->Arg(105);

void BM_HammingDistance(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  BitMatrix codes(2, bits);
  Rng rng(9);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t b = 0; b < bits; ++b) codes.Set(r, b, rng.NextBool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BitMatrix::HammingDistance(codes.row(0), codes.row(1)));
  }
}
BENCHMARK(BM_HammingDistance)->Arg(128)->Arg(512)->Arg(1024);

void BM_EarlyAbandon(benchmark::State& state) {
  const size_t d = 960;
  const auto p = RandomVector(d, 10);
  const auto q = RandomVector(d, 11);
  const double threshold = SquaredEuclidean(p, q) / state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclideanEarlyAbandon(p, q, threshold));
  }
}
BENCHMARK(BM_EarlyAbandon)->Arg(1)->Arg(4)->Arg(16);

// FilterRefine's ED refine, per candidate: the scalar early-abandon loop
// against windows of kEdLanes AVX2 lanes (SquaredEuclideanLanes, then the
// replay of each lane; skipped on a host without AVX2). Candidates are
// 4,096 random rows of a 20,000 x 420 matrix, so rows stream from memory
// as in a kNN refine. Arg 0 refines at +inf (every dimension is read),
// arg 1 at a quarter of the median distance: the distances lie close
// together, so nearly every candidate abandons at the second checkpoint,
// after 128 dimensions (at the median itself nearly all would read the
// full row). The per_candidate counter is in seconds, printed with an SI
// prefix (25n is 25 ns).
struct RefineInputs {
  static constexpr size_t kRows = 20000;
  static constexpr size_t kDims = 420;
  static constexpr size_t kCandidates = 4096;
  FloatMatrix data{kRows, kDims};
  std::vector<float> query = RandomVector(kDims, 12);
  std::vector<uint32_t> candidates;
  double median = 0.0;
};

RefineInputs MakeRefineInputs() {
  RefineInputs in;
  Rng rng(13);
  for (size_t i = 0; i < RefineInputs::kRows; ++i) {
    for (float& v : in.data.mutable_row(i)) v = rng.NextFloat();
  }
  std::vector<double> distances;
  for (size_t c = 0; c < RefineInputs::kCandidates; ++c) {
    in.candidates.push_back(
        static_cast<uint32_t>(rng.NextBounded(RefineInputs::kRows)));
    distances.push_back(
        SquaredEuclidean(in.data.row(in.candidates.back()), in.query));
  }
  std::nth_element(distances.begin(), distances.begin() + distances.size() / 2,
                   distances.end());
  in.median = distances[distances.size() / 2];
  return in;
}

const RefineInputs& Refine() {
  static const RefineInputs inputs = MakeRefineInputs();
  return inputs;
}

double RefineThreshold(const benchmark::State& state) {
  return state.range(0) == 0 ? HUGE_VAL : Refine().median / 4;
}

void SetPerCandidate(benchmark::State& state) {
  state.counters["per_candidate"] = benchmark::Counter(
      static_cast<double>(state.iterations() * RefineInputs::kCandidates),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_RefineScalar(benchmark::State& state) {
  const RefineInputs& in = Refine();
  const double threshold = RefineThreshold(state);
  for (auto _ : state) {
    for (const uint32_t idx : in.candidates) {
      benchmark::DoNotOptimize(
          SquaredEuclideanEarlyAbandon(in.data.row(idx), in.query, threshold));
    }
  }
  SetPerCandidate(state);
}
BENCHMARK(BM_RefineScalar)->Arg(0)->Arg(1);

void BM_RefineWindow(benchmark::State& state) {
  if (!EdLanesSupported()) {
    state.SkipWithError("this host cannot run the AVX2 lane kernel");
    return;
  }
  const RefineInputs& in = Refine();
  const double threshold = RefineThreshold(state);
  std::vector<double> checkpoints(kEdLanes *
                                  EdCheckpoints(RefineInputs::kDims));
  for (auto _ : state) {
    for (size_t w = 0; w < RefineInputs::kCandidates; w += kEdLanes) {
      const float* rows[kEdLanes];
      for (size_t l = 0; l < kEdLanes; ++l) {
        rows[l] = in.data.row(in.candidates[w + l]).data();
      }
      SquaredEuclideanLanes(rows, in.query, threshold, checkpoints);
      for (size_t l = 0; l < kEdLanes; ++l) {
        benchmark::DoNotOptimize(ReplayEarlyAbandon(
            checkpoints, l, RefineInputs::kDims, threshold));
      }
    }
  }
  SetPerCandidate(state);
}
BENCHMARK(BM_RefineWindow)->Arg(0)->Arg(1);

// FilterRefine's order layer at knn-msd's shape: n = 20,000 candidates and
// k = 10. Bound i is uniform in [0, 1), and its candidate's exact squared
// ED is the bound plus 0.0145 (a one-dimensional row, so refines stay
// cheap), so the walk reaches about 1.5% of the candidates (the `refined`
// counter, a share of n). Arg 1 adds a prune step that drops the candidate
// with the smallest bound, as ORCA-PIM drops a point's own row; that leaves
// the top-k one short after phase 1. The per_bound counter is in seconds,
// printed with an SI prefix.
struct FilterRefineInputs {
  static constexpr size_t kCandidates = 20000;
  static constexpr int kK = 10;
  std::vector<double> bounds;
  FloatMatrix rows{kCandidates, 1};
  std::vector<float> query{0.0f};
  uint32_t first = 0;
};

FilterRefineInputs MakeFilterRefineInputs() {
  FilterRefineInputs in;
  Rng rng(14);
  for (size_t i = 0; i < FilterRefineInputs::kCandidates; ++i) {
    in.bounds.push_back(rng.NextUniform(0.0, 1.0));
    in.rows.mutable_row(i)[0] =
        static_cast<float>(std::sqrt(in.bounds.back() + 0.0145));
  }
  in.first = static_cast<uint32_t>(
      std::min_element(in.bounds.begin(), in.bounds.end()) -
      in.bounds.begin());
  return in;
}

void BM_FilterRefine(benchmark::State& state) {
  static const FilterRefineInputs in = MakeFilterRefineInputs();
  const ExactMeasure exact{Distance::kEuclidean, in.rows, in.query};
  const auto drop_first = [&](uint32_t idx, const TopK&) {
    return idx == in.first;
  };
  const traffic::AggregateScope scope;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        state.range(0) == 0
            ? FilterRefine(in.bounds, FilterRefineInputs::kK, exact, Fn::kLbPim)
            : FilterRefine(in.bounds, FilterRefineInputs::kK, exact, Fn::kLbPim,
                           &drop_first));
  }
  const auto bounds = static_cast<double>(state.iterations() *
                                          FilterRefineInputs::kCandidates);
  state.counters["per_bound"] = benchmark::Counter(
      bounds, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["refined"] =
      static_cast<double>(scope.Delta().exact_count) / bounds;
}
BENCHMARK(BM_FilterRefine)->Arg(0)->Arg(1);

}  // namespace
}  // namespace pimine

BENCHMARK_MAIN();
