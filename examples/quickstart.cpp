// Quickstart: the smallest end-to-end use of pimine.
//
// 1. Generate a small dataset (values in [0, 1]).
// 2. Build a ShardedPimEngine (one shard by default): quantizes the data
//    (Eq. 5-6), plans the crossbar layout (Theorem 4), programs the
//    simulated ReRAM PIM array, and pre-computes the Phi terms of the
//    PIM-aware bound.
// 3. Run a query: one PIM batch dot-product + O(1) host work per object
//    yields a lower bound on every squared Euclidean distance.
// 4. Use the bounds to find the exact nearest neighbour while computing
//    only a handful of exact distances.
//
// Build & run:  ./build/examples/quickstart

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/sharded_engine.h"
#include "core/similarity.h"
#include "data/generator.h"
#include "pim/crossbar.h"

using namespace pimine;

int main() {
  // --- the Fig. 1 crossbar, cycle by cycle -------------------------------
  Crossbar xbar(4, /*cell_bits=*/2);
  PIMINE_CHECK_OK(xbar.ProgramVector(0, std::vector<uint32_t>{3, 1, 0}, 2));
  PIMINE_CHECK_OK(xbar.ProgramVector(1, std::vector<uint32_t>{1, 2, 3}, 2));
  PIMINE_CHECK_OK(xbar.ProgramVector(2, std::vector<uint32_t>{2, 0, 1}, 2));
  auto dot = xbar.DotProduct(std::vector<uint32_t>{3, 1, 2}, 2, 2, 2);
  PIMINE_CHECK(dot.ok());
  std::printf("Fig. 1 crossbar dot products: [%llu, %llu, %llu]\n",
              (unsigned long long)dot->values[0],
              (unsigned long long)dot->values[1],
              (unsigned long long)dot->values[2]);

  // --- a similarity engine on generated data -----------------------------
  DatasetSpec spec;
  spec.name = "quickstart";
  spec.dims = 64;
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  const FloatMatrix data = DatasetGenerator::Generate(spec, 2000, /*seed=*/1);
  const FloatMatrix queries =
      DatasetGenerator::GenerateQueries(spec, data, 1, /*seed=*/2);

  auto engine =
      ShardedPimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  PIMINE_CHECK(engine.ok()) << engine.status().ToString();
  std::printf("engine mode: %.*s, objects: %zu, layout: %s\n",
              (int)EngineModeName((*engine)->mode()).size(),
              EngineModeName((*engine)->mode()).data(),
              (*engine)->num_objects(), (*engine)->plan().ToString().c_str());

  const auto q = queries.row(0);
  auto batch = (*engine)->RunQueryBatch(q, /*num_queries=*/1);
  PIMINE_CHECK(batch.ok()) << batch.status().ToString();
  std::vector<double> bounds(data.rows());
  (*engine)->BoundsFor(*batch, /*query=*/0, bounds);

  // Filter-and-refine: examine candidates in ascending bound order, stop
  // when the bound exceeds the best exact distance seen.
  std::vector<uint32_t> order(data.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = (uint32_t)i;
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return bounds[a] < bounds[b]; });

  double best = HUGE_VAL;
  uint32_t best_id = 0;
  size_t exact_computed = 0;
  for (uint32_t idx : order) {
    if (bounds[idx] >= best) break;  // everything after is pruned too.
    const double d = SquaredEuclidean(data.row(idx), q);
    ++exact_computed;
    if (d < best) {
      best = d;
      best_id = idx;
    }
  }
  std::printf(
      "nearest neighbour: object %u (squared ED %.6f)\n"
      "exact distances computed: %zu of %zu (PIM bounds pruned %.1f%%)\n"
      "modeled PIM time: %.1f us; bits moved per candidate: %.0f (vs %.0f "
      "for a full scan)\n",
      best_id, best, exact_computed, data.rows(),
      100.0 * (1.0 - (double)exact_computed / data.rows()),
      (*engine)->PimComputeNs() / 1e3,
      (*engine)->TransferBitsPerCandidate(),
      64.0 * 8 * sizeof(float));
  return 0;
}
