#include "knn/knn_common.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/traffic.h"
#include "util/bits.h"

namespace pimine {

std::vector<uint32_t> ArgsortAscending(std::span<const double> values) {
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [values](uint32_t a, uint32_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  ChargeArgsortTraffic(values.size());
  return order;
}

void ChargeArgsortTraffic(size_t n) {
  // One streaming pass over the value array plus n*log2(n) comparisons.
  traffic::CountRead(n * sizeof(double));
  if (n != 0) {
    const uint64_t comparisons = n * (FloorLog2(n) + 1);
    traffic::CountArithmetic(comparisons);
    traffic::CountBranches(comparisons);
  }
}

std::vector<Neighbor> FinalizeSimilarityNeighbors(TopK& topk) {
  std::vector<Neighbor> out = topk.TakeSorted();
  for (Neighbor& n : out) n.distance = -n.distance;
  return out;
}

}  // namespace pimine
