#ifndef PIMINE_CORE_MEMORY_PLANNER_H_
#define PIMINE_CORE_MEMORY_PLANNER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "pim/pim_config.h"

namespace pimine {

/// Outcome of Theorem 4 planning for a dataset on a given PIM array.
struct MemoryPlan {
  /// Compressed dimensionality s (== original dim when no compression is
  /// needed).
  int64_t s = 0;
  /// Matrices that must be programmed (1 for direct floors; 2 for the
  /// FNN-style mean+std pair).
  int copies = 1;
  /// Crossbar demand at s (Eq. 12), including all copies.
  int64_t data_crossbars = 0;
  int64_t gather_crossbars = 0;
  /// True when s < original dimensionality.
  bool compressed = false;

  std::string ToString() const;
};

/// §V-C: chooses the maximum compressed dimensionality s such that `copies`
/// matrices of N s-dimensional b-bit vectors fit in the PIM array
/// (Theorem 4). Fails with CapacityExceeded when even s=1 does not fit.
Result<MemoryPlan> PlanPimLayout(int64_t n, int64_t original_dim,
                                 int operand_bits, int copies,
                                 const PimConfig& config);

/// Scales the PIM array size so that `scaled_n` objects exercise the same
/// capacity pressure as `paper_n` objects did on the paper's 131072-crossbar
/// array. This is how the bench harness reproduces the paper's compressed
/// dimensionalities (s=105 on MSD etc.) with scaled-down datasets.
PimConfig ScalePimArrayForDataset(int64_t paper_n, int64_t scaled_n,
                                  const PimConfig& base);

}  // namespace pimine

#endif  // PIMINE_CORE_MEMORY_PLANNER_H_
