#ifndef PIMINE_PIM_TIMING_H_
#define PIMINE_PIM_TIMING_H_

#include <cstdint>

#include "pim/pim_config.h"

namespace pimine {

/// Analytical latency/energy model of PIM operations — the NVSim substitute
/// (DESIGN.md §1). All PIM-side time in the benchmark figures comes from
/// here, parameterized with the paper's Table 5 device numbers.
class PimTimingModel {
 public:
  explicit PimTimingModel(const PimConfig& config);

  /// Latency of one batched dot-product pass: every programmed vector is
  /// matched against one input vector of `s` dimensions with
  /// `input_bits`-bit components. Data crossbars fire concurrently (the
  /// paper's "massive parallelism"); the gather tree adds one pipeline stage
  /// per level when s exceeds the crossbar dimension.
  double BatchDotLatencyNs(int64_t s, int input_bits) const;

  /// Latency of one *multi-query* device batch: `queries` input vectors
  /// streamed back-to-back through the same pipeline (§II-A, Fig. 2). The
  /// first query pays the full pipeline depth and every further query one
  /// stage time (initiation interval = 1 stage):
  ///   latency = stage_ns * (stages + queries - 1).
  /// The queries = 1 case is bit-identical to the single-query overload
  /// above.
  double BatchDotLatencyNs(int64_t s, int input_bits, int64_t queries) const;

  /// Latency of programming `rows` crossbar rows (row-parallel writes).
  double ProgramLatencyNs(uint64_t rows) const;

  /// Latency of one host<->device interconnect message of `bytes` payload:
  /// a fixed per-hop cost plus the serialization time at the interconnect
  /// bandwidth. Used for the fleet scatter/gather/reduction accounting
  /// (config.interconnect_gbps yields ns directly for a byte count, like
  /// the internal bus convention).
  double TransferLatencyNs(uint64_t bytes) const;

  /// DAC cycles needed to stream a `bits`-wide input.
  int InputCycles(int bits) const;

  /// Energy of one batched dot-product pass over `ndata` data crossbars
  /// (picojoules). Secondary output; not used by the paper's figures.
  double BatchDotEnergyPj(int64_t ndata, int input_bits) const;

  const PimConfig& config() const { return config_; }

 private:
  PimConfig config_;
};

}  // namespace pimine

#endif  // PIMINE_PIM_TIMING_H_
