#include "pim/timing.h"

#include "common/logging.h"
#include "pim/crossbar_math.h"
#include "util/bits.h"

namespace pimine {

PimTimingModel::PimTimingModel(const PimConfig& config) : config_(config) {
  PIMINE_CHECK_OK(config.Validate());
}

int PimTimingModel::InputCycles(int bits) const {
  return NumSlices(bits, config_.dac_bits);
}

double PimTimingModel::BatchDotLatencyNs(int64_t s, int input_bits) const {
  return BatchDotLatencyNs(s, input_bits, /*queries=*/1);
}

double PimTimingModel::BatchDotLatencyNs(int64_t s, int input_bits,
                                         int64_t queries) const {
  PIMINE_CHECK(s > 0);
  PIMINE_CHECK(queries > 0);
  const double stage_ns =
      static_cast<double>(InputCycles(input_bits)) *
      (config_.read_ns + config_.peripheral_ns);
  // One data stage plus (depth - 1) gather stages. We charge gather stages
  // the same stage latency as the data stage (partial sums are re-injected
  // slice-wise, Fig. 11); with m = 256 the tree is at most 2 deep for every
  // dimensionality in the paper.
  const int stages = GatherDepth(s, config_.crossbar_dim);
  // Back-to-back streaming: query q enters the data stage while query q-1
  // occupies the first gather stage, so a batch drains in stages + Q - 1
  // stage times. Q = 1 reduces exactly to stage_ns * stages (Table 5).
  return stage_ns * static_cast<double>(stages + queries - 1);
}

double PimTimingModel::ProgramLatencyNs(uint64_t rows) const {
  return static_cast<double>(rows) * config_.write_ns;
}

double PimTimingModel::TransferLatencyNs(uint64_t bytes) const {
  return config_.interconnect_hop_ns +
         static_cast<double>(bytes) / config_.interconnect_gbps;
}

double PimTimingModel::BatchDotEnergyPj(int64_t ndata, int input_bits) const {
  // Crude ISAAC-style accounting: each crossbar read cycle costs ~50 pJ for
  // the array plus ADC; enough for relative ablations.
  constexpr double kCyclePj = 50.0;
  return static_cast<double>(ndata) * InputCycles(input_bits) * kCyclePj;
}

}  // namespace pimine
