#ifndef PIMINE_PIM_CROSSBAR_H_
#define PIMINE_PIM_CROSSBAR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "pim/fault_model.h"

namespace pimine {

/// Functional model of one m x m ReRAM crossbar with h-bit cells.
///
/// Layout follows §II-A / Fig. 2 of the paper: a b-bit multiplier is
/// segmented into ceil(b/h) h-bit slices stored in adjacent cells of the
/// same row, so a "logical column" (one stored vector) spans ceil(b/h)
/// physical columns; rows correspond to vector dimensions. The b-bit
/// multiplicand (input) is streamed through the DACs `dac_bits` per cycle;
/// per-cycle analog column sums are digitized (S&H + ADC) and combined with
/// the shift-and-add unit (S&A).
///
/// The model is bit-exact: reconstructing the shifted partial sums yields
/// exactly the integer dot product, which is what ideal hardware computes.
/// It also counts cycles and cell-programming events (write endurance).
class Crossbar {
 public:
  /// Creates an m x m crossbar of h-bit cells. Aborts on nonsensical
  /// geometry (programmer error).
  Crossbar(int dim, int cell_bits);

  /// Number of physical columns a single operand of `operand_bits` spans.
  int SlicesPerOperand(int operand_bits) const;

  /// Logical columns available for vectors of `operand_bits` operands.
  int NumLogicalColumns(int operand_bits) const;

  /// Programs `operands` (one per row, length <= dim) into logical column
  /// `logical_col`. Fails if the operands exceed `operand_bits` bits or the
  /// column is out of range.
  Status ProgramVector(int logical_col, std::span<const uint32_t> operands,
                       int operand_bits);

  /// Result of one crossbar dot-product operation.
  struct DotResult {
    /// One value per logical column (uint64 wrap-around models the paper's
    /// least-significant-64-bit rule).
    std::vector<uint64_t> values;
    /// DAC input cycles consumed (= ceil(input_bits / dac_bits)).
    int cycles = 0;
  };

  /// Streams `input` (one value per row, b-bit) through the crossbar and
  /// returns per-logical-column dot products, emulating the slice pipeline
  /// cycle by cycle. `operand_bits` must match what was programmed.
  Result<DotResult> DotProduct(std::span<const uint32_t> input, int input_bits,
                               int operand_bits, int dac_bits) const;

  /// As above, with fault injection from `faults` (may be null): stuck-at
  /// cells (FaultModel::kCrossbarCellSalt domain, keyed by physical cell
  /// index) and transient single-bit flips of individual digitized column
  /// samples. One op nonce is drawn per call, so repeating a call redraws
  /// the transient faults while the stuck cells stay put.
  Result<DotResult> DotProduct(std::span<const uint32_t> input, int input_bits,
                               int operand_bits, int dac_bits,
                               FaultModel* faults) const;

  int dim() const { return dim_; }
  int cell_bits() const { return cell_bits_; }

  /// Total cell-programming events since construction (endurance proxy).
  uint64_t cell_writes() const { return cell_writes_; }

  /// Raw cell value (for tests).
  uint8_t cell(int row, int col) const;

 private:
  int dim_;
  int cell_bits_;
  /// Row-major dim x dim cell array; each holds an h-bit conductance level.
  std::vector<uint8_t> cells_;
  uint64_t cell_writes_ = 0;
};

}  // namespace pimine

#endif  // PIMINE_PIM_CROSSBAR_H_
