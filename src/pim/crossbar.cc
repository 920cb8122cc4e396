#include "pim/crossbar.h"

#include <algorithm>

#include "common/logging.h"
#include "util/bits.h"

namespace pimine {

Crossbar::Crossbar(int dim, int cell_bits)
    : dim_(dim),
      cell_bits_(cell_bits),
      cells_(static_cast<size_t>(dim) * dim, 0) {
  PIMINE_CHECK(dim > 0 && cell_bits > 0 && cell_bits <= 8)
      << "bad crossbar geometry: dim=" << dim << " h=" << cell_bits;
}

int Crossbar::SlicesPerOperand(int operand_bits) const {
  return NumSlices(operand_bits, cell_bits_);
}

int Crossbar::NumLogicalColumns(int operand_bits) const {
  return dim_ / SlicesPerOperand(operand_bits);
}

Status Crossbar::ProgramVector(int logical_col,
                               std::span<const uint32_t> operands,
                               int operand_bits) {
  if (operand_bits <= 0 || operand_bits > 32) {
    return Status::InvalidArgument("operand_bits must be in [1, 32]");
  }
  const int slices = SlicesPerOperand(operand_bits);
  if (logical_col < 0 || logical_col >= NumLogicalColumns(operand_bits)) {
    return Status::OutOfRange("logical column out of range");
  }
  if (operands.size() > static_cast<size_t>(dim_)) {
    return Status::OutOfRange("vector longer than crossbar dimension");
  }
  const uint64_t limit =
      operand_bits >= 32 ? (1ULL << 32) : (1ULL << operand_bits);
  const int base_col = logical_col * slices;
  for (size_t row = 0; row < operands.size(); ++row) {
    if (operands[row] >= limit) {
      return Status::InvalidArgument("operand exceeds operand_bits");
    }
    for (int j = 0; j < slices; ++j) {
      cells_[row * dim_ + base_col + j] = static_cast<uint8_t>(
          ExtractSlice(operands[row], j, cell_bits_));
      ++cell_writes_;
    }
  }
  // Unused rows of this logical column are cleared (zero conductance).
  for (size_t row = operands.size(); row < static_cast<size_t>(dim_); ++row) {
    for (int j = 0; j < slices; ++j) {
      cells_[row * dim_ + base_col + j] = 0;
      ++cell_writes_;
    }
  }
  return Status::OK();
}

Result<Crossbar::DotResult> Crossbar::DotProduct(
    std::span<const uint32_t> input, int input_bits, int operand_bits,
    int dac_bits) const {
  return DotProduct(input, input_bits, operand_bits, dac_bits,
                    /*faults=*/nullptr);
}

Result<Crossbar::DotResult> Crossbar::DotProduct(
    std::span<const uint32_t> input, int input_bits, int operand_bits,
    int dac_bits, FaultModel* faults) const {
  if (input.size() > static_cast<size_t>(dim_)) {
    return Status::OutOfRange("input longer than crossbar dimension");
  }
  if (dac_bits <= 0 || dac_bits > input_bits || input_bits > 32) {
    return Status::InvalidArgument("bad input/dac bit widths");
  }
  const int slices = SlicesPerOperand(operand_bits);
  const int logical_cols = NumLogicalColumns(operand_bits);
  const int input_cycles = NumSlices(input_bits, dac_bits);
  if (faults != nullptr && !faults->enabled()) faults = nullptr;
  const uint64_t nonce = faults != nullptr ? faults->NextOpNonce() : 0;
  // Width of one digitized column sample: dim rows of (dac-slice * cell)
  // products. Transient flips land inside it.
  const uint64_t max_current = static_cast<uint64_t>(dim_) *
                               ((1ULL << dac_bits) - 1) *
                               ((1ULL << cell_bits_) - 1);
  const int sample_bits = FloorLog2(std::max<uint64_t>(1, max_current)) + 1;

  DotResult out;
  out.values.assign(logical_cols, 0);
  out.cycles = input_cycles;

  // Cycle-by-cycle emulation of the pipeline in Fig. 2: each DAC cycle
  // injects one h'-bit input slice; the analog column currents are sampled,
  // digitized, and shifted into the running sums by the S&A unit. The DAC
  // drives every column with the same slice, so each cycle's input slices
  // are extracted once per row, not once per (row, column) pair.
  std::vector<uint64_t> input_slices(input.size());
  for (int t = 0; t < input_cycles; ++t) {
    for (size_t row = 0; row < input.size(); ++row) {
      input_slices[row] = ExtractSlice(input[row], t, dac_bits);
    }
    for (int col = 0; col < logical_cols * slices; ++col) {
      uint64_t column_current = 0;
      for (size_t row = 0; row < input.size(); ++row) {
        uint64_t cell = cells_[row * dim_ + col];
        if (faults != nullptr) {
          uint8_t level = 0;
          if (faults->CellStuck(FaultModel::kCrossbarCellSalt,
                                static_cast<uint64_t>(row) * dim_ + col,
                                cell_bits_, &level)) {
            cell = level;
          }
        }
        column_current += input_slices[row] * cell;
      }
      if (faults != nullptr) {
        const uint64_t sample = static_cast<uint64_t>(t) * dim_ + col;
        column_current ^= faults->TransientMask(nonce, sample, sample_bits);
      }
      const int logical = col / slices;
      const int cell_slice = col % slices;
      // Shift by input-cycle weight and cell-slice weight; uint64 wraparound
      // implements the least-significant-64-bit truncation rule.
      const int shift = t * dac_bits + cell_slice * cell_bits_;
      out.values[logical] += shift >= 64 ? 0 : (column_current << shift);
    }
  }
  return out;
}

uint8_t Crossbar::cell(int row, int col) const {
  PIMINE_CHECK(row >= 0 && row < dim_ && col >= 0 && col < dim_);
  return cells_[static_cast<size_t>(row) * dim_ + col];
}

}  // namespace pimine
