#ifndef PIMINE_PIM_PIM_CONFIG_H_
#define PIMINE_PIM_PIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pimine {

/// Hardware parameters of the ReRAM-based memory (Table 5 of the paper plus
/// the crossbar geometry from §VI-A: 256x256 crossbars of 2-bit cells,
/// 131072 crossbars in a 2 GB PIM array).
struct PimConfig {
  /// Crossbar dimension m (m x m cells).
  int crossbar_dim = 256;
  /// Cell precision h in bits.
  int cell_bits = 2;
  /// Total crossbars C in the PIM array.
  int64_t num_crossbars = 131072;
  /// ReRAM read latency per crossbar cycle (ns).
  double read_ns = 29.31;
  /// ReRAM write (programming) latency per row (ns).
  double write_ns = 50.88;
  /// ReRAM memory-array capacity (bytes) — ordinary storage next to PIM.
  uint64_t memory_array_bytes = 14ull * 1024 * 1024 * 1024;
  /// Internal bus bandwidth between ReRAM banks and CPU (GB/s).
  double internal_bus_gbps = 50.0;
  /// DAC resolution in bits per input cycle (inputs are streamed in
  /// `dac_bits` slices, Fig. 2).
  int dac_bits = 2;
  /// ADC + sample-and-hold + shift-and-add overhead per crossbar cycle (ns).
  double peripheral_ns = 10.0;
  /// Write endurance per cell (ReRAM: 1e8-1e11; we track the conservative
  /// end and let tests assert re-programming stays far below it).
  double endurance_writes = 1e8;
  /// Host<->device interconnect bandwidth for a fleet of PIM devices
  /// (GB/s). Conservatively below the internal bus: scatter/gather between
  /// the host and a device shard crosses the off-bank fabric.
  double interconnect_gbps = 25.0;
  /// Fixed per-message latency of one interconnect hop (ns): one scatter
  /// broadcast, one gather reply, or one reduction-tree merge.
  double interconnect_hop_ns = 100.0;

  /// PIM array capacity in data bits: C crossbars of m*m cells, h bits each.
  uint64_t TotalCellBits() const {
    return static_cast<uint64_t>(num_crossbars) * crossbar_dim * crossbar_dim *
           cell_bits;
  }

  /// Validates parameter sanity.
  Status Validate() const;

  std::string ToString() const;
};

}  // namespace pimine

#endif  // PIMINE_PIM_PIM_CONFIG_H_
