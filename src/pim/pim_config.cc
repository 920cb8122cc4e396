#include "pim/pim_config.h"

#include <sstream>

#include "util/bits.h"

namespace pimine {

Status PimConfig::Validate() const {
  if (crossbar_dim <= 0 || !IsPowerOfTwo(static_cast<uint64_t>(crossbar_dim))) {
    return Status::InvalidArgument("crossbar_dim must be a positive power of two");
  }
  if (cell_bits <= 0 || cell_bits > 8) {
    return Status::InvalidArgument("cell_bits must be in [1, 8]");
  }
  if (num_crossbars <= 0) {
    return Status::InvalidArgument("num_crossbars must be positive");
  }
  if (dac_bits <= 0 || dac_bits > 32) {
    return Status::InvalidArgument("dac_bits must be in [1, 32]");
  }
  if (read_ns <= 0.0 || write_ns <= 0.0) {
    return Status::InvalidArgument("latencies must be positive");
  }
  if (interconnect_gbps <= 0.0 || interconnect_hop_ns < 0.0) {
    return Status::InvalidArgument(
        "interconnect_gbps must be positive and interconnect_hop_ns "
        "non-negative");
  }
  return Status::OK();
}

std::string PimConfig::ToString() const {
  std::ostringstream os;
  os << "ReRAM crossbar: " << crossbar_dim << "x" << crossbar_dim << " "
     << cell_bits << "-bit cells; read/write " << read_ns << "/" << write_ns
     << " ns; " << num_crossbars << " crossbars ("
     << TotalCellBits() / 8 / (1024 * 1024) << " MB PIM array); bus "
     << internal_bus_gbps << " GB/s; interconnect " << interconnect_gbps
     << " GB/s + "
     << interconnect_hop_ns << " ns/hop; batches pipelined";
  return os.str();
}

}  // namespace pimine
