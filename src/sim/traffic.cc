#include "sim/traffic.h"

#include <sstream>

namespace pimine {

TrafficCounters& TrafficCounters::operator+=(const TrafficCounters& other) {
  bytes_from_memory += other.bytes_from_memory;
  bytes_to_memory += other.bytes_to_memory;
  arithmetic_ops += other.arithmetic_ops;
  long_ops += other.long_ops;
  branches += other.branches;
  pim_results_loaded += other.pim_results_loaded;
  return *this;
}

TrafficCounters TrafficCounters::operator-(
    const TrafficCounters& other) const {
  TrafficCounters out;
  out.bytes_from_memory = bytes_from_memory - other.bytes_from_memory;
  out.bytes_to_memory = bytes_to_memory - other.bytes_to_memory;
  out.arithmetic_ops = arithmetic_ops - other.arithmetic_ops;
  out.long_ops = long_ops - other.long_ops;
  out.branches = branches - other.branches;
  out.pim_results_loaded = pim_results_loaded - other.pim_results_loaded;
  return out;
}

bool TrafficCounters::operator==(const TrafficCounters& other) const {
  return bytes_from_memory == other.bytes_from_memory &&
         bytes_to_memory == other.bytes_to_memory &&
         arithmetic_ops == other.arithmetic_ops &&
         long_ops == other.long_ops && branches == other.branches &&
         pim_results_loaded == other.pim_results_loaded;
}

std::string TrafficCounters::ToString() const {
  std::ostringstream os;
  os << "read=" << bytes_from_memory << "B write=" << bytes_to_memory
     << "B arith=" << arithmetic_ops << " long=" << long_ops
     << " branch=" << branches << " pim_results=" << pim_results_loaded;
  return os.str();
}

}  // namespace pimine
