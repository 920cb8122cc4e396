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

int64_t FunctionProfile::TotalNs() const {
  int64_t total = 0;
  for (const int64_t v : ns) total += v;
  return total;
}

int64_t FunctionProfile::OffloadableNs() const {
  int64_t total = 0;
  for (size_t f = 0; f < kNumFns; ++f) {
    if (kFns[f].offloadable) total += ns[f];
  }
  return total;
}

FunctionProfile& FunctionProfile::operator+=(const FunctionProfile& other) {
  for (size_t f = 0; f < kNumFns; ++f) ns[f] += other.ns[f];
  return *this;
}

FunctionProfile FunctionProfile::operator-(
    const FunctionProfile& other) const {
  FunctionProfile out;
  for (size_t f = 0; f < kNumFns; ++f) out.ns[f] = ns[f] - other.ns[f];
  return out;
}

RunLedger& RunLedger::operator+=(const RunLedger& other) {
  traffic += other.traffic;
  exact_count += other.exact_count;
  bound_count += other.bound_count;
  pruned_count += other.pruned_count;
  profile += other.profile;
  return *this;
}

RunLedger RunLedger::operator-(const RunLedger& other) const {
  RunLedger out;
  out.traffic = traffic - other.traffic;
  out.exact_count = exact_count - other.exact_count;
  out.bound_count = bound_count - other.bound_count;
  out.pruned_count = pruned_count - other.pruned_count;
  out.profile = profile - other.profile;
  return out;
}

}  // namespace pimine
