#ifndef PIMINE_SIM_TRAFFIC_H_
#define PIMINE_SIM_TRAFFIC_H_

#include <cstdint>
#include <string>

namespace pimine {

/// Operation counters accumulated by instrumented kernels. The quantity the
/// whole paper turns on — bits transferred from memory per candidate
/// (d*b on a conventional architecture vs 3*b with PIM, Fig. 8) — is counted
/// here exactly, alongside the arithmetic/branch work used by the Fig. 5
/// hardware-component breakdown.
struct TrafficCounters {
  /// Bytes streamed from main memory to the CPU (vector payloads).
  uint64_t bytes_from_memory = 0;
  /// Bytes written back to main memory (pre-processing, center updates).
  uint64_t bytes_to_memory = 0;
  /// Floating-point / integer arithmetic operations (mul/add class).
  uint64_t arithmetic_ops = 0;
  /// Long-latency ALU operations (division, sqrt).
  uint64_t long_ops = 0;
  /// Conditional branches executed.
  uint64_t branches = 0;
  /// PIM results fetched from the buffer array (count of scalar results).
  uint64_t pim_results_loaded = 0;

  TrafficCounters& operator+=(const TrafficCounters& other);
  TrafficCounters operator-(const TrafficCounters& other) const;
  bool operator==(const TrafficCounters& other) const;
  std::string ToString() const;
};

/// Thread-local counter access. Kernels call the Count* helpers at coarse
/// granularity (per row / per block of candidates) so instrumentation
/// overhead stays negligible relative to the measured work.
namespace traffic {

/// Current thread's counters (mutable reference). The first access from a
/// thread registers its counter block in the process-wide registry that
/// AggregateScope drains; the block is retired (its totals folded into a
/// process accumulator) when the thread exits.
TrafficCounters& Local();

/// Zeroes the current thread's counters.
void Reset();

/// Process-wide counter snapshot: the sum of every live thread's counters
/// plus the totals retired by exited threads. Call only while no
/// instrumented work is in flight on other threads (e.g. after
/// ThreadPool::Wait()); the registry does not synchronize with counting
/// threads beyond the caller's own happens-before edges.
TrafficCounters GlobalSnapshot();

inline void CountRead(uint64_t bytes);
inline void CountWrite(uint64_t bytes);
inline void CountArithmetic(uint64_t ops);
inline void CountLongOps(uint64_t ops);
inline void CountBranches(uint64_t n);
inline void CountPimResults(uint64_t n);

// --- implementation -------------------------------------------------------

inline void CountRead(uint64_t bytes) { Local().bytes_from_memory += bytes; }
inline void CountWrite(uint64_t bytes) { Local().bytes_to_memory += bytes; }
inline void CountArithmetic(uint64_t ops) { Local().arithmetic_ops += ops; }
inline void CountLongOps(uint64_t ops) { Local().long_ops += ops; }
inline void CountBranches(uint64_t n) { Local().branches += n; }
inline void CountPimResults(uint64_t n) { Local().pim_results_loaded += n; }

/// RAII scope reporting the counter delta accumulated *across all threads*
/// during its lifetime. This is what makes parallel runs report exactly the
/// serial traffic: worker threads count into their own thread-local blocks
/// (no contention on the hot path) and the scope drains the per-thread
/// deltas through the registry. Construct before submitting work and read
/// Delta() only after the pool has drained (ThreadPool::Wait() provides the
/// required happens-before edge); concurrent unrelated instrumented work
/// would be folded into the delta.
class AggregateScope {
 public:
  AggregateScope() : start_(GlobalSnapshot()) {}

  /// Counters accumulated (process-wide) since construction.
  TrafficCounters Delta() const { return GlobalSnapshot() - start_; }

 private:
  TrafficCounters start_;
};

}  // namespace traffic

}  // namespace pimine

#endif  // PIMINE_SIM_TRAFFIC_H_
