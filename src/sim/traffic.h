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
namespace internal {
// Both are constant-initialized and trivially destructible, so a read
// needs no thread-local init check and a thread's exit runs no destructor.
inline constinit thread_local TrafficCounters tls_counters;
inline constinit thread_local TrafficCounters* tls_sink = nullptr;
}  // namespace internal

/// The calling thread's counters: the sink a ScopedSink installed, else
/// the thread's own block.
inline TrafficCounters& Local() {
  TrafficCounters* const sink = internal::tls_sink;
  return sink != nullptr ? *sink : internal::tls_counters;
}

/// Zeroes the calling thread's counters.
inline void Reset() { Local() = TrafficCounters(); }

inline void CountRead(uint64_t bytes) { Local().bytes_from_memory += bytes; }
inline void CountWrite(uint64_t bytes) { Local().bytes_to_memory += bytes; }
inline void CountArithmetic(uint64_t ops) { Local().arithmetic_ops += ops; }
inline void CountLongOps(uint64_t ops) { Local().long_ops += ops; }
inline void CountBranches(uint64_t n) { Local().branches += n; }
inline void CountPimResults(uint64_t n) { Local().pim_results_loaded += n; }

/// Routes the calling thread's charges into `sink` for the scope's
/// lifetime, then restores the previous target. RunSlotPass runs each
/// worker body under its WorkerSlot's sink and adds the slots into the
/// calling thread's counters once the pass has finished, so a parallel run
/// charges its coordinator exactly what the serial run does.
class ScopedSink {
 public:
  explicit ScopedSink(TrafficCounters* sink) : prev_(internal::tls_sink) {
    internal::tls_sink = sink;
  }
  ~ScopedSink() { internal::tls_sink = prev_; }

  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  TrafficCounters* const prev_;
};

/// RAII scope reporting the calling thread's counter delta over its
/// lifetime. Work fanned out through RunSlotPass is included (the pass
/// folds its slots back into this thread's counters); any other thread's
/// charges never are. Read Delta() on the constructing thread, under the
/// sink (or none) that was installed at construction.
class AggregateScope {
 public:
  AggregateScope() : start_(Local()) {}

  /// Counters this thread accumulated since construction.
  TrafficCounters Delta() const { return Local() - start_; }

 private:
  TrafficCounters start_;
};

}  // namespace traffic

}  // namespace pimine

#endif  // PIMINE_SIM_TRAFFIC_H_
