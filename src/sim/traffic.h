#ifndef PIMINE_SIM_TRAFFIC_H_
#define PIMINE_SIM_TRAFFIC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/timer.h"

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

/// The functions of the §IV-B per-function profile (Fig. 6): every timed
/// step of a run is one of them, and the rest of its wall time is "Other".
enum class Fn : uint8_t {
  kEd,
  kEdApprox,
  kCs,
  kPcc,
  kHd,
  kHdPim,
  kLbPim,
  kLbOst,
  kLbSm,
  kLbFnn,
  kBoundUpdate,
  kUpdate,
};

/// What the Fig. 6 tables print for a function, and whether Eq. 2 counts
/// it in the set F of functions PIM can take over.
struct FnInfo {
  const char* name;
  bool offloadable;
};

/// Indexed by Fn.
inline constexpr FnInfo kFns[] = {
    {"ED", true},     {"ED_approx", false},    {"CS", true},
    {"PCC", true},    {"HD", true},            {"HD_PIM", true},
    {"LB_PIM", true}, {"LB_OST", true},        {"LB_SM", true},
    {"LB_FNN", true}, {"bound update", false}, {"update", false},
};
inline constexpr size_t kNumFns = std::size(kFns);
static_assert(static_cast<size_t>(Fn::kUpdate) + 1 == kNumFns);

inline const char* FnName(Fn fn) { return kFns[static_cast<size_t>(fn)].name; }

/// Wall nanoseconds charged to each Fig. 6 function.
struct FunctionProfile {
  std::array<int64_t, kNumFns> ns{};

  int64_t& operator[](Fn fn) { return ns[static_cast<size_t>(fn)]; }
  int64_t operator[](Fn fn) const { return ns[static_cast<size_t>(fn)]; }

  /// Sum over every function: the run time Fig. 6 does not call "Other".
  int64_t TotalNs() const;
  /// Sum over the offloadable functions: Eq. 2's time in F.
  int64_t OffloadableNs() const;

  FunctionProfile& operator+=(const FunctionProfile& other);
  FunctionProfile operator-(const FunctionProfile& other) const;
};

/// Everything a run charges as it executes: its traffic, its exact/bound/
/// pruned counts and its Fig. 6 function times. Each thread has one, and a
/// slot pass gives each worker one (traffic::ScopedSink); a run's figures
/// are the delta of the ledger of the thread that opened it.
struct RunLedger {
  /// Host-side operation/traffic counters.
  TrafficCounters traffic;
  /// Exact distance computations performed.
  uint64_t exact_count = 0;
  /// Bound evaluations performed (host-combined for PIM variants).
  uint64_t bound_count = 0;
  /// Candidates a bound decided without an exact computation: each k-means
  /// pair KmeansBounds::DistanceOrBound answered with its bound, and for
  /// each kNN or served query whose path evaluated bounds, its live rows
  /// minus the rows it refined.
  uint64_t pruned_count = 0;
  /// Per-function wall-time attribution (Fig. 6).
  FunctionProfile profile;

  RunLedger& operator+=(const RunLedger& other);
  RunLedger operator-(const RunLedger& other) const;
};

/// Thread-local ledger access. A charge is one thread-local read and an
/// add, cheap next to the distance or bound it counts.
namespace traffic {
namespace internal {
// Both are constant-initialized and trivially destructible, so a read
// needs no thread-local init check and a thread's exit runs no destructor.
inline constinit thread_local RunLedger tls_ledger;
inline constinit thread_local RunLedger* tls_sink = nullptr;
}  // namespace internal

/// The calling thread's ledger: the sink a ScopedSink installed, else the
/// thread's own.
inline RunLedger& Local() {
  RunLedger* const sink = internal::tls_sink;
  return sink != nullptr ? *sink : internal::tls_ledger;
}

/// Zeroes the calling thread's ledger.
inline void Reset() { Local() = RunLedger(); }

inline void CountRead(uint64_t bytes) {
  Local().traffic.bytes_from_memory += bytes;
}
inline void CountWrite(uint64_t bytes) {
  Local().traffic.bytes_to_memory += bytes;
}
inline void CountArithmetic(uint64_t ops) {
  Local().traffic.arithmetic_ops += ops;
}
inline void CountLongOps(uint64_t ops) { Local().traffic.long_ops += ops; }
inline void CountBranches(uint64_t n) { Local().traffic.branches += n; }
inline void CountPimResults(uint64_t n) {
  Local().traffic.pim_results_loaded += n;
}
inline void CountExact(uint64_t n) { Local().exact_count += n; }
inline void CountBounds(uint64_t n) { Local().bound_count += n; }
inline void CountPruned(uint64_t n) { Local().pruned_count += n; }

/// Routes the calling thread's charges into `sink` for the scope's
/// lifetime, then restores the previous target. RunSlotPass runs each
/// worker body under its WorkerSlot's sink and adds the slots into the
/// calling thread's ledger once the pass has finished, so a parallel run
/// charges its coordinator exactly what the serial run does.
class ScopedSink {
 public:
  explicit ScopedSink(RunLedger* sink) : prev_(internal::tls_sink) {
    internal::tls_sink = sink;
  }
  ~ScopedSink() { internal::tls_sink = prev_; }

  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  RunLedger* const prev_;
};

/// RAII scope reporting the calling thread's ledger delta over its
/// lifetime. Work fanned out through RunSlotPass is included (the pass
/// folds its slots back into this thread's ledger); any other thread's
/// charges never are. Read Delta() on the constructing thread, under the
/// sink (or none) that was installed at construction.
class AggregateScope {
 public:
  AggregateScope() : start_(Local()) {}

  /// What this thread charged since construction.
  RunLedger Delta() const { return Local() - start_; }

 private:
  RunLedger start_;
};

}  // namespace traffic

/// RAII timer charging its scope's wall time to `fn` in the calling
/// thread's ledger.
class ScopedFunctionTimer {
 public:
  explicit ScopedFunctionTimer(Fn fn) : fn_(fn) {}
  ~ScopedFunctionTimer() {
    traffic::Local().profile[fn_] += timer_.ElapsedNanos();
  }

  ScopedFunctionTimer(const ScopedFunctionTimer&) = delete;
  ScopedFunctionTimer& operator=(const ScopedFunctionTimer&) = delete;

 private:
  const Fn fn_;
  const Timer timer_;
};

}  // namespace pimine

#endif  // PIMINE_SIM_TRAFFIC_H_
