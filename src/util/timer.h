#ifndef PIMINE_UTIL_TIMER_H_
#define PIMINE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace pimine {

/// Monotonic wall-clock stopwatch used by the profiler and the benchmark
/// harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Nanoseconds since construction or last Reset().
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pimine

#endif  // PIMINE_UTIL_TIMER_H_
