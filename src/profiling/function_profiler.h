#ifndef PIMINE_PROFILING_FUNCTION_PROFILER_H_
#define PIMINE_PROFILING_FUNCTION_PROFILER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace pimine {

/// §IV-B: decomposes an algorithm's execution time into per-function
/// components (T_f1 ... T_ft plus T_other). Algorithms charge wall time to
/// named functions ("ED", "LB_FNN", "bound update", ...); whatever part of
/// the run is not attributed shows up as "Other" when rendered against the
/// total.
class FunctionProfiler {
 public:
  /// Adds `ns` to the accumulator for `tag` (created on first use).
  void Add(std::string_view tag, int64_t ns);

  /// Nanoseconds charged to `tag` (0 if never seen).
  int64_t Get(std::string_view tag) const;

  /// Sum over all tags.
  int64_t TotalAttributedNs() const;

  /// (tag, ns) pairs in first-use order.
  const std::vector<std::pair<std::string, int64_t>>& entries() const {
    return entries_;
  }

  /// Drops every accumulator and tag. After Reset() the profiler behaves
  /// exactly like a freshly constructed one: a subsequent Merge() adopts
  /// the other profiler's tags in *its* first-use order (pre-reset order is
  /// forgotten), and Get() returns 0 for all previously known tags. Only
  /// the underlying vector capacity is retained, as an allocation
  /// optimization with no observable effect.
  void Reset() { entries_.clear(); }

  /// Merges another profiler's accumulators into this one: existing tags
  /// add, unseen tags append in `other`'s first-use order.
  void Merge(const FunctionProfiler& other);

 private:
  // Small linear-probed vector: profiles hold a handful of tags, and
  // first-use order is what the Fig. 6 rendering wants.
  std::vector<std::pair<std::string, int64_t>> entries_;
};

/// RAII timer charging its scope to `tag`. A null `profiler` makes the
/// timer a no-op that never reads the clock, so call sites with optional
/// profiling need no guard.
class ScopedFunctionTimer {
 public:
  ScopedFunctionTimer(FunctionProfiler* profiler, std::string_view tag)
      : profiler_(profiler), tag_(tag) {
    if (profiler_ != nullptr) timer_.emplace();
  }
  ~ScopedFunctionTimer() {
    if (profiler_ != nullptr) profiler_->Add(tag_, timer_->ElapsedNanos());
  }

  ScopedFunctionTimer(const ScopedFunctionTimer&) = delete;
  ScopedFunctionTimer& operator=(const ScopedFunctionTimer&) = delete;

 private:
  FunctionProfiler* profiler_;
  std::string_view tag_;
  std::optional<Timer> timer_;
};

}  // namespace pimine

#endif  // PIMINE_PROFILING_FUNCTION_PROFILER_H_
