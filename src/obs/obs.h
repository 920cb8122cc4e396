#ifndef PIMINE_OBS_OBS_H_
#define PIMINE_OBS_OBS_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/traffic.h"

namespace pimine {
namespace obs {

/// Configuration for an observability session.
struct ObsOptions {
  TraceOptions trace;
};

/// Process-wide observability session. Disabled by default: every
/// instrumentation point starts with `Obs::Get()`, a single relaxed atomic
/// load returning nullptr, and takes no further action — the null-object
/// fast path that keeps the disabled build's RunStats and traffic totals
/// bit-identical to an uninstrumented binary.
///
/// Enable()/Disable() must be called from the coordinating thread while no
/// instrumented work is in flight.
class Obs {
 public:
  /// nullptr when observability is disabled (the fast path).
  static Obs* Get() { return instance_.load(std::memory_order_acquire); }
  static bool Enabled() { return Get() != nullptr; }

  static void Enable(const ObsOptions& options = ObsOptions());
  static void Disable();

  TraceRecorder& trace() { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Modeled host nanoseconds for a traffic-counter delta, through the
  /// default HostCostModel (the model RunStats' cost attribution uses).
  double HostNs(const TrafficCounters& delta) const {
    return model_.EstimateBreakdown(delta, 0).total_ns();
  }

 private:
  explicit Obs(const ObsOptions& options);

  HostCostModel model_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;

  static std::atomic<Obs*> instance_;
};

/// Adds `delta` to the named counter iff observability is enabled. Intended
/// for merge points / coarse events, not per-candidate hot loops (name
/// lookup takes the registry mutex).
inline void AddCounter(const char* name, uint64_t delta) {
  if (Obs* obs = Obs::Get()) obs->metrics().GetCounter(name).Add(delta);
}

// --- track-base plumbing ---------------------------------------------------

/// Sentinel: no batch track base installed on this thread.
constexpr int64_t kNoTrackBase = INT64_MIN;

/// Current thread's track base (kNoTrackBase when unset).
int64_t CurrentTrackBase();

/// Installs the per-thread query tracks for the duration of a scope, so
/// engine/device code can label per-query spans with global query ids via
/// TrackFor() without threading ids through every API. Batched harnesses
/// install base = first global query index of the batch (query i on track
/// base + i); a serving dispatch, whose member ids are not contiguous,
/// installs the ids themselves (query i on track ids[i]).
class ScopedTrackBase {
 public:
  explicit ScopedTrackBase(int64_t base);
  /// `ids` must outlive the scope.
  explicit ScopedTrackBase(std::span<const int64_t> ids);
  ~ScopedTrackBase();

  ScopedTrackBase(const ScopedTrackBase&) = delete;
  ScopedTrackBase& operator=(const ScopedTrackBase&) = delete;

 private:
  int64_t prev_base_;
  std::span<const int64_t> prev_ids_;
};

/// Track for the `index`-th query of the current batch: ids[index] or
/// base + index, whichever scope is innermost; kRunTrack when neither is
/// installed (spans fold into the run-level track, e.g. k-means assignment
/// passes under their iteration span).
int64_t TrackFor(int64_t index);

// --- RAII spans ------------------------------------------------------------

/// Span in the modeled-time domain over the calling thread's work:
/// duration = modeled host ns of the thread's traffic delta + the device
/// ns the caller hoisted (`extra_ns`) or charged (AddModeledNs). On close
/// it records the duration into `latency` when non-null (a per-slot or
/// per-run histogram, exact-merged into RunStats). A kNN or served query
/// opens one on its own track in the worker that owns it; a k-means
/// iteration opens one on the run track, and its delta includes the slot
/// traffic its assign pass folds back. The trace bytes and the histogram
/// therefore depend only on the spanned work, never on thread count or
/// batch grouping.
class ModeledSpan {
 public:
  /// One query: "query" on track `query_id`, tagged with it.
  ModeledSpan(int64_t query_id, Histogram* latency, double extra_ns = 0.0);
  /// A run-level span `cat`/`name` on kRunTrack.
  ModeledSpan(const char* cat, const char* name, Histogram* latency);
  ~ModeledSpan();

  /// Adds modeled device nanoseconds (e.g. PIM compute charged upstream).
  void AddModeledNs(double ns) { extra_ns_ += ns; }

  ModeledSpan(const ModeledSpan&) = delete;
  ModeledSpan& operator=(const ModeledSpan&) = delete;

 private:
  ModeledSpan(const char* cat, const char* name, int64_t track,
              const char* track_arg, Histogram* latency, double extra_ns);

  Obs* obs_;
  const char* cat_;
  const char* name_;
  int64_t track_;
  const char* track_arg_;  // exports the track as this arg; null: none.
  Histogram* latency_;
  double extra_ns_;
  TrafficCounters start_;
};

/// Opt-in (TraceOptions::sched_events) physical scheduling span for one
/// worker chunk; exempt from the bit-identity guarantee since chunk shape
/// depends on thread count. Emits on track kSchedTrackBase - chunk_index
/// with [begin, end) query-range args.
class SchedSpan {
 public:
  SchedSpan(int64_t chunk_index, int64_t begin, int64_t end);
  ~SchedSpan();

  SchedSpan(const SchedSpan&) = delete;
  SchedSpan& operator=(const SchedSpan&) = delete;

 private:
  Obs* obs_;
  int64_t chunk_index_;
  int64_t begin_;
  int64_t end_;
  TrafficCounters start_;
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_OBS_H_
