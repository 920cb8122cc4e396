#ifndef PIMINE_OBS_TRACE_H_
#define PIMINE_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace pimine {
namespace obs {

/// Well-known track ids. Per-query spans use the (non-negative) query index
/// as their track; run-level spans (k-means iterations, offline phases) use
/// kRunTrack; opt-in scheduling spans use kSchedTrackBase - slot.
constexpr int64_t kRunTrack = -1;
/// Opt-in physical device-op spans (TraceOptions::device_events).
constexpr int64_t kDeviceTrack = -2;
constexpr int64_t kSchedTrackBase = -1000;

/// One begin/end/complete record in a per-thread buffer. `cat` and `name`
/// must be string literals (the recorder stores the pointers, not copies).
struct TraceEvent {
  char phase = 'X';  // 'B' (begin), 'E' (end), or 'X' (complete).
  const char* cat = nullptr;
  const char* name = nullptr;
  int64_t track = kRunTrack;
  /// Span duration in the deterministic modeled-time domain ('E'/'X' only).
  double modeled_ns = 0.0;
  /// Optional secondary wall-clock stamp (ns since recorder creation);
  /// negative when wall capture is off. Wall stamps are *not* deterministic
  /// and are only recorded when TraceOptions::wall_clock is set.
  double wall_ns = -1.0;
  // Up to two integer args, exported under args{} in the chrome JSON.
  const char* arg_name0 = nullptr;
  int64_t arg0 = 0;
  const char* arg_name1 = nullptr;
  int64_t arg1 = 0;
};

/// Recording options. The defaults keep the trace bit-reproducible across
/// thread counts and device-batch sizes: only serial-equivalent spans in
/// the modeled-time domain are recorded. The opt-in knobs add *physical*
/// structure (wall stamps, actual device batches, worker scheduling) whose
/// shape legitimately depends on the execution configuration.
struct TraceOptions {
  bool wall_clock = false;   // secondary wall_ns field on every event.
  bool device_events = false;  // physical PimDevice op spans (per batch).
  bool sched_events = false;   // thread-pool worker chunk spans.
};

/// Span recorder with per-thread buffers: each thread appends to its own
/// buffer without synchronization (registration takes the registry mutex
/// once per thread per recorder). Export requires external quiescence —
/// call ToChromeJson() only after all instrumented work has drained (the
/// ParallelChunks handshake provides the happens-before edge).
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceOptions& options);

  void Begin(const char* cat, const char* name, int64_t track);
  void End(const char* cat, const char* name, int64_t track,
           double modeled_ns, const char* arg_name0 = nullptr,
           int64_t arg0 = 0, const char* arg_name1 = nullptr,
           int64_t arg1 = 0);
  void Complete(const char* cat, const char* name, int64_t track,
                double modeled_ns, const char* arg_name0 = nullptr,
                int64_t arg0 = 0, const char* arg_name1 = nullptr,
                int64_t arg1 = 0);

  /// Spans opened but not yet closed, summed over all thread buffers (the
  /// balance invariant: 0 whenever no span is in flight).
  int64_t OpenSpans() const;
  /// Total events recorded across all thread buffers.
  size_t NumEvents() const;

  /// chrome://tracing JSON (trace-event format). Timestamps are assembled
  /// deterministically from the modeled-ns durations: events are grouped by
  /// track, tracks sorted ascending, and each track's timeline replayed
  /// from 0 with children nested inside their parent span. Byte-identical
  /// output for identical recorded spans, independent of which thread
  /// recorded what.
  std::string ToChromeJson() const;

  const TraceOptions& options() const { return options_; }

 private:
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
    int64_t open = 0;
  };

  ThreadBuffer& LocalBuffer();
  /// Stamps the wall clock when TraceOptions::wall_clock is set.
  void Emit(TraceEvent event);

  TraceOptions options_;
  uint64_t generation_;
  Timer wall_;
  mutable std::mutex mu_;  // guards buffers_ registration; not the hot path.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_TRACE_H_
