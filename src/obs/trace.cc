#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "common/logging.h"
#include "obs/json.h"

namespace pimine {
namespace obs {
namespace {

/// Each recorder gets a unique generation so thread-local buffer caches
/// from a previous (destroyed) recorder can never be dereferenced.
std::atomic<uint64_t> g_recorder_generation{0};

struct TlsBufferCache {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local TlsBufferCache tls_cache;

/// Fixed-precision microsecond formatting (chrome ts/dur unit): %.6f keeps
/// sub-nanosecond resolution and is byte-deterministic for equal doubles.
void AppendMicros(std::string* out, double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", ns / 1000.0);
  out->append(buf);
}

}  // namespace

TraceRecorder::TraceRecorder(const TraceOptions& options)
    : options_(options),
      generation_(g_recorder_generation.fetch_add(1) + 1) {}

TraceRecorder::ThreadBuffer& TraceRecorder::LocalBuffer() {
  if (tls_cache.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    tls_cache.generation = generation_;
    tls_cache.buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tls_cache.buffer);
}

void TraceRecorder::Emit(TraceEvent event) {
  if (options_.wall_clock) {
    event.wall_ns = static_cast<double>(wall_.ElapsedNanos());
  }
  ThreadBuffer& buffer = LocalBuffer();
  buffer.events.push_back(event);
  if (event.phase == 'B') ++buffer.open;
  if (event.phase == 'E') --buffer.open;
}

void TraceRecorder::Begin(const char* cat, const char* name, int64_t track) {
  Emit({.phase = 'B', .cat = cat, .name = name, .track = track});
}

void TraceRecorder::End(const char* cat, const char* name, int64_t track,
                        double modeled_ns, const char* arg_name0,
                        int64_t arg0, const char* arg_name1, int64_t arg1) {
  Emit({.phase = 'E', .cat = cat, .name = name, .track = track,
        .modeled_ns = modeled_ns, .arg_name0 = arg_name0, .arg0 = arg0,
        .arg_name1 = arg_name1, .arg1 = arg1});
}

void TraceRecorder::Complete(const char* cat, const char* name, int64_t track,
                             double modeled_ns, const char* arg_name0,
                             int64_t arg0, const char* arg_name1,
                             int64_t arg1) {
  Emit({.phase = 'X', .cat = cat, .name = name, .track = track,
        .modeled_ns = modeled_ns, .arg_name0 = arg_name0, .arg0 = arg0,
        .arg_name1 = arg_name1, .arg1 = arg1});
}

int64_t TraceRecorder::OpenSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t open = 0;
  for (const auto& buffer : buffers_) open += buffer->open;
  return open;
}

size_t TraceRecorder::NumEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

std::string TraceRecorder::ToChromeJson() const {
  // Group events by track, preserving per-buffer (= per-thread program)
  // order. A track is recorded by one thread at a time by construction
  // (queries are never split across workers; run-level spans come from the
  // coordinating thread), so this grouping reconstructs each track's true
  // event sequence independent of how work was spread over threads.
  std::map<int64_t, std::vector<const TraceEvent*>> tracks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const TraceEvent& e : buffer->events) {
        tracks[e.track].push_back(&e);
      }
    }
  }

  std::string out;
  out.reserve(1024);
  out.append("{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": "
             "{\"generator\": \"pimine\", \"clock_domain\": "
             "\"modeled-ns\"},\n\"traceEvents\": [\n");

  bool first = true;
  auto append_event = [&](const TraceEvent& e, double ts_ns, double dur_ns) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"ph\":\"X\",\"pid\":0,\"tid\":");
    out.append(std::to_string(e.track));
    out.append(",\"cat\":\"");
    AppendJsonEscaped(&out, e.cat);
    out.append("\",\"name\":\"");
    AppendJsonEscaped(&out, e.name);
    out.append("\",\"ts\":");
    AppendMicros(&out, ts_ns);
    out.append(",\"dur\":");
    AppendMicros(&out, dur_ns);
    bool any_arg = e.arg_name0 != nullptr || e.arg_name1 != nullptr ||
                   e.wall_ns >= 0.0;
    if (any_arg) {
      out.append(",\"args\":{");
      bool first_arg = true;
      auto int_arg = [&](const char* k, int64_t v) {
        if (!first_arg) out.push_back(',');
        first_arg = false;
        out.push_back('"');
        AppendJsonEscaped(&out, k);
        out.append("\":");
        out.append(std::to_string(v));
      };
      if (e.arg_name0 != nullptr) int_arg(e.arg_name0, e.arg0);
      if (e.arg_name1 != nullptr) int_arg(e.arg_name1, e.arg1);
      if (e.wall_ns >= 0.0) {
        if (!first_arg) out.push_back(',');
        out.append("\"wall_ns\":");
        out.append(std::to_string(static_cast<int64_t>(e.wall_ns)));
      }
      out.push_back('}');
    }
    out.push_back('}');
  };

  // Replay each track's timeline: top-level spans are laid back-to-back
  // from 0; children start at their parent's start plus the durations of
  // completed earlier siblings. Durations come straight from the recorded
  // modeled-ns values, so the layout (and the bytes) depend only on the
  // span sequence, never on wall time or thread interleaving.
  struct Frame {
    const TraceEvent* begin;
    double start_ns;
    double child_ns;
  };
  for (const auto& [track, events] : tracks) {
    double clock_ns = 0.0;
    std::vector<Frame> stack;
    auto place = [&](double dur) {
      double start;
      if (stack.empty()) {
        start = clock_ns;
        clock_ns += dur;
      } else {
        start = stack.back().start_ns + stack.back().child_ns;
        stack.back().child_ns += dur;
      }
      return start;
    };
    for (const TraceEvent* e : events) {
      switch (e->phase) {
        case 'B': {
          const double start = stack.empty()
                                   ? clock_ns
                                   : stack.back().start_ns +
                                         stack.back().child_ns;
          stack.push_back(Frame{e, start, 0.0});
          break;
        }
        case 'E': {
          if (stack.empty()) break;  // unbalanced; tolerated in export.
          const Frame frame = stack.back();
          stack.pop_back();
          append_event(*e, frame.start_ns, e->modeled_ns);
          if (stack.empty()) {
            clock_ns = frame.start_ns + e->modeled_ns;
          } else {
            stack.back().child_ns += e->modeled_ns;
          }
          break;
        }
        case 'X':
          append_event(*e, place(e->modeled_ns), e->modeled_ns);
          break;
        default:
          break;
      }
    }
  }

  out.append("\n]\n}\n");
  return out;
}

}  // namespace obs
}  // namespace pimine
