#include "obs/obs.h"

#include <memory>
#include <mutex>

namespace pimine {
namespace obs {
namespace {

/// Owns the enabled session. Guarded by g_lifecycle_mu; the published
/// pointer in Obs::instance_ is what the fast path reads.
std::mutex g_lifecycle_mu;
std::unique_ptr<Obs> g_storage;  // NOLINT: intentional process-lifetime state.

thread_local int64_t tls_track_base = kNoTrackBase;
thread_local std::span<const int64_t> tls_track_ids;

}  // namespace

std::atomic<Obs*> Obs::instance_{nullptr};

Obs::Obs(const ObsOptions& options) : trace_(options.trace) {}

void Obs::Enable(const ObsOptions& options) {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  instance_.store(nullptr, std::memory_order_release);
  g_storage.reset(new Obs(options));
  instance_.store(g_storage.get(), std::memory_order_release);
}

void Obs::Disable() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  instance_.store(nullptr, std::memory_order_release);
  g_storage.reset();
}

int64_t CurrentTrackBase() { return tls_track_base; }

ScopedTrackBase::ScopedTrackBase(int64_t base)
    : prev_base_(tls_track_base), prev_ids_(tls_track_ids) {
  tls_track_base = base;
  tls_track_ids = {};
}

ScopedTrackBase::ScopedTrackBase(std::span<const int64_t> ids)
    : prev_base_(tls_track_base), prev_ids_(tls_track_ids) {
  tls_track_base = kNoTrackBase;
  tls_track_ids = ids;
}

ScopedTrackBase::~ScopedTrackBase() {
  tls_track_base = prev_base_;
  tls_track_ids = prev_ids_;
}

int64_t TrackFor(int64_t index) {
  if (!tls_track_ids.empty()) {
    return tls_track_ids[static_cast<size_t>(index)];
  }
  return tls_track_base == kNoTrackBase ? kRunTrack : tls_track_base + index;
}

ModeledSpan::ModeledSpan(int64_t query_id, Histogram* latency,
                         double extra_ns)
    : ModeledSpan("query", "query", query_id, "query_id", latency, extra_ns) {}

ModeledSpan::ModeledSpan(const char* cat, const char* name,
                         Histogram* latency)
    : ModeledSpan(cat, name, kRunTrack, nullptr, latency, 0.0) {}

ModeledSpan::ModeledSpan(const char* cat, const char* name, int64_t track,
                         const char* track_arg, Histogram* latency,
                         double extra_ns)
    : obs_(Obs::Get()),
      cat_(cat),
      name_(name),
      track_(track),
      track_arg_(track_arg),
      latency_(latency),
      extra_ns_(extra_ns) {
  if (obs_ == nullptr) return;
  start_ = traffic::Local().traffic;
  obs_->trace().Begin(cat_, name_, track_);
}

ModeledSpan::~ModeledSpan() {
  if (obs_ == nullptr) return;
  const TrafficCounters delta = traffic::Local().traffic - start_;
  const double ns = obs_->HostNs(delta) + extra_ns_;
  obs_->trace().End(cat_, name_, track_, ns, track_arg_, track_);
  if (latency_ != nullptr) latency_->Record(ns);
}

SchedSpan::SchedSpan(int64_t chunk_index, int64_t begin, int64_t end)
    : obs_(Obs::Get()), chunk_index_(chunk_index), begin_(begin), end_(end) {
  if (obs_ != nullptr && !obs_->trace().options().sched_events) obs_ = nullptr;
  if (obs_ == nullptr) return;
  start_ = traffic::Local().traffic;
  obs_->trace().Begin("sched", "chunk", kSchedTrackBase - chunk_index_);
}

SchedSpan::~SchedSpan() {
  if (obs_ == nullptr) return;
  const TrafficCounters delta = traffic::Local().traffic - start_;
  obs_->trace().End("sched", "chunk", kSchedTrackBase - chunk_index_,
                    obs_->HostNs(delta), "begin", begin_, "end", end_);
}

}  // namespace obs
}  // namespace pimine
