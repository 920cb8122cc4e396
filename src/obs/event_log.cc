#include "obs/event_log.h"

#include "obs/json.h"
#include "util/random.h"

namespace pimine {
namespace obs {
EventLog::EventLog(const EventLogOptions& options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

bool EventLog::Sampled(uint64_t seed, uint64_t query_id, double rate) {
  if (rate >= 1.0) return true;
  if (!(rate > 0.0)) return false;  // also rejects NaN.
  // Threshold in the full 64-bit hash range: keep iff hash < rate * 2^64.
  // rate < 1 keeps the product below 2^64, so the cast is exact enough for
  // a sampling knob and, critically, deterministic.
  const uint64_t threshold =
      static_cast<uint64_t>(rate * 18446744073709551616.0 /* 2^64 */);
  return Mix64(seed ^ (query_id * 0xd1342543de82ef95ULL)) < threshold;
}

void EventLog::Append(const QueryEvent& event) {
  if (!WouldSample(event.query_id)) return;
  AppendAlways(event);
}

void EventLog::AppendAlways(const QueryEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++sampled_total_;
  events_.push_back(event);
  while (events_.size() > options_.capacity) {
    events_.pop_front();
    ++dropped_;
  }
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t EventLog::sampled_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_total_;
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void EventLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  sampled_total_ = 0;
  dropped_ = 0;
}

std::string EventLog::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 160);
  // ", \"key\": value": every field after a record's first.
  const auto field = [&out](const char* key, const std::string& value) {
    out.append(", \"").append(key).append("\": ").append(value);
  };
  for (const QueryEvent& e : events_) {
    if (e.kind == QueryEvent::Kind::kFailover) {
      // Recovery record: own shape, keyed by the dispatch it fired in.
      // Query lines below keep their exact pre-failover byte layout.
      out.append("{\"kind\": \"failover\", \"batch_id\": ")
          .append(std::to_string(e.batch_id));
      field("dispatch_ns", std::to_string(e.dispatch_ns));
      field("shard", std::to_string(e.shard));
      field("replica", std::to_string(e.replica));
      field("failed_attempts", std::to_string(e.failed_attempts));
      field("shed", e.shed ? "true" : "false");
      field("backoff_ns", std::to_string(e.backoff_ns));
    } else {
      out.append("{\"query_id\": ").append(std::to_string(e.query_id));
      field("tenant", std::to_string(e.tenant));
      field("arrival_ns", std::to_string(e.arrival_ns));
      field("dispatch_ns", std::to_string(e.dispatch_ns));
      field("completion_ns", std::to_string(e.completion_ns));
      field("batch_id", std::to_string(e.batch_id));
      field("wait_ns", std::to_string(e.dispatch_ns >= e.arrival_ns
                                          ? e.dispatch_ns - e.arrival_ns
                                          : 0));
      field("latency_ns", std::to_string(e.completion_ns >= e.arrival_ns
                                             ? e.completion_ns - e.arrival_ns
                                             : 0));
      field("deadline_missed", e.deadline_missed ? "true" : "false");
    }
    out.append(", \"status\": \"");
    AppendJsonEscaped(&out, e.status);
    out.append("\"}\n");
  }
  return out;
}

}  // namespace obs
}  // namespace pimine
