#include "obs/event_log.h"

#include "util/random.h"

namespace pimine {
namespace obs {
namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');  // control characters never survive a JSONL line.
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

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
  for (const QueryEvent& e : events_) {
    if (e.kind == QueryEvent::Kind::kFailover) {
      // Recovery record: own shape, keyed by the dispatch it fired in.
      // Query lines below keep their exact pre-failover byte layout.
      out.append("{\"kind\": \"failover\", \"batch_id\": ")
          .append(std::to_string(e.batch_id));
      out.append(", \"dispatch_ns\": ").append(std::to_string(e.dispatch_ns));
      out.append(", \"shard\": ").append(std::to_string(e.shard));
      out.append(", \"replica\": ").append(std::to_string(e.replica));
      out.append(", \"failed_attempts\": ")
          .append(std::to_string(e.failed_attempts));
      out.append(", \"shed\": ").append(e.shed ? "true" : "false");
      out.append(", \"backoff_ns\": ").append(std::to_string(e.backoff_ns));
      out.append(", \"status\": \"");
      AppendEscaped(&out, e.status);
      out.append("\"}\n");
      continue;
    }
    out.append("{\"query_id\": ").append(std::to_string(e.query_id));
    out.append(", \"tenant\": ").append(std::to_string(e.tenant));
    out.append(", \"arrival_ns\": ").append(std::to_string(e.arrival_ns));
    out.append(", \"dispatch_ns\": ").append(std::to_string(e.dispatch_ns));
    out.append(", \"completion_ns\": ")
        .append(std::to_string(e.completion_ns));
    out.append(", \"batch_id\": ").append(std::to_string(e.batch_id));
    out.append(", \"wait_ns\": ")
        .append(std::to_string(e.dispatch_ns >= e.arrival_ns
                                   ? e.dispatch_ns - e.arrival_ns
                                   : 0));
    out.append(", \"latency_ns\": ")
        .append(std::to_string(e.completion_ns >= e.arrival_ns
                                   ? e.completion_ns - e.arrival_ns
                                   : 0));
    out.append(", \"deadline_missed\": ")
        .append(e.deadline_missed ? "true" : "false");
    out.append(", \"status\": \"");
    AppendEscaped(&out, e.status);
    out.append("\"}\n");
  }
  return out;
}

}  // namespace obs
}  // namespace pimine
