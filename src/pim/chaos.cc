#include "pim/chaos.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/random.h"

namespace pimine {
namespace {

/// One seeded draw of the schedule generator: a pure hash of the event's
/// coordinates (kind, index, field), so the schedule is a function of the
/// config alone.
uint64_t Draw(uint64_t seed, uint64_t kind, uint64_t index, uint64_t field) {
  return Mix64(seed ^ Mix64(kind ^ Mix64(index ^ Mix64(field))));
}

bool WindowCovers(const ChaosEvent& e, uint64_t now_ns) {
  if (now_ns < e.at_ns) return false;
  return e.until_ns == ChaosSchedule::kNoRecovery || now_ns < e.until_ns;
}

}  // namespace

std::string_view ChaosEventKindName(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kDeviceDeath:
      return "device_death";
    case ChaosEventKind::kTransientStall:
      return "transient_stall";
    case ChaosEventKind::kLinkFault:
      return "link_fault";
  }
  return "?";
}

Status ChaosConfig::Validate() const {
  if (device_deaths < 0 || stalls < 0 || link_faults < 0) {
    return Status::InvalidArgument("chaos event counts must be >= 0");
  }
  if (enabled() && horizon_ns == 0) {
    return Status::InvalidArgument(
        "ChaosConfig::horizon_ns must be > 0 when events are scheduled");
  }
  if (stalls > 0 && stall_ns == 0) {
    return Status::InvalidArgument(
        "ChaosConfig::stall_ns must be > 0 when stalls are scheduled");
  }
  if (link_faults > 0 && link_fault_ns == 0) {
    return Status::InvalidArgument(
        "ChaosConfig::link_fault_ns must be > 0 when link faults are "
        "scheduled");
  }
  return Status::OK();
}

Result<ChaosSchedule> ChaosSchedule::Generate(const ChaosConfig& config,
                                              uint32_t shards,
                                              uint32_t replicas) {
  PIMINE_RETURN_IF_ERROR(config.Validate());
  if (shards == 0 || replicas == 0) {
    return Status::InvalidArgument(
        "chaos schedules need shards >= 1 and replicas >= 1");
  }
  std::vector<ChaosEvent> events;
  events.reserve(static_cast<size_t>(config.device_deaths) + config.stalls +
                 config.link_faults);
  const auto draw_events = [&](ChaosEventKind kind, int count,
                               uint64_t window_ns) {
    const uint64_t tag = static_cast<uint64_t>(kind) + 1;
    for (int i = 0; i < count; ++i) {
      ChaosEvent e;
      e.kind = kind;
      e.at_ns = Draw(config.seed, tag, i, 0) % config.horizon_ns;
      e.shard = static_cast<uint32_t>(Draw(config.seed, tag, i, 1) % shards);
      e.replica =
          kind == ChaosEventKind::kLinkFault
              ? 0
              : static_cast<uint32_t>(Draw(config.seed, tag, i, 2) % replicas);
      e.until_ns = kind == ChaosEventKind::kDeviceDeath
                       ? kNoRecovery
                       : e.at_ns + window_ns;
      events.push_back(e);
    }
  };
  draw_events(ChaosEventKind::kDeviceDeath, config.device_deaths, 0);
  draw_events(ChaosEventKind::kTransientStall, config.stalls, config.stall_ns);
  draw_events(ChaosEventKind::kLinkFault, config.link_faults,
              config.link_fault_ns);
  return FromEvents(std::move(events), shards, replicas);
}

ChaosSchedule ChaosSchedule::FromEvents(std::vector<ChaosEvent> events,
                                        uint32_t shards, uint32_t replicas) {
  ChaosSchedule schedule;
  schedule.shards_ = shards == 0 ? 1 : shards;
  schedule.replicas_ = replicas == 0 ? 1 : replicas;
  std::sort(events.begin(), events.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) {
              return std::tie(a.at_ns, a.kind, a.shard, a.replica, a.until_ns) <
                     std::tie(b.at_ns, b.kind, b.shard, b.replica, b.until_ns);
            });
  schedule.events_ = std::move(events);
  return schedule;
}

bool ChaosSchedule::ReplicaDown(uint32_t shard, uint32_t replica,
                                uint64_t now_ns) const {
  for (const ChaosEvent& e : events_) {
    if (e.shard != shard || !WindowCovers(e, now_ns)) continue;
    if (e.kind == ChaosEventKind::kLinkFault) return true;
    if (e.replica == replica) return true;
  }
  return false;
}

bool ChaosSchedule::LinkDown(uint32_t shard, uint64_t now_ns) const {
  for (const ChaosEvent& e : events_) {
    if (e.kind == ChaosEventKind::kLinkFault && e.shard == shard &&
        WindowCovers(e, now_ns)) {
      return true;
    }
  }
  return false;
}

uint32_t ChaosSchedule::HealthyReplicas(uint32_t shard,
                                        uint64_t now_ns) const {
  if (LinkDown(shard, now_ns)) return 0;
  uint32_t healthy = 0;
  for (uint32_t r = 0; r < replicas_; ++r) {
    if (!ReplicaDown(shard, r, now_ns)) ++healthy;
  }
  return healthy;
}

std::string ChaosSchedule::ToString() const {
  std::ostringstream os;
  os << "chaos schedule over " << shards_ << "x" << replicas_ << " fleet, "
     << events_.size() << " event(s)";
  for (const ChaosEvent& e : events_) {
    os << "\n  " << ChaosEventKindName(e.kind) << " shard=" << e.shard;
    if (e.kind != ChaosEventKind::kLinkFault) os << " replica=" << e.replica;
    os << " at=" << e.at_ns << "ns";
    if (e.until_ns != kNoRecovery) os << " until=" << e.until_ns << "ns";
  }
  return os.str();
}

uint64_t FailoverBackoffNs(uint64_t base_ns, uint64_t jitter_ns, uint64_t seed,
                           uint64_t token, int attempt) {
  if (attempt < 1) attempt = 1;
  // Cap the exponent: past 2^32 the wait dwarfs any deadline anyway and an
  // unbounded shift would be UB.
  const int exponent = attempt - 1 > 32 ? 32 : attempt - 1;
  uint64_t wait = base_ns << exponent;
  if (jitter_ns > 0) {
    wait += Draw(seed, 0xBACC0FFull, token, static_cast<uint64_t>(attempt)) %
            (jitter_ns + 1);
  }
  return wait;
}

}  // namespace pimine
