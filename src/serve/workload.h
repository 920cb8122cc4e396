#ifndef PIMINE_SERVE_WORKLOAD_H_
#define PIMINE_SERVE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace pimine {
namespace serve {

/// One recorded client submission: at `arrival_ns` (virtual time), tenant
/// `tenant` submitted query row `query_row` of the replay's query matrix.
struct ArrivalEvent {
  uint64_t arrival_ns = 0;
  uint32_t tenant = 0;
  uint32_t query_row = 0;
};

/// A recorded query stream, the input of PimServer::Replay. Events must be
/// sorted by arrival (ties keep recorded order — the admission order). The
/// trace plus the ServeOptions knobs fully determine batch composition,
/// which is what makes serving results replayable bit-for-bit.
struct ArrivalTrace {
  std::vector<ArrivalEvent> events;
};

/// Parameters of the synthetic open-loop workload generator.
struct WorkloadSpec {
  size_t num_requests = 256;
  /// Offered load: mean arrival rate in queries per second of virtual time
  /// (Poisson process — exponential inter-arrival gaps).
  double offered_qps = 1e6;
  /// Relative traffic share per tenant (independent of the fairness
  /// weights; a tenant can offer more traffic than its fair share, which is
  /// exactly the skew the weighted scheduler absorbs). Empty = one tenant.
  std::vector<double> tenant_share;
  /// Query rows are drawn uniformly from [0, num_query_rows).
  uint32_t num_query_rows = 1;
  uint64_t seed = 42;
};

/// Deterministic Poisson query stream: exponential inter-arrival times at
/// `offered_qps`, tenants drawn by `tenant_share`, query rows uniform — all
/// from one seeded Rng, so a (spec) pair names one exact trace forever.
/// Fails on zero requests/rate/shares.
Result<ArrivalTrace> GeneratePoissonTrace(const WorkloadSpec& spec);

/// The degenerate offline trace: every query of every tenant arrives at
/// virtual time 0 (round-robin over tenants, query rows cycling). With
/// max_wait = 0 this makes the scheduler reproduce exactly the device
/// batches of the offline KnnSearchBase::Search — the equivalence the tests
/// pin.
ArrivalTrace AllAtZeroTrace(size_t num_requests, uint32_t num_tenants,
                            uint32_t num_query_rows);

}  // namespace serve
}  // namespace pimine

#endif  // PIMINE_SERVE_WORKLOAD_H_
