// Replica-shard fault tolerance (DESIGN.md section 12): the deterministic
// chaos harness, the device-to-device failover ladder, and the serve-path
// degraded mode. The locked invariants: chaos off is bit-identical to the
// pre-replica engine; chaos on keeps results exact (host-escalated or
// exact-after-refine in slack mode) for every replicas x scheduler_threads
// combination; and FailoverStats always balances
// (injected == recovered + shed).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "pim/chaos.h"
#include "pim/fleet.h"
#include "serve/serve_options.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

ChaosEvent Death(uint32_t shard, uint32_t replica, uint64_t at_ns = 0) {
  ChaosEvent e;
  e.at_ns = at_ns;
  e.until_ns = ChaosSchedule::kNoRecovery;
  e.kind = ChaosEventKind::kDeviceDeath;
  e.shard = shard;
  e.replica = replica;
  return e;
}

ChaosEvent Stall(uint32_t shard, uint32_t replica, uint64_t at_ns,
                 uint64_t until_ns) {
  ChaosEvent e;
  e.at_ns = at_ns;
  e.until_ns = until_ns;
  e.kind = ChaosEventKind::kTransientStall;
  e.shard = shard;
  e.replica = replica;
  return e;
}

// --- Chaos harness ------------------------------------------------------

// The seeded generator is a pure function of (config, geometry): two draws
// are identical event for event, and every liveness query is a pure
// function of the queried instant.
TEST(ChaosScheduleTest, GenerateIsDeterministicAndPure) {
  ChaosConfig config;
  config.device_deaths = 3;
  config.stalls = 2;
  config.link_faults = 1;
  config.horizon_ns = 50'000;
  config.seed = 77;

  auto a = ChaosSchedule::Generate(config, 4, 2);
  auto b = ChaosSchedule::Generate(config, 4, 2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->events().size(), b->events().size());
  ASSERT_EQ(a->events().size(), 6u);
  for (size_t i = 0; i < a->events().size(); ++i) {
    EXPECT_EQ(a->events()[i].at_ns, b->events()[i].at_ns) << i;
    EXPECT_EQ(a->events()[i].until_ns, b->events()[i].until_ns) << i;
    EXPECT_EQ(a->events()[i].kind, b->events()[i].kind) << i;
    EXPECT_EQ(a->events()[i].shard, b->events()[i].shard) << i;
    EXPECT_EQ(a->events()[i].replica, b->events()[i].replica) << i;
    EXPECT_LT(a->events()[i].at_ns, config.horizon_ns) << i;
  }
  // Purity: asking twice, in any order, observes the same fleet.
  for (uint64_t t : {0ull, 10'000ull, 49'999ull, 100'000ull}) {
    for (uint32_t j = 0; j < 4; ++j) {
      EXPECT_EQ(a->LinkDown(j, t), b->LinkDown(j, t));
      EXPECT_EQ(a->HealthyReplicas(j, t), b->HealthyReplicas(j, t));
      for (uint32_t r = 0; r < 2; ++r) {
        EXPECT_EQ(a->ReplicaDown(j, r, t), a->ReplicaDown(j, r, t));
      }
    }
  }

  // A different seed draws a different schedule.
  ChaosConfig other = config;
  other.seed = 78;
  auto c = ChaosSchedule::Generate(other, 4, 2);
  ASSERT_TRUE(c.ok());
  bool any_diff = false;
  for (size_t i = 0; i < c->events().size(); ++i) {
    any_diff = any_diff || c->events()[i].at_ns != a->events()[i].at_ns ||
               c->events()[i].shard != a->events()[i].shard;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosScheduleTest, EventWindowSemantics) {
  const auto schedule = ChaosSchedule::FromEvents(
      {Death(0, 1, 100), Stall(1, 0, 200, 300),
       ChaosEvent{400, 500, ChaosEventKind::kLinkFault, 2, 0}},
      /*shards=*/3, /*replicas=*/2);
  ASSERT_TRUE(schedule.enabled());

  // A death never recovers.
  EXPECT_FALSE(schedule.ReplicaDown(0, 1, 99));
  EXPECT_TRUE(schedule.ReplicaDown(0, 1, 100));
  EXPECT_TRUE(schedule.ReplicaDown(0, 1, 1'000'000'000ull));
  EXPECT_EQ(schedule.HealthyReplicas(0, 99), 2u);
  EXPECT_EQ(schedule.HealthyReplicas(0, 100), 1u);

  // A stall is a half-open window.
  EXPECT_FALSE(schedule.ReplicaDown(1, 0, 199));
  EXPECT_TRUE(schedule.ReplicaDown(1, 0, 200));
  EXPECT_TRUE(schedule.ReplicaDown(1, 0, 299));
  EXPECT_FALSE(schedule.ReplicaDown(1, 0, 300));

  // A link fault drops every replica of the shard for its window.
  EXPECT_FALSE(schedule.LinkDown(2, 399));
  EXPECT_TRUE(schedule.LinkDown(2, 450));
  EXPECT_FALSE(schedule.LinkDown(2, 500));
  EXPECT_EQ(schedule.HealthyReplicas(2, 450), 0u);
  EXPECT_TRUE(schedule.ReplicaDown(2, 0, 450));
  EXPECT_TRUE(schedule.ReplicaDown(2, 1, 450));
}

TEST(ChaosScheduleTest, BackoffIsSeededExponentialWithBoundedJitter) {
  const uint64_t base = 2000, jitter = 1000, seed = 0xBAC0FFull;
  for (uint64_t token : {1ull, 42ull, 0xDEADBEEFull}) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const uint64_t w =
          FailoverBackoffNs(base, jitter, seed, token, attempt);
      EXPECT_EQ(w, FailoverBackoffNs(base, jitter, seed, token, attempt));
      const uint64_t floor = base << (attempt - 1);
      EXPECT_GE(w, floor) << "token=" << token << " attempt=" << attempt;
      EXPECT_LE(w, floor + jitter);
    }
  }
  // The jitter actually varies with the token (it is a hash, not a rng).
  EXPECT_NE(FailoverBackoffNs(base, jitter, seed, 1, 1),
            FailoverBackoffNs(base, jitter, seed, 2, 1));
}

// --- Engine failover ladder ---------------------------------------------

/// A shard's shed ops (the ladder's charges) and its off-device queries
/// (the dispatch's own counter) are counted apart: every shed op serves at
/// least one query off-device, and no query leaves the device unless an op
/// sheds.
void ExpectShedOpsServeOffDevice(const ShardedPimEngine& fleet,
                                 const std::string& label) {
  for (size_t j = 0; j < fleet.shards(); ++j) {
    const ShardedPimEngine::ShardHealth h = fleet.ShardHealthSnapshot(j);
    EXPECT_GE(h.failed_over_queries, h.failover.shed)
        << label << " shard " << j;
    EXPECT_EQ(h.failed_over_queries == 0, h.failover.shed == 0)
        << label << " shard " << j;
  }
}

struct FailoverFixture {
  FloatMatrix data;
  FloatMatrix queries;
  std::unique_ptr<ShardedPimEngine> clean;
  ShardedPimEngine::QueryHandleBatch reference;

  explicit FailoverFixture(int clean_replicas = 1)
      : data(RandomUnitMatrix(103, 24, 5)),
        queries(RandomUnitMatrix(4, 24, 6)) {
    EngineOptions options;
    options.shard.shards = 3;
    options.shard.replicas = clean_replicas;
    auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    PIMINE_CHECK(built.ok()) << built.status().ToString();
    clean = std::move(built).value();
    auto run = clean->RunQueryBatch(Span(), queries.rows());
    PIMINE_CHECK(run.ok()) << run.status().ToString();
    reference = *std::move(run);
  }

  std::span<const float> Span() const {
    return std::span<const float>(queries.data(),
                                  queries.rows() * queries.cols());
  }

  Result<std::unique_ptr<ShardedPimEngine>> BuildFleet(
      int replicas, int max_strikes = 3) const {
    EngineOptions options;
    options.shard.shards = 3;
    options.shard.replicas = replicas;
    options.shard.max_strikes = max_strikes;
    return ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  }

  // Every bound of `run` on `fleet` must equal the clean single-replica
  // fleet's bit for bit.
  void ExpectBoundsIdentical(const ShardedPimEngine& fleet,
                             const ShardedPimEngine::QueryHandleBatch& run,
                             const std::string& label) const {
    for (size_t q = 0; q < queries.rows(); ++q) {
      for (size_t i = 0; i < data.rows(); ++i) {
        ASSERT_EQ(fleet.BoundFor(run, q, i),
                  clean->BoundFor(reference, q, i))
            << label << " q=" << q << " i=" << i;
      }
    }
  }
};

// A dead primary fails over to the next replica: results bit-identical,
// every transition counted, the shard reported degraded.
TEST(FailoverLadderTest, DeadPrimaryRecoversOnReplicaBitIdentical) {
  const FailoverFixture f;
  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto fleet = std::move(built).value();

  const auto schedule =
      ChaosSchedule::FromEvents({Death(1, 0, 5)}, 3, 2);
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "dead primary");

  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.injected, 1u);
  EXPECT_EQ(fo.recovered, 1u);
  EXPECT_EQ(fo.shed, 0u);
  EXPECT_EQ(fo.chaos_denied, 1u);
  EXPECT_EQ(fo.strikes, 1u);
  EXPECT_GT(fo.retry_messages, 0u);
  EXPECT_GT(fo.backoff_ns, 0u);
  EXPECT_TRUE(fo.Balanced());
  EXPECT_EQ(fleet->serving_replica(1), 1);
  EXPECT_EQ(fleet->serving_replica(0), 0);
  EXPECT_TRUE(fleet->shard_degraded(1));
  EXPECT_FALSE(fleet->shard_degraded(0));
  EXPECT_EQ(fleet->DegradedShards(), 1);
  ExpectShedOpsServeOffDevice(*fleet, "dead primary");

  // Before any fault instant the same fleet serves from its primary and
  // records nothing — chaos evaluation is purely by dispatch instant.
  fleet->ResetOnlineStats();
  dispatch.now_ns = 3;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "pre-fault instant");
  EXPECT_FALSE(fleet->FleetStats().failover.Any());
  EXPECT_EQ(fleet->serving_replica(1), 0);
  ExpectShedOpsServeOffDevice(*fleet, "pre-fault instant");
}

// Both replicas dead: the op escalates to host-exact (still bit-identical).
TEST(FailoverLadderTest, AllReplicasDeadEscalatesToHostExact) {
  const FailoverFixture f;
  const auto schedule =
      ChaosSchedule::FromEvents({Death(1, 0), Death(1, 1)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "all replicas dead");
  const FleetRunStats stats = fleet->FleetStats();
  EXPECT_EQ(stats.failover.injected, 1u);
  EXPECT_EQ(stats.failover.recovered, 0u);
  EXPECT_EQ(stats.failover.shed, 1u);
  EXPECT_EQ(stats.failover.slack_fills, 0u);
  EXPECT_TRUE(stats.failover.Balanced());
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(fleet->serving_replica(1), fleet->replicas());
  ExpectShedOpsServeOffDevice(*fleet, "all replicas dead");
}

// replicas == 1 under chaos is exactly the legacy escalation path: no
// strikes, no retries — a denied primary sheds straight to the host.
TEST(FailoverLadderTest, SingleReplicaKeepsLegacyEscalation) {
  const FailoverFixture f;
  const auto schedule = ChaosSchedule::FromEvents({Death(1, 0)}, 3, 1);

  auto built = f.BuildFleet(/*replicas=*/1);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "single replica");
  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.injected, 1u);
  EXPECT_EQ(fo.shed, 1u);
  EXPECT_EQ(fo.recovered, 0u);
  EXPECT_EQ(fo.strikes, 0u);     // No ladder with nothing to fail over to.
  EXPECT_EQ(fo.backoff_ns, 0u);  // No retry transition either.
  EXPECT_TRUE(fo.Balanced());
  ExpectShedOpsServeOffDevice(*fleet, "single replica");
}

// The ladder deadline prices out retries: an op that cannot afford the
// next backoff rung sheds immediately.
TEST(FailoverLadderTest, LadderDeadlineShedsInsteadOfWaiting) {
  const FailoverFixture f;
  const auto schedule = ChaosSchedule::FromEvents({Death(1, 0)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;
  dispatch.now_ns = 10;
  dispatch.deadline_ns = 1;  // Below the smallest possible backoff.
  ASSERT_TRUE(fleet
                  ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                  &handle, dispatch)
                  .ok());
  f.ExpectBoundsIdentical(*fleet, handle, "deadline shed");
  const FailoverStats fo = fleet->FleetStats().failover;
  EXPECT_EQ(fo.shed, 1u);
  EXPECT_EQ(fo.recovered, 0u);
  EXPECT_EQ(fo.backoff_ns, 0u);  // The unaffordable wait is never charged.
  EXPECT_TRUE(fo.Balanced());
  ExpectShedOpsServeOffDevice(*fleet, "deadline shed");
}

// Strike semantics: consecutive failures accumulate, a success resets the
// count, max_strikes strikes a replica out until ResetReplicaHealth
// readmits it.
TEST(FailoverLadderTest, StrikeCountResetAndReadmission) {
  const FailoverFixture f;
  // Replica 0 of shard 1 stalls during [0, 1000) and is healthy after.
  const auto schedule =
      ChaosSchedule::FromEvents({Stall(1, 0, 0, 1000)}, 3, 2);

  auto built = f.BuildFleet(/*replicas=*/2, /*max_strikes=*/3);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();
  fleet->set_chaos(&schedule);

  ShardedPimEngine::QueryScratch scratch;
  ShardedPimEngine::QueryHandleBatch handle;
  ShardedPimEngine::DispatchOptions dispatch;

  const auto run_at = [&](uint64_t t) {
    dispatch.now_ns = t;
    ASSERT_TRUE(fleet
                    ->RunQueryBatch(f.Span(), f.queries.rows(), &scratch,
                                    &handle, dispatch)
                    .ok());
    f.ExpectBoundsIdentical(*fleet, handle, "t=" + std::to_string(t));
  };

  // Two failures inside the stall window: two strikes, not yet out.
  run_at(10);
  run_at(20);
  EXPECT_EQ(fleet->replica_strikes(1, 0), 2);
  EXPECT_FALSE(fleet->replica_out(1, 0));

  // A success after the window resets the count (strikes are consecutive).
  run_at(2000);
  EXPECT_EQ(fleet->replica_strikes(1, 0), 0);
  EXPECT_EQ(fleet->serving_replica(1), 0);

  // Three consecutive failures strike the replica out...
  run_at(10);
  run_at(20);
  run_at(30);
  EXPECT_TRUE(fleet->replica_out(1, 0));
  EXPECT_EQ(fleet->FleetStats().failover.struck_out, 1u);
  EXPECT_TRUE(fleet->shard_degraded(1));
  ExpectShedOpsServeOffDevice(*fleet, "struck out");

  // ...and it stays out even at instants where the schedule says healthy:
  // the ladder skips it (recovering on replica 1) until the operator
  // readmits it.
  fleet->ResetOnlineStats();
  run_at(2000);
  EXPECT_EQ(fleet->serving_replica(1), 1);
  const FailoverStats skipped = fleet->FleetStats().failover;
  EXPECT_EQ(skipped.injected, 1u);
  EXPECT_EQ(skipped.recovered, 1u);
  EXPECT_TRUE(skipped.Balanced());
  ExpectShedOpsServeOffDevice(*fleet, "skipped out");

  fleet->ResetReplicaHealth();
  EXPECT_FALSE(fleet->replica_out(1, 0));
  EXPECT_EQ(fleet->replica_strikes(1, 0), 0);
  run_at(2000);
  EXPECT_EQ(fleet->serving_replica(1), 0);
  EXPECT_FALSE(fleet->shard_degraded(1));
}

// Replication is transparent while no fault fires: replica 0 keeps the
// exact pre-replica build, so a replicas=3 fleet with no chaos installed
// is bit-identical to the replicas=1 fleet — and programming charges scale
// with the copy count.
TEST(FailoverLadderTest, ReplicasAreBitTransparentWithoutFaults) {
  const FailoverFixture f;
  auto built = f.BuildFleet(/*replicas=*/3);
  ASSERT_TRUE(built.ok());
  const auto fleet = std::move(built).value();

  auto run = fleet->RunQueryBatch(f.Span(), f.queries.rows());
  ASSERT_TRUE(run.ok());
  f.ExpectBoundsIdentical(*fleet, *run, "replicas=3 no chaos");
  EXPECT_FALSE(fleet->FleetStats().failover.Any());
  EXPECT_EQ(fleet->PimComputeNs(), f.clean->PimComputeNs());
  // Offline: every copy is programmed (bytes sum over copies), the copies
  // program concurrently (time is the max, not the sum).
  EXPECT_EQ(fleet->OfflineBytesWritten(), 3 * f.clean->OfflineBytesWritten());
  EXPECT_EQ(fleet->OfflineNs(), f.clean->OfflineNs());
}

// --- Serve path ---------------------------------------------------------

constexpr size_t kObjects = 220;
constexpr size_t kDims = 24;
constexpr size_t kQueryRows = 40;

const FloatMatrix& ServeData() {
  static const FloatMatrix* data =
      new FloatMatrix(RandomUnitMatrix(kObjects, kDims, 7));
  return *data;
}

const FloatMatrix& ServeQueries() {
  static const FloatMatrix* queries =
      new FloatMatrix(RandomUnitMatrix(kQueryRows, kDims, 11));
  return *queries;
}

serve::ArrivalTrace ServeTrace() {
  serve::WorkloadSpec spec;
  spec.num_requests = 120;
  spec.offered_qps = 2e6;
  spec.tenant_share = {0.5, 0.5};
  spec.num_query_rows = kQueryRows;
  spec.seed = 99;
  auto trace = serve::GeneratePoissonTrace(spec);
  PIMINE_CHECK(trace.ok()) << trace.status().ToString();
  return *trace;
}

serve::ServeOptions ServeBase(int scheduler_threads) {
  serve::ServeOptions options;
  options.max_batch = 8;
  options.max_wait_ns = 2000;
  options.queue_capacity = 4096;
  options.scheduler_threads = scheduler_threads;
  options.k = 5;
  options.exec.device_batch = 4;
  options.tenants = {{"gold", 4}, {"free", 1}};
  return options;
}

EngineOptions ServeEngine(int replicas) {
  EngineOptions options;
  options.pim_config.num_crossbars = 4096;
  options.shard.shards = 2;
  options.shard.replicas = replicas;
  return options;
}

serve::ReplayOutput MustReplay(serve::PimServer& server,
                               const serve::ArrivalTrace& trace) {
  auto output = server.Replay(trace, ServeQueries());
  PIMINE_CHECK(output.ok()) << output.status().ToString();
  return *std::move(output);
}

// The acceptance matrix: under a seeded device-death schedule, served
// results are bit-identical to the fault-free run for every
// replicas x scheduler_threads combination (exact modes: no degraded
// watermark, so exhaustion escalates host-exact).
TEST(FailoverServeTest, ChaosReplayMatrixBitIdenticalToFaultFree) {
  const serve::ArrivalTrace trace = ServeTrace();

  auto clean_server = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(1), ServeBase(1));
  ASSERT_TRUE(clean_server.ok()) << clean_server.status().ToString();
  const serve::ReplayOutput clean = MustReplay(**clean_server, trace);
  ASSERT_GT(clean.stats.served, 0u);

  bool any_injected = false;
  for (int replicas : {1, 2, 3}) {
    for (int threads : {1, 4}) {
      const std::string label = "replicas=" + std::to_string(replicas) +
                                " threads=" + std::to_string(threads);
      serve::ServeOptions options = ServeBase(threads);
      options.chaos.device_deaths = 3;
      options.chaos.horizon_ns = 50'000;
      options.chaos.seed = 4242;
      auto server = serve::PimServer::Build(
          ServeData(), Distance::kEuclidean, ServeEngine(replicas), options);
      ASSERT_TRUE(server.ok()) << label << ": " << server.status().ToString();
      const serve::ReplayOutput output = MustReplay(**server, trace);

      ASSERT_EQ(output.results.size(), clean.results.size()) << label;
      for (size_t i = 0; i < output.results.size(); ++i) {
        ASSERT_TRUE(output.results[i].status.ok()) << label << " query " << i;
        // Failover backoff shifts dispatch instants, so batch COMPOSITION
        // may legally differ from the fault-free run — neighbours cannot
        // (composition invariance is the engine's core contract).
        ASSERT_EQ(output.results[i].neighbors, clean.results[i].neighbors)
            << label << " query " << i;
      }
      const FailoverStats fo = (*server)->engine().FleetStats().failover;
      EXPECT_TRUE(fo.Balanced()) << label << ": " << fo.ToString();
      ExpectShedOpsServeOffDevice((*server)->engine(), label);
      any_injected = any_injected || fo.injected > 0;
    }
  }
  // The schedule actually disturbed at least one configuration — the
  // matrix is not vacuous.
  EXPECT_TRUE(any_injected);
}

// Chaos off (the default options) leaves the serve path byte-identical:
// same results, healthy healthz, no failover families with nonzero values.
TEST(FailoverServeTest, ChaosOffIsTransparent) {
  const serve::ArrivalTrace trace = ServeTrace();
  auto baseline = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(1), ServeBase(1));
  ASSERT_TRUE(baseline.ok());
  const serve::ReplayOutput a = MustReplay(**baseline, trace);

  auto replicated = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(3), ServeBase(4));
  ASSERT_TRUE(replicated.ok());
  const serve::ReplayOutput b = MustReplay(**replicated, trace);

  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].neighbors, b.results[i].neighbors) << i;
  }
  EXPECT_EQ(a.stats.shed_queries, 0u);
  EXPECT_EQ(b.stats.shed_queries, 0u);
  EXPECT_EQ(b.stats.degraded_batches, 0u);
  EXPECT_FALSE((*replicated)->engine().FleetStats().failover.Any());
  EXPECT_EQ((*replicated)->HealthzBody(), "ok\n");
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
}

// Degraded mode: when a shard sinks below the healthy-replica watermark,
// the scheduler sheds lowest-weight-tenant load with a CapacityExceeded
// naming the degraded shard, serves the rest exactly (bound-slack fills
// refine to exact results), and reports degraded through /healthz and the
// failover metric families.
TEST(FailoverServeTest, DegradedModeShedsLowestWeightTenant) {
  const serve::ArrivalTrace trace = ServeTrace();

  auto clean_server = serve::PimServer::Build(
      ServeData(), Distance::kEuclidean, ServeEngine(2), ServeBase(1));
  ASSERT_TRUE(clean_server.ok());
  const serve::ReplayOutput clean = MustReplay(**clean_server, trace);

  serve::ServeOptions options = ServeBase(1);
  options.chaos.device_deaths = 4;
  options.chaos.horizon_ns = 20'000;  // Early deaths: most of the trace
                                      // runs against the degraded fleet.
  options.chaos.seed = 4242;
  options.degrade_watermark = 0.75;   // One dead replica of two trips it.
  options.event_sample_rate = 1.0;
  auto server = serve::PimServer::Build(ServeData(), Distance::kEuclidean,
                                        ServeEngine(2), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const serve::ReplayOutput output = MustReplay(**server, trace);

  ASSERT_GT(output.stats.shed_queries, 0u);
  EXPECT_GT(output.stats.degraded_batches, 0u);
  ASSERT_EQ(output.results.size(), clean.results.size());
  for (size_t i = 0; i < output.results.size(); ++i) {
    const serve::ServedResult& r = output.results[i];
    if (!r.status.ok()) {
      // Only the lowest-weight tenant is ever shed, with a 503-style
      // message naming the degraded shard.
      EXPECT_EQ(r.status.code(), StatusCode::kCapacityExceeded) << i;
      EXPECT_EQ(r.tenant, 1u) << i;  // "free", weight 1.
      EXPECT_NE(r.status.message().find("degraded: shard"),
                std::string::npos)
          << r.status.ToString();
      EXPECT_NE(r.status.message().find("shedding tenant 'free'"),
                std::string::npos)
          << r.status.ToString();
      continue;
    }
    // Served queries stay exact: batch composition and slack fills cannot
    // change any query's neighbours.
    ASSERT_EQ(r.neighbors, clean.results[i].neighbors) << "query " << i;
  }
  const FailoverStats fo = (*server)->engine().FleetStats().failover;
  EXPECT_TRUE(fo.Balanced()) << fo.ToString();
  ExpectShedOpsServeOffDevice((*server)->engine(), "degraded mode");

  // Degradation is reported, not fatal: /healthz stays an "ok" body with
  // the degraded detail, and the metric families carry the counters.
  const std::string healthz = (*server)->HealthzBody();
  EXPECT_NE(healthz.find("ok degraded"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("shard"), std::string::npos) << healthz;
  const std::string metrics = (*server)->MetricsText();
  EXPECT_NE(metrics.find("pimine_fleet_degraded_shards"), std::string::npos);
  EXPECT_NE(metrics.find("pimine_serve_shed_queries_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("pimine_failover_injected_total"),
            std::string::npos);
  // The sampled event log carries the failover records.
  EXPECT_NE(output.events_jsonl.find("\"kind\": \"failover\""),
            std::string::npos);

  // The degraded replay is itself thread-count invariant (results, shed
  // set and telemetry alike).
  serve::ServeOptions threaded_options = options;
  threaded_options.scheduler_threads = 4;
  auto threaded = serve::PimServer::Build(ServeData(), Distance::kEuclidean,
                                          ServeEngine(2), threaded_options);
  ASSERT_TRUE(threaded.ok());
  const serve::ReplayOutput output4 = MustReplay(**threaded, trace);
  ASSERT_EQ(output4.results.size(), output.results.size());
  for (size_t i = 0; i < output.results.size(); ++i) {
    ASSERT_EQ(output4.results[i].status.ok(), output.results[i].status.ok())
        << i;
    ASSERT_EQ(output4.results[i].neighbors, output.results[i].neighbors)
        << i;
  }
  EXPECT_EQ(output4.stats.shed_queries, output.stats.shed_queries);
  EXPECT_EQ(output4.events_jsonl, output.events_jsonl);
  EXPECT_EQ(output4.timeseries_json, output.timeseries_json);
}

// What a replay's failover records say its ladders charged: the sums over
// the "failover" lines of its events_jsonl.
struct ReplayedLadder {
  uint64_t recovered = 0;
  uint64_t shed = 0;
  uint64_t failed_attempts = 0;
  uint64_t backoff_ns = 0;
};

uint64_t JsonUint(const std::string& line, const std::string& key) {
  const std::string quoted = "\"" + key + "\": ";
  const size_t at = line.find(quoted);
  PIMINE_CHECK(at != std::string::npos) << key << " missing in " << line;
  return std::stoull(line.substr(at + quoted.size()));
}

ReplayedLadder SumFailoverEvents(const std::string& jsonl) {
  ReplayedLadder sum;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    if (line.find("\"kind\": \"failover\"") == std::string::npos) continue;
    ++(line.find("\"shed\": true") != std::string::npos ? sum.shed
                                                         : sum.recovered);
    sum.failed_attempts += JsonUint(line, "failed_attempts");
    sum.backoff_ns += JsonUint(line, "backoff_ns");
  }
  return sum;
}

void ExpectSameFailover(const FailoverStats& a, const FailoverStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.injected, b.injected) << label;
  EXPECT_EQ(a.recovered, b.recovered) << label;
  EXPECT_EQ(a.shed, b.shed) << label;
  EXPECT_EQ(a.attempts_failed, b.attempts_failed) << label;
  EXPECT_EQ(a.chaos_denied, b.chaos_denied) << label;
  EXPECT_EQ(a.device_faults, b.device_faults) << label;
  EXPECT_EQ(a.strikes, b.strikes) << label;
  EXPECT_EQ(a.struck_out, b.struck_out) << label;
  EXPECT_EQ(a.slack_fills, b.slack_fills) << label;
  EXPECT_EQ(a.retry_messages, b.retry_messages) << label;
  EXPECT_EQ(a.retry_bytes, b.retry_bytes) << label;
  EXPECT_EQ(a.backoff_ns, b.backoff_ns) << label;
}

// Plan == execution once strikes strike replicas out: with max_strikes = 1
// every denial strikes its replica out, so whichever dispatch meets a
// replica first decides what every later dispatch walks. The replay's
// failover records (what the virtual clock charged) must equal what the
// executed ladders charged, and both must be the same for every
// scheduler_threads.
TEST(FailoverServeTest, StrikeOutsReplayAsPlannedForEveryThreadCount) {
  serve::WorkloadSpec spec;
  spec.num_requests = 240;
  spec.offered_qps = 2e6;
  spec.tenant_share = {0.5, 0.5};
  spec.num_query_rows = kQueryRows;
  spec.seed = 99;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const uint64_t first_arrival = trace->events.front().arrival_ns;

  // A seeded schedule whose death lands before the first dispatch and
  // whose stalls open while the trace is being served.
  ChaosConfig chaos;
  chaos.device_deaths = 1;
  chaos.stalls = 3;
  chaos.horizon_ns = trace->events.back().arrival_ns;
  chaos.stall_ns = 10'000;
  bool found = false;
  for (uint64_t seed = 1; seed < 100'000 && !found; ++seed) {
    chaos.seed = seed;
    const auto schedule = ChaosSchedule::Generate(chaos, 2, 2);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
    bool early_death = false;
    bool late_stall = false;
    for (const ChaosEvent& e : schedule->events()) {
      if (e.kind == ChaosEventKind::kDeviceDeath) {
        early_death = e.at_ns < first_arrival;
      } else if (e.at_ns > first_arrival) {
        late_stall = true;
      }
    }
    found = early_death && late_stall;
  }
  ASSERT_TRUE(found);

  EngineOptions engine = ServeEngine(2);
  engine.shard.max_strikes = 1;
  serve::ServeOptions options = ServeBase(1);
  options.exec.device_batch = options.max_batch;
  options.chaos = chaos;
  options.event_sample_rate = 1.0;

  std::vector<serve::ReplayOutput> outputs;
  std::vector<FailoverStats> executed;
  for (int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    options.scheduler_threads = threads;
    auto server = serve::PimServer::Build(ServeData(), Distance::kEuclidean,
                                          engine, options);
    ASSERT_TRUE(server.ok()) << label << ": " << server.status().ToString();
    auto output = (*server)->Replay(*trace, ServeQueries());
    ASSERT_TRUE(output.ok()) << label << ": " << output.status().ToString();
    ASSERT_GE(output->stats.batches, 24u) << label;
    const FailoverStats fo = (*server)->engine().FleetStats().failover;
    EXPECT_TRUE(fo.Balanced()) << label << ": " << fo.ToString();
    EXPECT_GT(fo.struck_out, 0u) << label << ": " << fo.ToString();
    ExpectShedOpsServeOffDevice((*server)->engine(), label);

    const ReplayedLadder planned = SumFailoverEvents(output->events_jsonl);
    EXPECT_EQ(planned.recovered, fo.recovered) << label;
    EXPECT_EQ(planned.shed, fo.shed) << label;
    EXPECT_EQ(planned.failed_attempts, fo.attempts_failed) << label;
    EXPECT_EQ(planned.backoff_ns, fo.backoff_ns) << label;
    outputs.push_back(*std::move(output));
    executed.push_back(fo);
  }
  ExpectSameFailover(executed[0], executed[1], "threads 1 vs 4");
  EXPECT_EQ(outputs[0].timeseries_json, outputs[1].timeseries_json);
  EXPECT_EQ(outputs[0].events_jsonl, outputs[1].events_jsonl);
}

}  // namespace
}  // namespace pimine
