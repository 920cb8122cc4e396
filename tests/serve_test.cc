// Tests of the online serving layer (src/serve): virtual-clock replay
// determinism across scheduler thread counts / batch knobs / shard counts,
// equivalence with the offline batch path, weighted fairness, queue
// backpressure, deadline accounting, and live mode: a concurrency smoke, a
// /metrics scrape against running workers, traffic and failover accounting
// like replay's (run under TSan in CI).

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_pim_knn.h"
#include "serve/admission_queue.h"
#include "serve/serve_options.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "test_helpers.h"

namespace pimine {
namespace serve {
namespace {

using testing_util::RandomUnitMatrix;

constexpr size_t kObjects = 220;
constexpr size_t kDims = 24;
constexpr size_t kQueries = 40;
constexpr int kK = 5;

const FloatMatrix& Data() {
  static const FloatMatrix* data =
      new FloatMatrix(RandomUnitMatrix(kObjects, kDims, 7));
  return *data;
}

const FloatMatrix& Queries() {
  static const FloatMatrix* queries =
      new FloatMatrix(RandomUnitMatrix(kQueries, kDims, 11));
  return *queries;
}

EngineOptions SmallEngine(int shards = 1) {
  EngineOptions options;
  options.pim_config.num_crossbars = 4096;
  options.shard.shards = shards;
  return options;
}

ServeOptions BaseServe() {
  ServeOptions options;
  options.max_batch = 8;
  options.max_wait_ns = 2000;
  options.queue_capacity = 4096;
  options.k = kK;
  options.exec.device_batch = 4;
  return options;
}

ArrivalTrace TestTrace(size_t requests, uint32_t tenants, double qps) {
  WorkloadSpec spec;
  spec.num_requests = requests;
  spec.offered_qps = qps;
  spec.tenant_share.assign(tenants, 1.0);
  spec.num_query_rows = kQueries;
  spec.seed = 99;
  auto trace = GeneratePoissonTrace(spec);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return *trace;
}

ReplayOutput MustReplay(const ServeOptions& serve_options,
                        const ArrivalTrace& trace, int shards = 1) {
  auto server = PimServer::Build(Data(), Distance::kEuclidean,
                                 SmallEngine(shards), serve_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  auto output = (*server)->Replay(trace, Queries());
  EXPECT_TRUE(output.ok()) << output.status().ToString();
  return std::move(*output);
}

// Starts `server`, serves every query row once from four concurrent
// clients and stops it. Returns each row's neighbours.
std::vector<std::vector<Neighbor>> ServeAllLive(PimServer& server) {
  std::vector<std::vector<Neighbor>> live(kQueries);
  EXPECT_TRUE(server.Start().ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t row = c; row < kQueries; row += 4) {
        auto result = server.Submit(0, Queries().row(row));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        live[row] = std::move(result->neighbors);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  return live;
}

void ExpectSameNeighbors(const ReplayOutput& a, const ReplayOutput& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].neighbors, b.results[i].neighbors)
        << "query " << i;
  }
}

// --- Workload generator ----------------------------------------------------

TEST(WorkloadTest, PoissonTraceIsDeterministicAndSorted) {
  WorkloadSpec spec;
  spec.num_requests = 200;
  spec.offered_qps = 1e6;
  spec.tenant_share = {3.0, 1.0};
  spec.num_query_rows = 16;
  spec.seed = 5;
  auto a = GeneratePoissonTrace(spec);
  auto b = GeneratePoissonTrace(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->events.size(), 200u);
  size_t tenant0 = 0;
  for (size_t i = 0; i < a->events.size(); ++i) {
    EXPECT_EQ(a->events[i].arrival_ns, b->events[i].arrival_ns);
    EXPECT_EQ(a->events[i].tenant, b->events[i].tenant);
    EXPECT_EQ(a->events[i].query_row, b->events[i].query_row);
    if (i > 0) {
      EXPECT_GE(a->events[i].arrival_ns, a->events[i - 1].arrival_ns);
    }
    EXPECT_LT(a->events[i].query_row, 16u);
    EXPECT_LT(a->events[i].tenant, 2u);
    tenant0 += a->events[i].tenant == 0 ? 1 : 0;
  }
  // 3:1 offered share — loose band, exact values pinned by the seed.
  EXPECT_GT(tenant0, 120u);
  EXPECT_LT(tenant0, 180u);
}

TEST(WorkloadTest, RejectsDegenerateSpecs) {
  WorkloadSpec spec;
  spec.num_requests = 0;
  EXPECT_FALSE(GeneratePoissonTrace(spec).ok());
  spec.num_requests = 1;
  spec.offered_qps = 0.0;
  EXPECT_FALSE(GeneratePoissonTrace(spec).ok());
  spec.offered_qps = 1e6;
  spec.tenant_share = {1.0, 0.0};
  EXPECT_FALSE(GeneratePoissonTrace(spec).ok());
}

// --- Admission queue -------------------------------------------------------

TEST(AdmissionQueueTest, WeightedStridePicksHonorWeights) {
  ServeOptions options = BaseServe();
  options.max_batch = 6;
  options.tenants = {{"gold", 2}, {"free", 1}};
  AdmissionQueue queue(options);
  // Both tenants fully backlogged (4 queries each): 6 picks should split
  // 4:2 (stride scheduling at weights 2:1, ties to the smaller tenant id).
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.Admit(i, i < 4 ? 0 : 1, 0).ok());
  }
  std::vector<PendingQuery> batch;
  queue.FormBatch(&batch);
  ASSERT_EQ(batch.size(), 6u);
  size_t gold = 0;
  for (const PendingQuery& q : batch) gold += q.tenant == 0 ? 1 : 0;
  EXPECT_EQ(gold, 4u);
  // Within a tenant, strict FIFO.
  uint64_t last_gold = 0, last_free = 0;
  for (const PendingQuery& q : batch) {
    uint64_t& last = q.tenant == 0 ? last_gold : last_free;
    EXPECT_GE(q.id, last);
    last = q.id;
  }
}

TEST(AdmissionQueueTest, IdleTenantBanksNoCredit) {
  ServeOptions options = BaseServe();
  options.max_batch = 2;
  options.tenants = {{"a", 1}, {"b", 1}};
  AdmissionQueue queue(options);
  // Tenant a is served alone for a while; b then shows up and must NOT get
  // an unbounded run of picks for its idle period.
  for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(queue.Admit(i, 0, 0).ok());
  std::vector<PendingQuery> batch;
  for (int i = 0; i < 4; ++i) queue.FormBatch(&batch);
  ASSERT_TRUE(queue.empty());
  for (uint64_t i = 8; i < 12; ++i) {
    ASSERT_TRUE(queue.Admit(i, i % 2, 1).ok());
  }
  queue.FormBatch(&batch);
  size_t b_picks = 0;
  for (const PendingQuery& q : batch) b_picks += q.tenant == 1 ? 1 : 0;
  EXPECT_EQ(b_picks, 1u) << "re-activated tenant got a banked burst";
}

TEST(AdmissionQueueTest, CapacityRejectsWithClearStatus) {
  ServeOptions options = BaseServe();
  options.queue_capacity = 3;
  AdmissionQueue queue(options);
  for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(queue.Admit(i, 0, 0).ok());
  const Status status = queue.Admit(3, 0, 0);
  EXPECT_EQ(status.code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(status.message().find("3/3"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(queue.pending(), 3u);
}

// --- Replay determinism ----------------------------------------------------

TEST(ServeReplayTest, BitIdenticalAcrossSchedulerThreadsAndShards) {
  const ArrivalTrace trace = TestTrace(96, 2, 5e6);
  ServeOptions base = BaseServe();
  base.tenants = {{"gold", 3}, {"free", 1}};
  base.scheduler_threads = 1;
  const ReplayOutput baseline = MustReplay(base, trace, /*shards=*/1);
  ASSERT_EQ(baseline.stats.served, 96u);

  for (int threads : {2, 4}) {
    for (int shards : {1, 4}) {
      ServeOptions options = base;
      options.scheduler_threads = threads;
      const ReplayOutput run = MustReplay(options, trace, shards);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      // Functional results: bit-identical.
      ExpectSameNeighbors(baseline, run);
      // Batch formation is virtual-clock only: every scheduling stat is a
      // pure function of (trace, knobs) — thread and shard independent.
      for (size_t i = 0; i < run.results.size(); ++i) {
        EXPECT_EQ(run.results[i].dispatch_ns, baseline.results[i].dispatch_ns);
        EXPECT_EQ(run.results[i].completion_ns,
                  baseline.results[i].completion_ns);
        EXPECT_EQ(run.results[i].batch_id, baseline.results[i].batch_id);
      }
      EXPECT_EQ(run.stats.batches, baseline.stats.batches);
      EXPECT_EQ(run.stats.makespan_ns, baseline.stats.makespan_ns);
      EXPECT_EQ(run.stats.max_queue_depth, baseline.stats.max_queue_depth);
      EXPECT_TRUE(run.stats.wait_hist == baseline.stats.wait_hist);
      EXPECT_TRUE(run.stats.latency_hist == baseline.stats.latency_hist);
      EXPECT_TRUE(run.stats.occupancy_hist == baseline.stats.occupancy_hist);
      EXPECT_EQ(run.stats.pipelined_ns, baseline.stats.pipelined_ns);
      // Execution accounting: traffic / modeled pim_ns / work counts are
      // bit-identical for every thread count and shard count (DESIGN.md
      // determinism contract, extended to the serving layer).
      EXPECT_TRUE(run.stats.exec.traffic == baseline.stats.exec.traffic)
          << run.stats.exec.traffic.ToString() << " vs "
          << baseline.stats.exec.traffic.ToString();
      EXPECT_EQ(run.stats.exec.pim_ns, baseline.stats.exec.pim_ns);
      EXPECT_EQ(run.stats.exec.exact_count, baseline.stats.exec.exact_count);
      EXPECT_EQ(run.stats.exec.bound_count, baseline.stats.exec.bound_count);
    }
  }
}

// A device sums its pipelined time per batch size, so the order in which
// concurrent dispatches complete cannot move a bit of it: a chaos replay
// with mixed dispatch sizes reads the same figures on every run at 1 and 4
// scheduler threads.
TEST(ServeReplayTest, DevicePipelinedNsIsIdenticalRunToRun) {
  const ArrivalTrace trace = TestTrace(128, 2, 2e6);
  ServeOptions base = BaseServe();
  base.exec.device_batch = 8;
  base.tenants = {{"gold", 4}, {"free", 1}};
  base.chaos.device_deaths = 2;
  base.chaos.horizon_ns = 50000;
  EngineOptions engine = SmallEngine(2);
  engine.shard.replicas = 2;
  std::vector<double> want;
  for (int threads : {1, 4}) {
    for (int run = 0; run < 5; ++run) {
      ServeOptions options = base;
      options.scheduler_threads = threads;
      auto server =
          PimServer::Build(Data(), Distance::kEuclidean, engine, options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      ASSERT_TRUE((*server)->Replay(trace, Queries()).ok());
      const ShardedPimEngine& fleet = (*server)->engine();
      std::vector<double> got;
      for (size_t j = 0; j < fleet.shards(); ++j) {
        got.push_back(fleet.ShardHealthSnapshot(j).pipelined_ns);
      }
      if (want.empty()) want = got;
      EXPECT_EQ(got, want) << "threads=" << threads << " run=" << run;
    }
  }
  ASSERT_EQ(want.size(), 2u);
  EXPECT_GT(want[0], 0.0);
}

TEST(ServeReplayTest, ResultsInvariantUnderBatchingKnobs) {
  const ArrivalTrace trace = TestTrace(64, 1, 3e6);
  ServeOptions base = BaseServe();
  const ReplayOutput baseline = MustReplay(base, trace);
  for (size_t max_batch : {1u, 3u, 16u}) {
    for (size_t device_batch : {1u, 8u}) {
      ServeOptions options = base;
      options.max_batch = max_batch;
      options.exec.device_batch = device_batch;
      const ReplayOutput run = MustReplay(options, trace);
      SCOPED_TRACE("max_batch=" + std::to_string(max_batch) +
                   " device_batch=" + std::to_string(device_batch));
      // Batch composition can never change any query's answer — nor the
      // grouping-invariant counters.
      ExpectSameNeighbors(baseline, run);
      EXPECT_TRUE(run.stats.exec.traffic == baseline.stats.exec.traffic);
      EXPECT_EQ(run.stats.exec.pim_ns, baseline.stats.exec.pim_ns);
      EXPECT_EQ(run.stats.exec.exact_count, baseline.stats.exec.exact_count);
    }
  }
}

// --- Equivalence with the offline path -------------------------------------

/// One served configuration and the offline path it must reproduce.
struct OfflineParityCase {
  const char* name;
  Distance distance;
  EngineOptions::Bound bound;
  bool sm_pim;  // the offline path is SmPimKnn instead of StandardPimKnn.
  int shards;
};

class ServeOfflineParityTest
    : public testing::TestWithParam<OfflineParityCase> {};

TEST_P(ServeOfflineParityTest, AllAtZeroTraceMatchesOfflineBatchRun) {
  // Every query arrives at t=0 from one tenant: FIFO forms batches of
  // exactly max_batch in row order — the same device batches the offline
  // KnnSearchBase::Search forms for device_batch = max_batch.
  const OfflineParityCase& c = GetParam();
  constexpr size_t kBatch = 8;
  ServeOptions options = BaseServe();
  options.max_batch = kBatch;
  options.exec.device_batch = kBatch;
  options.max_wait_ns = 0;
  EngineOptions engine = SmallEngine(c.shards);
  engine.bound = c.bound;
  auto server = PimServer::Build(Data(), c.distance, engine, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto served =
      (*server)->Replay(AllAtZeroTrace(kQueries, 1, kQueries), Queries());
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  // SM-PIM is served through EngineOptions::bound alone.
  std::unique_ptr<KnnAlgorithm> offline;
  if (c.sm_pim) {
    offline = std::make_unique<SmPimKnn>(engine);
  } else {
    offline = std::make_unique<StandardPimKnn>(c.distance, engine);
  }
  ExecPolicy offline_policy;
  offline_policy.device_batch = kBatch;
  offline->set_exec_policy(offline_policy);
  ASSERT_TRUE(offline->Prepare(Data()).ok());
  auto offline_result = offline->Search(Queries(), kK);
  ASSERT_TRUE(offline_result.ok()) << offline_result.status().ToString();

  ASSERT_EQ(served->results.size(), kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(served->results[i].neighbors, offline_result->neighbors[i])
        << "query " << i;
  }
  EXPECT_TRUE(served->stats.exec.traffic == offline_result->stats.traffic)
      << served->stats.exec.traffic.ToString() << " vs "
      << offline_result->stats.traffic.ToString();
  EXPECT_EQ(served->stats.exec.pim_ns, offline_result->stats.pim_ns);
  EXPECT_EQ(served->stats.exec.exact_count,
            offline_result->stats.exact_count);
  EXPECT_EQ(served->stats.exec.bound_count,
            offline_result->stats.bound_count);
}

std::vector<OfflineParityCase> OfflineParityCases() {
  using Bound = EngineOptions::Bound;
  std::vector<OfflineParityCase> cases;
  for (const int shards : {1, 4}) {
    cases.push_back({"ed_auto", Distance::kEuclidean, Bound::kAuto, false,
                     shards});
    cases.push_back({"ed_fnn", Distance::kEuclidean, Bound::kSegmentFnn,
                     false, shards});
    cases.push_back({"ed_sm_pim", Distance::kEuclidean, Bound::kSegmentSm,
                     true, shards});
    cases.push_back({"cs", Distance::kCosine, Bound::kAuto, false, shards});
    cases.push_back({"pcc", Distance::kPearson, Bound::kAuto, false, shards});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ServeOfflineParityTest, testing::ValuesIn(OfflineParityCases()),
    [](const testing::TestParamInfo<OfflineParityCase>& param) {
      return std::string(param.param.name) + "_shards" +
             std::to_string(param.param.shards);
    });

// --- Greedy dispatch / Q=1 fast path ---------------------------------------

TEST(ServeReplayTest, GreedyZeroWaitServesSingletonsMatchingDirectQueries) {
  // max_wait = 0 with widely-spaced arrivals: the scheduler must never
  // hold a query while the device is free, so every dispatch is Q = 1 and
  // its modeled stats must equal direct one-query RunQueryBatch calls.
  ServeOptions options = BaseServe();
  options.max_wait_ns = 0;
  ArrivalTrace trace;
  for (uint32_t i = 0; i < 24; ++i) {
    // Gaps far above the modeled service time, so the device is idle at
    // every arrival.
    trace.events.push_back(ArrivalEvent{
        i * 10000000ull, 0, static_cast<uint32_t>(i % kQueries)});
  }
  const ReplayOutput served = MustReplay(options, trace);
  ASSERT_EQ(served.stats.served, 24u);
  EXPECT_EQ(served.stats.batches, 24u) << "greedy dispatch held queries back";
  EXPECT_EQ(served.stats.occupancy_hist.max_ticks(), 1u);
  // Zero queueing: every query dispatches the instant it arrives.
  EXPECT_EQ(served.stats.wait_hist.max_ticks(), 0u);
  // Q = 1 pipelined occupancy is bit-identical to the serial per-query
  // model (stage_ns * stages each), so the totals must match exactly.
  EXPECT_DOUBLE_EQ(served.stats.pipelined_ns, served.stats.exec.pim_ns);

  // Direct single-query path over the same engine geometry.
  auto fleet =
      ShardedPimEngine::Build(Data(), Distance::kEuclidean, SmallEngine());
  ASSERT_TRUE(fleet.ok());
  for (uint32_t i = 0; i < 24; ++i) {
    auto handle = (*fleet)->RunQueryBatch(Queries().row(i % kQueries), 1);
    ASSERT_TRUE(handle.ok());
  }
  const PimEngine& engine = (*fleet)->shard_engine(0);
  EXPECT_EQ(served.stats.exec.pim_ns, engine.DeviceStatsTotal().pim_ns);
  EXPECT_EQ(served.stats.pipelined_ns, engine.DeviceStatsTotal().pipelined_ns);
}

// --- Fairness --------------------------------------------------------------

TEST(ServeReplayTest, WeightedFairnessProtectsHighPriorityTenant) {
  // "free" offers 4x the traffic of "gold" but gold holds weight 4: under
  // saturation gold's queries ride earlier batches, so its latency
  // distribution must sit strictly below free's.
  WorkloadSpec spec;
  spec.num_requests = 160;
  spec.offered_qps = 2e7;  // far above the modeled service rate.
  spec.tenant_share = {1.0, 4.0};
  spec.num_query_rows = kQueries;
  spec.seed = 3;
  auto trace = GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());

  ServeOptions options = BaseServe();
  options.tenants = {{"gold", 4}, {"free", 1}};
  options.max_batch = 4;
  const ReplayOutput out = MustReplay(options, *trace);
  ASSERT_EQ(out.stats.rejected, 0u);
  const TenantServeStats& gold = out.stats.tenants[0];
  const TenantServeStats& free_tier = out.stats.tenants[1];
  ASSERT_GT(gold.served, 0u);
  ASSERT_GT(free_tier.served, 0u);
  EXPECT_LT(gold.latency.QuantileUpperBound(0.5),
            free_tier.latency.QuantileUpperBound(0.5))
      << "gold " << gold.latency.Summary() << " vs free "
      << free_tier.latency.Summary();
  EXPECT_LE(gold.latency.max_ticks(), free_tier.latency.max_ticks());
}

// --- Backpressure ----------------------------------------------------------

TEST(ServeReplayTest, QueueFullRejectsWithCapacityExceeded) {
  ServeOptions options = BaseServe();
  options.queue_capacity = 6;
  options.max_batch = 4;
  const ArrivalTrace trace = AllAtZeroTrace(20, 1, kQueries);
  const ReplayOutput out = MustReplay(options, trace);
  // All 20 arrive at t=0: 6 fill the queue, 14 bounce with an explicit
  // status — nothing is silently dropped.
  EXPECT_EQ(out.stats.submitted, 20u);
  EXPECT_EQ(out.stats.served, 6u);
  EXPECT_EQ(out.stats.rejected, 14u);
  EXPECT_EQ(out.stats.max_queue_depth, 6u);
  for (size_t i = 0; i < out.results.size(); ++i) {
    if (i < 6) {
      EXPECT_TRUE(out.results[i].status.ok());
      EXPECT_EQ(out.results[i].neighbors.size(), static_cast<size_t>(kK));
    } else {
      EXPECT_EQ(out.results[i].status.code(), StatusCode::kCapacityExceeded);
      EXPECT_TRUE(out.results[i].neighbors.empty());
    }
  }
}

// --- Deadlines -------------------------------------------------------------

TEST(ServeReplayTest, DeadlineMissesAreCounted) {
  ServeOptions options = BaseServe();
  options.max_batch = 16;
  options.max_wait_ns = 1000000;  // 1 ms hold for companions.
  options.deadline_ns = 1000;     // 1 us SLO: the hold alone blows it.
  const ArrivalTrace trace = AllAtZeroTrace(8, 1, kQueries);
  const ReplayOutput out = MustReplay(options, trace);
  ASSERT_EQ(out.stats.served, 8u);
  EXPECT_EQ(out.stats.deadline_misses, 8u);
  EXPECT_EQ(out.stats.tenants[0].deadline_misses, 8u);
  for (const ServedResult& r : out.results) {
    EXPECT_TRUE(r.deadline_missed);
    EXPECT_GT(r.completion_ns - r.arrival_ns, options.deadline_ns);
  }

  // Same trace without a deadline: zero misses.
  options.deadline_ns = 0;
  const ReplayOutput relaxed = MustReplay(options, trace);
  EXPECT_EQ(relaxed.stats.deadline_misses, 0u);
}

// --- Live mode -------------------------------------------------------------

TEST(ServeLiveTest, ConcurrentClientsAreServedAndBatched) {
  ServeOptions options = BaseServe();
  options.scheduler_threads = 2;
  options.max_wait_ns = 200000;
  options.tenants = {{"a", 2}, {"b", 1}};
  auto server =
      PimServer::Build(Data(), Distance::kEuclidean, SmallEngine(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_FALSE((*server)->Start().ok()) << "double Start must fail";

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const size_t row = static_cast<size_t>(c * kPerClient + i) % kQueries;
        auto result =
            (*server)->Submit(static_cast<uint32_t>(c % 2), Queries().row(row));
        if (result.ok() && result->neighbors.size() == kK &&
            result->completion_ns >= result->dispatch_ns &&
            result->dispatch_ns >= result->arrival_ns) {
          ++ok_counts[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  (*server)->Stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok_counts[c], kPerClient) << "client " << c;
  }
  const ServeStats stats = (*server)->LiveStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.exec.pim_ns, 0.0);

  // Served results must match the offline answers (continuous batching
  // cannot change correctness, live or replayed).
  auto probe = (*server)->Submit(0, Queries().row(0));
  EXPECT_FALSE(probe.ok()) << "Submit after Stop must fail";
}

TEST(ServeLiveTest, LiveResultsMatchReplay) {
  ServeOptions options = BaseServe();
  options.scheduler_threads = 2;
  auto server =
      PimServer::Build(Data(), Distance::kEuclidean, SmallEngine(), options);
  ASSERT_TRUE(server.ok());
  const std::vector<std::vector<Neighbor>> live = ServeAllLive(**server);

  const ArrivalTrace trace = AllAtZeroTrace(kQueries, 1, kQueries);
  ServeOptions replay_options = options;
  replay_options.scheduler_threads = 1;
  const ReplayOutput replayed = MustReplay(replay_options, trace);
  for (size_t row = 0; row < kQueries; ++row) {
    EXPECT_EQ(live[row], replayed.results[row].neighbors) << "query " << row;
  }
}

// Live serving reports the traffic and the exact, bound and pruned counts
// its dispatches charged. None of them depends on how queries are batched,
// so the live totals equal a replay's over the same queries.
TEST(ServeLiveTest, LiveTrafficMatchesReplay) {
  ServeOptions options = BaseServe();
  options.scheduler_threads = 2;
  auto server =
      PimServer::Build(Data(), Distance::kEuclidean, SmallEngine(), options);
  ASSERT_TRUE(server.ok());
  ServeAllLive(**server);
  const ServeStats live = (*server)->LiveStats();

  ServeOptions replay_options = options;
  replay_options.scheduler_threads = 1;
  const ReplayOutput replayed =
      MustReplay(replay_options, AllAtZeroTrace(kQueries, 1, kQueries));
  EXPECT_EQ(live.served, kQueries);
  EXPECT_EQ(live.exec.exact_count, replayed.stats.exec.exact_count);
  EXPECT_GT(live.exec.bound_count, 0u);
  EXPECT_EQ(live.exec.bound_count, replayed.stats.exec.bound_count);
  EXPECT_GT(live.exec.pruned_count, 0u);
  EXPECT_EQ(live.exec.pruned_count, replayed.stats.exec.pruned_count);
  EXPECT_GT(live.exec.traffic.bytes_from_memory, 0u);
  EXPECT_TRUE(live.exec.traffic == replayed.stats.exec.traffic)
      << live.exec.traffic.ToString() << " vs "
      << replayed.stats.exec.traffic.ToString();
}

// A /metrics scrape runs against live workers (CI runs this under TSan):
// every figure it reads is either under the server lock or a guarded
// device-stat snapshot.
TEST(ServeLiveTest, ScrapeWhileServing) {
  ServeOptions options = BaseServe();
  options.scheduler_threads = 2;
  auto server =
      PimServer::Build(Data(), Distance::kEuclidean, SmallEngine(2), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text = (*server)->MetricsText();
      EXPECT_NE(text.find("pimine_serve_served_total"), std::string::npos);
    }
  });
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const size_t row = static_cast<size_t>(c * kPerClient + i) % kQueries;
        EXPECT_TRUE((*server)->Submit(0, Queries().row(row)).ok());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  (*server)->Stop();
  done.store(true);
  scraper.join();
  const std::string scraped = (*server)->MetricsText();
  EXPECT_NE(scraped.find("pimine_serve_served_total " +
                         std::to_string(kClients * kPerClient) + "\n"),
            std::string::npos)
      << scraped;
}

// Live serving walks the same failover ladder as replay, planned at
// formation, and records the same failover series and events.
TEST(ServeLiveTest, ChaosFailoverIsAccountedLikeReplay) {
  ServeOptions options = BaseServe();
  options.scheduler_threads = 2;
  options.chaos.device_deaths = 2;
  options.chaos.horizon_ns = 1000;
  options.event_sample_rate = 1.0;
  EngineOptions engine = SmallEngine(2);
  engine.shard.replicas = 2;
  auto server = PimServer::Build(Data(), Distance::kEuclidean, engine, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::vector<std::vector<Neighbor>> live = ServeAllLive(**server);

  const ServeStats stats = (*server)->LiveStats();
  EXPECT_EQ(stats.served, kQueries);
  const FailoverStats& failover = stats.exec.fleet.failover;
  EXPECT_GT(failover.injected, 0u) << failover.ToString();
  EXPECT_TRUE(failover.Balanced()) << failover.ToString();
  const std::string timeseries = (*server)->TimeSeriesJson();
  EXPECT_TRUE(timeseries.find("\"failover_recovered\"") != std::string::npos ||
              timeseries.find("\"failover_shed\"") != std::string::npos)
      << timeseries;
  EXPECT_NE((*server)->EventsJsonl().find("\"kind\": \"failover\""),
            std::string::npos);

  ServeOptions replay_options = options;
  replay_options.scheduler_threads = 1;
  auto replayer =
      PimServer::Build(Data(), Distance::kEuclidean, engine, replay_options);
  ASSERT_TRUE(replayer.ok());
  auto replayed =
      (*replayer)->Replay(AllAtZeroTrace(kQueries, 1, kQueries), Queries());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  for (size_t row = 0; row < kQueries; ++row) {
    EXPECT_EQ(live[row], replayed->results[row].neighbors) << "query " << row;
  }
}

// --- Option validation -----------------------------------------------------

TEST(ServeOptionsTest, ValidateCatchesBadKnobs) {
  ServeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions{};
  options.queue_capacity = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions{};
  options.scheduler_threads = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions{};
  options.exec.device_batch = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServeOptions{};
  options.tenants = {{"zero", 0}};
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace serve
}  // namespace pimine
