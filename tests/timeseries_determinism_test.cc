// The telemetry determinism contract of the live telemetry plane
// (DESIGN.md section 11): replaying one recorded trace produces
// byte-identical `timeseries.json` and sampled `events.jsonl` documents
// for EVERY scheduler_threads x shards combination, because the replay
// plane is clocked by the virtual clock and fed exclusively from the
// deterministic single-threaded accounting pass. Run under TSan in CI
// alongside the serve determinism tests.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/event_log.h"
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

// The server's timeseries windows are 1 ms and its event ring holds 4096
// events (the TimeSeriesOptions / EventLogOptions defaults): 9000 requests
// at 3e6 q/s span several windows, and sampling half of them rolls the ring.
ArrivalTrace TestTrace() {
  WorkloadSpec spec;
  spec.num_requests = 9000;
  spec.offered_qps = 3e6;  // hot enough that batches actually coalesce.
  spec.tenant_share = {0.7, 0.3};
  spec.num_query_rows = kQueries;
  spec.seed = 99;
  auto trace = GeneratePoissonTrace(spec);
  EXPECT_TRUE(trace.ok());
  return *trace;
}

/// Replays the canonical trace under the given parallelism geometry and
/// returns the two telemetry documents.
struct TelemetryDocs {
  std::string timeseries;
  std::string events;
};

TelemetryDocs ReplayTelemetry(int scheduler_threads, int shards) {
  EngineOptions engine_options;
  engine_options.pim_config.num_crossbars = 4096;
  engine_options.shard.shards = shards;
  ServeOptions serve_options;
  serve_options.max_batch = 8;
  serve_options.max_wait_ns = 2000;
  serve_options.queue_capacity = 24;  // small: forces some rejections.
  serve_options.k = 5;
  serve_options.exec.device_batch = 4;
  serve_options.scheduler_threads = scheduler_threads;
  serve_options.deadline_ns = 40000;  // some misses feed the SLO series.
  serve_options.tenants = {{"gold", 3}, {"free", 1}};
  serve_options.event_sample_rate = 0.5;
  serve_options.event_seed = 2024;
  auto server = PimServer::Build(Data(), Distance::kEuclidean, engine_options,
                                 serve_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  auto output = (*server)->Replay(TestTrace(), Queries());
  EXPECT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_GT(output->stats.served, 0u);
  return {output->timeseries_json, output->events_jsonl};
}

TEST(TimeSeriesDeterminismTest, ByteIdenticalAcrossThreadsAndShards) {
  const TelemetryDocs baseline = ReplayTelemetry(1, 1);
  ASSERT_FALSE(baseline.timeseries.empty());
  // Sampling at 0.5 keeps some queries and drops some.
  ASSERT_FALSE(baseline.events.empty());
  EXPECT_NE(baseline.timeseries.find("\"pimine.obs.timeseries.v1\""),
            std::string::npos);
  EXPECT_NE(baseline.timeseries.find("\"slo\""), std::string::npos);
  for (const int threads : {1, 2, 4}) {
    for (const int shards : {1, 4}) {
      const TelemetryDocs docs = ReplayTelemetry(threads, shards);
      EXPECT_EQ(docs.timeseries, baseline.timeseries)
          << "timeseries.json diverged at scheduler_threads=" << threads
          << " shards=" << shards;
      EXPECT_EQ(docs.events, baseline.events)
          << "events.jsonl diverged at scheduler_threads=" << threads
          << " shards=" << shards;
    }
  }
}

TEST(TimeSeriesDeterminismTest, RepeatedReplayOnOneServerIsIdentical) {
  EngineOptions engine_options;
  engine_options.pim_config.num_crossbars = 4096;
  ServeOptions serve_options;
  serve_options.max_batch = 8;
  serve_options.k = 5;
  serve_options.exec.device_batch = 4;
  serve_options.tenants = {{"gold", 3}, {"free", 1}};
  serve_options.event_sample_rate = 1.0;
  auto server = PimServer::Build(Data(), Distance::kEuclidean, engine_options,
                                 serve_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const ArrivalTrace trace = TestTrace();
  auto first = (*server)->Replay(trace, Queries());
  ASSERT_TRUE(first.ok());
  auto second = (*server)->Replay(trace, Queries());
  ASSERT_TRUE(second.ok());
  // A replay's telemetry is a pure function of (trace, options): back-to-back
  // replays on one server do not leak state into each other's documents.
  EXPECT_EQ(first->timeseries_json, second->timeseries_json);
  EXPECT_EQ(first->events_jsonl, second->events_jsonl);
  // Full sampling records one event line per trace request.
  size_t lines = 0;
  for (const char c : first->events_jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, std::min<size_t>(trace.events.size(),
                                    obs::EventLogOptions().capacity));
}

}  // namespace
}  // namespace serve
}  // namespace pimine
