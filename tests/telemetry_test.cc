// Tests of the live telemetry plane (src/obs + serve/fleet wiring):
// rolling timeseries windows, SLO burn rates, hash-sampled event log,
// labeled metric families with strict Prometheus exposition, histogram
// edge cases, the embedded HTTP exposition endpoint, and the per-shard
// fleet health export whose totals must equal the aggregate FleetRunStats
// accounting exactly.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_engine.h"
#include "obs/event_log.h"
#include "obs/exposition_server.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "test_helpers.h"

namespace pimine {
namespace {

using obs::EventLog;
using obs::EventLogOptions;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::QueryEvent;
using obs::TimeSeries;
using obs::TimeSeriesOptions;
using testing_util::RandomUnitMatrix;

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

TimeSeriesOptions SmallWindows() {
  TimeSeriesOptions options;
  options.window_ns = 1000;
  options.num_windows = 4;
  options.slo_short_windows = 2;
  options.slo_long_windows = 4;
  options.slo_budget = 0.1;
  return options;
}

TEST(TimeSeriesTest, CountersLandInTheirWindows) {
  TimeSeries ts(SmallWindows());
  ts.Count("served", 500);        // window 0.
  ts.Count("served", 1500);       // window 1.
  ts.Count("served", 1999, 2);    // window 1.
  EXPECT_EQ(ts.WindowIndexFor(500), 0u);
  EXPECT_EQ(ts.WindowIndexFor(1999), 1u);
  EXPECT_EQ(ts.CounterInWindow("served", 0), 1u);
  EXPECT_EQ(ts.CounterInWindow("served", 1), 3u);
  EXPECT_EQ(ts.CounterInWindow("served", 2), 0u);
  EXPECT_EQ(ts.CounterInWindow("missing", 0), 0u);
  EXPECT_EQ(ts.newest_window(), 1u);
  // Rate: count / window seconds; 1000 ns windows -> count * 1e6 / s.
  EXPECT_DOUBLE_EQ(ts.RatePerSec("served", 1), 3e6);
}

TEST(TimeSeriesTest, RingEvictsOldWindowsAndCountsLateSamples) {
  TimeSeries ts(SmallWindows());
  ts.Count("served", 100);  // window 0.
  ts.Count("served", 9500); // window 9: windows 0..5 fall out of the ring.
  EXPECT_EQ(ts.CounterInWindow("served", 0), 0u);
  EXPECT_EQ(ts.CounterInWindow("served", 9), 1u);
  EXPECT_EQ(ts.oldest_window(), 6u);
  EXPECT_EQ(ts.dropped_late(), 0u);
  // Backfill within retention is exact; behind the horizon is dropped.
  ts.Count("served", 6500);  // window 6: still retained.
  EXPECT_EQ(ts.CounterInWindow("served", 6), 1u);
  EXPECT_EQ(ts.dropped_late(), 0u);
  ts.Count("served", 100);   // window 0 again: behind the horizon.
  EXPECT_EQ(ts.dropped_late(), 1u);
  EXPECT_EQ(ts.CounterInWindow("served", 9), 1u);  // state unchanged.
}

TEST(TimeSeriesTest, PerWindowQuantileBounds) {
  TimeSeries ts(SmallWindows());
  for (int i = 0; i < 9; ++i) ts.Observe("latency_ns", 100, 100.0);
  ts.Observe("latency_ns", 200, 7000.0);   // same window, the tail sample.
  ts.Observe("latency_ns", 1100, 50.0);    // next window.
  const Histogram w0 = ts.HistogramInWindow("latency_ns", 0);
  EXPECT_EQ(w0.count(), 10u);
  EXPECT_EQ(w0.QuantileUpperBound(0.50), 127u);    // bucket of 100.
  EXPECT_EQ(w0.QuantileUpperBound(0.99), 8191u);   // bucket of 7000.
  EXPECT_EQ(w0.max_ticks(), 7000u);
  const Histogram w1 = ts.HistogramInWindow("latency_ns", 1);
  EXPECT_EQ(w1.count(), 1u);
  EXPECT_EQ(w1.max_ticks(), 50u);
}

TEST(TimeSeriesTest, TwoWindowSloBurnRate) {
  TimeSeries ts(SmallWindows());
  ts.SetSlo("deadline_missed", "served");
  // 100 served in each of windows 0..3; 10 misses in window 3 only.
  for (uint64_t w = 0; w < 4; ++w) ts.Count("served", w * 1000 + 1, 100);
  ts.Count("deadline_missed", 3001, 10);
  const TimeSeries::BurnRate burn = ts.SloBurn();
  // Short span (2 windows): 10 / 200 = 0.05 error rate over budget 0.1.
  EXPECT_DOUBLE_EQ(burn.short_burn, 0.5);
  // Long span (4 windows): 10 / 400 = 0.025 over 0.1.
  EXPECT_DOUBLE_EQ(burn.long_burn, 0.25);
}

TEST(TimeSeriesTest, SloBurnZeroWhenUnsetOrEmpty) {
  TimeSeries ts(SmallWindows());
  EXPECT_DOUBLE_EQ(ts.SloBurn().short_burn, 0.0);
  ts.SetSlo("bad", "total");
  EXPECT_DOUBLE_EQ(ts.SloBurn().long_burn, 0.0);  // total is 0.
}

TEST(TimeSeriesTest, ToJsonIsFeedingOrderInvariant) {
  TimeSeries a(SmallWindows());
  TimeSeries b(SmallWindows());
  a.SetSlo("deadline_missed", "served");
  b.SetSlo("deadline_missed", "served");
  // Same (timestamp, delta) multiset, interleaved differently.
  a.Count("served", 100, 2);
  a.Observe("latency_ns", 150, 42.0);
  a.Count("served", 1100, 1);
  a.Count("deadline_missed", 1200, 1);
  b.Count("deadline_missed", 1200, 1);
  b.Count("served", 1100, 1);
  b.Count("served", 100, 2);
  b.Observe("latency_ns", 150, 42.0);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_NE(a.ToJson().find("\"schema\": \"pimine.obs.timeseries.v1\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

TEST(EventLogTest, SamplingIsAPureHashOfSeedAndId) {
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(EventLog::Sampled(7, id, 0.5), EventLog::Sampled(7, id, 0.5));
    EXPECT_FALSE(EventLog::Sampled(7, id, 0.0));
    EXPECT_TRUE(EventLog::Sampled(7, id, 1.0));
  }
  // The kept fraction tracks the rate (hash uniformity, loose bounds).
  int kept = 0;
  for (uint64_t id = 0; id < 10000; ++id) {
    kept += EventLog::Sampled(13, id, 0.5) ? 1 : 0;
  }
  EXPECT_GT(kept, 4000);
  EXPECT_LT(kept, 6000);
  // Different seeds select different id sets.
  int differing = 0;
  for (uint64_t id = 0; id < 1000; ++id) {
    differing +=
        EventLog::Sampled(1, id, 0.5) != EventLog::Sampled(2, id, 0.5) ? 1 : 0;
  }
  EXPECT_GT(differing, 100);
}

TEST(EventLogTest, BoundedRingKeepsNewestSampledEvents) {
  EventLogOptions options;
  options.sample_rate = 1.0;
  options.capacity = 4;
  EventLog log(options);
  ASSERT_TRUE(log.enabled());
  for (uint64_t id = 0; id < 10; ++id) {
    QueryEvent e;
    e.query_id = id;
    log.Append(e);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.sampled_total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::string jsonl = log.ToJsonl();
  EXPECT_EQ(jsonl.find("\"query_id\": 5"), std::string::npos);
  EXPECT_NE(jsonl.find("\"query_id\": 6"), std::string::npos);
  EXPECT_NE(jsonl.find("\"query_id\": 9"), std::string::npos);
}

TEST(EventLogTest, DisabledLogAppendsNothing) {
  EventLog log;  // sample_rate = 0.
  EXPECT_FALSE(log.enabled());
  QueryEvent e;
  log.Append(e);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.ToJsonl(), "");
}

// ---------------------------------------------------------------------------
// Labeled metrics + strict Prometheus exposition
// ---------------------------------------------------------------------------

/// Strict structural check of a Prometheus text-format document: every
/// family has exactly one `# HELP` immediately followed by one `# TYPE`
/// before its samples, every sample line belongs to the most recent
/// family (allowing _bucket/_sum/_count for histograms), label blocks are
/// balanced, and values parse as numbers.
void CheckStrictExposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string family, type;
  bool expect_type = false;
  std::vector<std::string> seen_families;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      ASSERT_FALSE(expect_type) << "HELP not followed by TYPE: " << line;
      const size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos) << line;
      family = line.substr(7, space - 7);
      for (const std::string& f : seen_families) {
        ASSERT_NE(f, family) << "family emitted twice: " << family;
      }
      seen_families.push_back(family);
      expect_type = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(expect_type) << "TYPE without preceding HELP: " << line;
      expect_type = false;
      const size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos) << line;
      ASSERT_EQ(line.substr(7, space - 7), family) << line;
      type = line.substr(space + 1);
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      continue;
    }
    ASSERT_FALSE(expect_type) << "sample between HELP and TYPE: " << line;
    ASSERT_FALSE(family.empty()) << "sample before any HELP: " << line;
    // Name = up to '{' or ' '.
    const size_t brace = line.find('{');
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, std::min(brace, space));
    if (type == "histogram") {
      ASSERT_TRUE(name == family + "_bucket" || name == family + "_sum" ||
                  name == family + "_count")
          << "sample " << name << " outside family " << family;
    } else {
      ASSERT_EQ(name, family) << line;
    }
    if (brace != std::string::npos && brace < space) {
      // Label block must close before the value, with balanced quotes
      // (counting unescaped quotes only).
      const size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << line;
      int quotes = 0;
      for (size_t i = brace; i < close; ++i) {
        if (line[i] == '"' && line[i - 1] != '\\') ++quotes;
      }
      ASSERT_EQ(quotes % 2, 0) << "unbalanced quotes: " << line;
    }
    const std::string value = line.substr(line.rfind(' ') + 1);
    ASSERT_FALSE(value.empty()) << line;
    size_t parsed = 0;
    ASSERT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    ASSERT_EQ(parsed, value.size()) << "trailing junk in value: " << line;
  }
  ASSERT_FALSE(expect_type) << "dangling HELP at end of document";
}

TEST(MetricsRegistryTest, LabeledFamiliesExposeCleanly) {
  MetricsRegistry registry;
  registry.SetHelp("pimine_fleet_shard_pim_ns",
                   "Serial-equivalent device time per shard.");
  for (int shard = 3; shard >= 0; --shard) {
    registry
        .GetGauge("pimine_fleet_shard_pim_ns",
                  {{"shard", std::to_string(shard)}})
        .Set(100.0 * shard);
  }
  registry.GetCounter("pimine_serve_served_total").Add(42);
  Histogram h;
  h.Record(100.0);
  h.Record(5000.0);
  registry.MergeHistogram("pimine_serve_latency_ns", {{"tenant", "gold"}}, h);
  registry.MergeHistogram("pimine_serve_latency_ns", {{"tenant", "free"}}, h);
  const std::string text = registry.ToPrometheus();
  CheckStrictExposition(text);
  EXPECT_NE(text.find("pimine_fleet_shard_pim_ns{shard=\"3\"} 300"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pimine_fleet_shard_pim_ns gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("pimine_serve_latency_ns_bucket{tenant=\"gold\",le=\"127\"}"),
      std::string::npos);
  EXPECT_NE(text.find("pimine_serve_latency_ns_count{tenant=\"free\"} 2"),
            std::string::npos);
  // One HELP/TYPE pair per family, not per label combination.
  size_t help_count = 0, pos = 0;
  while ((pos = text.find("# HELP pimine_fleet_shard_pim_ns", pos)) !=
         std::string::npos) {
    ++help_count;
    ++pos;
  }
  EXPECT_EQ(help_count, 1u);
}

TEST(MetricsRegistryTest, LabelValueEscaping) {
  MetricsRegistry registry;
  registry.GetCounter("family", {{"k", "a\"b\\c\nd"}}).Add(1);
  const std::string text = registry.ToPrometheus();
  CheckStrictExposition(text);
  EXPECT_NE(text.find("family{k=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos)
      << text;
  // Help text escapes backslash and newline.
  registry.SetHelp("family", "line1\nline2\\end");
  EXPECT_NE(registry.ToPrometheus().find("# HELP family line1\\nline2\\\\end"),
            std::string::npos);
}

TEST(MetricsRegistryTest, SortedFamiliesStayContiguous) {
  MetricsRegistry registry;
  // "foo_bar" sorts BETWEEN "foo" and "foo{...}" byte-wise ('_' < '{');
  // the exposition must still keep family "foo" contiguous.
  registry.GetCounter("foo", {{"x", "1"}}).Add(1);
  registry.GetCounter("foo_bar").Add(2);
  registry.GetCounter("foo", {{"x", "0"}}).Add(3);
  CheckStrictExposition(registry.ToPrometheus());
}

// ---------------------------------------------------------------------------
// Histogram edge cases + JSON round trip
// ---------------------------------------------------------------------------

TEST(HistogramEdgeTest, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(empty.QuantileUpperBound(1.0), 0u);

  Histogram one;
  one.Record(1000.0);
  EXPECT_EQ(one.QuantileUpperBound(-1.0), 1023u);  // q <= 0 clamps to rank 1.
  EXPECT_EQ(one.QuantileUpperBound(0.0), 1023u);
  EXPECT_EQ(one.QuantileUpperBound(0.5), 1023u);
  EXPECT_EQ(one.QuantileUpperBound(1.0), 1000u);   // q >= 1 is the exact max.
  EXPECT_EQ(one.QuantileUpperBound(2.0), 1000u);

  // Power-of-two boundaries: bucket i covers [2^(i-1), 2^i).
  Histogram edges;
  edges.Record(1.0);
  EXPECT_EQ(edges.QuantileUpperBound(0.5), 1u);
  edges.Record(2.0);
  edges.Record(3.0);
  EXPECT_EQ(edges.QuantileUpperBound(1.0), 3u);
  EXPECT_EQ(edges.QuantileUpperBound(0.9), 3u);  // rank 3 -> bucket [2,4).
  edges.Record(4.0);
  EXPECT_EQ(edges.QuantileUpperBound(0.9), 7u);  // rank 4 -> bucket [4,8).

  // Clamp at kMaxTicks: oversized samples land in the last bucket.
  Histogram big;
  big.Record(static_cast<double>(Histogram::kMaxTicks) * 4.0);
  EXPECT_EQ(big.max_ticks(), Histogram::kMaxTicks);
  EXPECT_EQ(big.QuantileUpperBound(1.0), Histogram::kMaxTicks);
  EXPECT_EQ(big.bucket(Histogram::kNumBuckets - 1), 1u);

  // Zero and negative samples occupy bucket 0 with upper edge 0.
  Histogram zero;
  zero.Record(0.0);
  zero.Record(-5.0);
  EXPECT_EQ(zero.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(zero.count(), 2u);
}

// ---------------------------------------------------------------------------
// Embedded exposition endpoint
// ---------------------------------------------------------------------------

/// Minimal test client: one GET, reads until the peer closes.
std::string HttpGet(int port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST(ExpositionServerTest, ServesRoutesAndRejectsEverythingElse) {
  std::vector<obs::HttpRoute> routes;
  routes.push_back({"/metrics", "text/plain; version=0.0.4; charset=utf-8",
                    [] { return std::string("pimine_up 1\n"); }});
  routes.push_back(
      {"/healthz", "text/plain; charset=utf-8", [] { return "ok\n"; }});
  auto server = obs::ExpositionServer::Start(0, std::move(routes));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  const std::string health = HttpGet(port, "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string metrics = HttpGet(port, "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("pimine_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);

  // Query strings are stripped before route matching.
  EXPECT_NE(HttpGet(port, "GET /healthz?x=1 HTTP/1.0").find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "GET /nope HTTP/1.0").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "POST /metrics HTTP/1.0").find("405"),
            std::string::npos);
  EXPECT_GE((*server)->requests_served(), 5u);

  (*server)->Stop();
  (*server)->Stop();  // idempotent.
}

// ---------------------------------------------------------------------------
// Per-shard fleet health == aggregate accounting
// ---------------------------------------------------------------------------

TEST(FleetHealthTest, PerShardTotalsEqualFleetAggregates) {
  const FloatMatrix data = RandomUnitMatrix(200, 24, 3);
  const FloatMatrix queries = RandomUnitMatrix(32, 24, 5);
  EngineOptions engine_options;
  engine_options.pim_config.num_crossbars = 4096;
  engine_options.shard.shards = 4;
  serve::ServeOptions serve_options;
  serve_options.max_batch = 8;
  serve_options.k = 5;
  serve_options.exec.device_batch = 4;
  auto server = serve::PimServer::Build(data, Distance::kEuclidean,
                                        engine_options, serve_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  serve::WorkloadSpec spec;
  spec.num_requests = 64;
  spec.offered_qps = 2e6;
  spec.tenant_share = {1.0};
  spec.num_query_rows = 32;
  spec.seed = 17;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());
  auto output = (*server)->Replay(*trace, queries);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  const ShardedPimEngine& fleet = (*server)->engine();
  ASSERT_EQ(fleet.shards(), 4u);
  const FleetRunStats aggregate = fleet.FleetStats();
  ASSERT_GT(aggregate.scatter_messages, 0u);

  uint64_t scatter_messages = 0, scatter_bytes = 0;
  uint64_t gather_messages = 0, gather_bytes = 0;
  uint64_t failovers = 0, failed_over = 0, queries_processed = 0;
  double scatter_ns = 0.0, gather_ns = 0.0, pim_ns = 0.0;
  const uint64_t shard0_queries = fleet.ShardHealthSnapshot(0).queries_processed;
  for (size_t j = 0; j < fleet.shards(); ++j) {
    const ShardedPimEngine::ShardHealth h = fleet.ShardHealthSnapshot(j);
    scatter_messages += h.scatter_messages;
    scatter_bytes += h.scatter_bytes;
    gather_messages += h.gather_messages;
    gather_bytes += h.gather_bytes;
    failovers += h.failovers;
    failed_over += h.failed_over_queries;
    queries_processed += h.queries_processed;
    scatter_ns += h.scatter_ns;
    gather_ns += h.gather_ns;
    pim_ns += h.pim_ns;
    EXPECT_GT(h.batch_ops, 0u) << "shard " << j << " idle";
    EXPECT_GT(h.pim_ns, 0.0) << "shard " << j;
    // Every shard matches every served query (scatter is a broadcast), so
    // the device-side query accounting is identical across shards.
    EXPECT_EQ(h.queries_processed, shard0_queries) << "shard " << j;
  }
  // Integer counters: exact equality with the fleet aggregates.
  EXPECT_EQ(scatter_messages, aggregate.scatter_messages);
  EXPECT_EQ(scatter_bytes, aggregate.scatter_bytes);
  EXPECT_EQ(gather_messages, aggregate.gather_messages);
  EXPECT_EQ(gather_bytes, aggregate.gather_bytes);
  EXPECT_EQ(failovers, aggregate.failovers);
  EXPECT_EQ(failed_over, aggregate.failed_over_queries);
  // Every shard sees every served query (once per device on the shard), so
  // the fleet-wide device query count is a positive multiple of served.
  ASSERT_GT(output->stats.served, 0u);
  EXPECT_EQ(queries_processed % (output->stats.served * fleet.shards()), 0u);
  EXPECT_GE(queries_processed, output->stats.served * fleet.shards());
  // Derived ns figures agree up to float re-association.
  EXPECT_NEAR(scatter_ns, aggregate.scatter_ns,
              1e-9 * (1.0 + aggregate.scatter_ns));
  EXPECT_NEAR(gather_ns, aggregate.gather_ns,
              1e-9 * (1.0 + aggregate.gather_ns));
  EXPECT_GT(pim_ns, 0.0);

  // The labeled export carries one combination per shard and passes the
  // strict exposition check alongside the serve families.
  MetricsRegistry registry;
  fleet.ExportMetrics(&registry);
  const std::string text = registry.ToPrometheus();
  CheckStrictExposition(text);
  for (size_t j = 0; j < fleet.shards(); ++j) {
    EXPECT_NE(
        text.find("pimine_fleet_shard_queries_total{shard=\"" +
                  std::to_string(j) + "\"}"),
        std::string::npos);
  }
  EXPECT_NE(text.find("pimine_fleet_shards 4"), std::string::npos);

  // MetricsText() (the /metrics handler) merges serve + fleet families
  // into one strict document. The serve families report LIVE-mode totals:
  // run a short live phase and check the scrape against it exactly.
  ASSERT_TRUE((*server)->Start().ok());
  uint64_t live_served = 0;
  for (int i = 0; i < 20; ++i) {
    auto result =
        (*server)->Submit(0, queries.row(static_cast<size_t>(i) % 32));
    ASSERT_TRUE(result.ok());
    live_served += result->status.ok() ? 1 : 0;
  }
  (*server)->Stop();
  EXPECT_EQ(live_served, 20u);
  const std::string scraped = (*server)->MetricsText();
  CheckStrictExposition(scraped);
  EXPECT_NE(scraped.find("pimine_serve_served_total " +
                         std::to_string(live_served)),
            std::string::npos)
      << scraped;
  EXPECT_NE(scraped.find("pimine_serve_submitted_total 20"),
            std::string::npos);
  EXPECT_NE(scraped.find("shard=\"3\""), std::string::npos);
  // The live timeseries/event documents are now populated too.
  EXPECT_NE((*server)->TimeSeriesJson().find("\"served\""),
            std::string::npos);
}

// The fleet's modeled PIM time is the max over the shard snapshots' pim_ns,
// bit for bit, also when chaos makes replicas serve (a shard's figure then
// sums both replicas, each over its two FNN devices).
TEST(FleetHealthTest, PimComputeNsIsTheMaxOfShardSnapshotsUnderChaos) {
  const FloatMatrix data = RandomUnitMatrix(200, 24, 3);
  const FloatMatrix queries = RandomUnitMatrix(32, 24, 5);
  EngineOptions engine_options;
  engine_options.pim_config.num_crossbars = 4096;
  engine_options.bound = EngineOptions::Bound::kSegmentFnn;
  engine_options.shard.shards = 2;
  engine_options.shard.replicas = 2;
  serve::ServeOptions serve_options;
  serve_options.max_batch = 8;
  serve_options.k = 5;
  serve_options.exec.device_batch = 4;
  serve_options.chaos.device_deaths = 2;
  serve_options.chaos.horizon_ns = 50000;
  auto server = serve::PimServer::Build(data, Distance::kEuclidean,
                                        engine_options, serve_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  serve::WorkloadSpec spec;
  spec.num_requests = 128;
  spec.offered_qps = 2e6;
  spec.tenant_share = {1.0};
  spec.num_query_rows = 32;
  spec.seed = 17;
  auto trace = serve::GeneratePoissonTrace(spec);
  ASSERT_TRUE(trace.ok());
  auto output = (*server)->Replay(*trace, queries);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  const ShardedPimEngine& fleet = (*server)->engine();
  ASSERT_EQ(fleet.shard_engine(0).num_devices(), 2u);
  EXPECT_GT(fleet.FleetStats().failover.recovered, 0u);
  double max_pim_ns = 0.0;
  bool replica_ran = false;
  for (size_t j = 0; j < fleet.shards(); ++j) {
    max_pim_ns = std::max(max_pim_ns, fleet.ShardHealthSnapshot(j).pim_ns);
    replica_ran = replica_ran ||
                  fleet.replica_engine(j, 1).DeviceStatsTotal().pim_ns > 0.0;
  }
  EXPECT_TRUE(replica_ran);
  EXPECT_EQ(fleet.PimComputeNs(), max_pim_ns);
  EXPECT_EQ(output->stats.exec.pim_ns, max_pim_ns);
}

}  // namespace
}  // namespace pimine
