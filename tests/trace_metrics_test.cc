// Unit tests for the observability primitives: log-bucketed histogram math
// (boundaries, exact merging, quantile upper bounds vs. the sorted exact
// order statistic), trace JSON well-formedness and deterministic assembly,
// the span balance invariant, and metrics-registry reset semantics; plus the
// opt-in physical trace events of a real PIM kNN run.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_engine.h"
#include "knn/standard_pim_knn.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceOptions;
using obs::TraceRecorder;

// Structural JSON checker: string-aware brace/bracket balance. Not a full
// parser (CI runs python -m json.tool on real CLI output), but enough to
// catch unterminated strings, unbalanced containers, and escaping bugs.
bool JsonWellFormed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !s.empty() && s.front() == '{' && !in_string && stack.empty();
}

// The same clamping/rounding Record() applies, for computing expectations.
uint64_t TicksOf(double ns) {
  if (!(ns > 0.0)) return 0;
  if (ns >= static_cast<double>(Histogram::kMaxTicks)) {
    return Histogram::kMaxTicks;
  }
  return static_cast<uint64_t>(std::llround(ns));
}

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketUpperEdge(0), 0u);
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    const uint64_t lo = 1ULL << (i - 1);  // inclusive lower edge.
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "bucket " << i;
    const uint64_t hi = (i < 63) ? (1ULL << i) - 1
                                 : Histogram::kMaxTicks;  // clamp ceiling.
    EXPECT_EQ(Histogram::BucketIndex(hi), i) << "bucket " << i;
    if (i < 63) {
      EXPECT_EQ(Histogram::BucketUpperEdge(i), (1ULL << i) - 1);
      EXPECT_EQ(Histogram::BucketIndex(hi + 1), i + 1) << "bucket " << i;
    }
  }
}

TEST(HistogramTest, RecordClampsAndRounds) {
  Histogram h;
  h.Record(-5.0);  // clamps to 0.
  h.Record(0.0);
  h.Record(0.4);  // rounds to 0.
  EXPECT_EQ(h.bucket(0), 3u);
  h.Record(2.6);  // rounds to 3 ticks -> bucket 2 ([2, 4)).
  EXPECT_EQ(h.bucket(2), 1u);
  h.Record(4.0);  // bucket 3 ([4, 8)).
  EXPECT_EQ(h.bucket(3), 1u);
  h.Record(1e300);  // clamps to kMaxTicks -> last bucket.
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.max_ticks(), Histogram::kMaxTicks);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum_ticks(), 0u + 0u + 0u + 3u + 4u + Histogram::kMaxTicks);
}

TEST(HistogramTest, MergeIsExactForAnyPartitionAndOrder) {
  Rng rng(7);
  std::vector<double> samples(1000);
  for (double& ns : samples) {
    ns = rng.NextFloat() * 2e6 - 1e3;  // includes negatives (clamped).
  }

  Histogram reference;
  for (double ns : samples) reference.Record(ns);

  // Partition into P parts round-robin, merge in several different
  // groupings; every result must be bit-identical to the reference.
  for (size_t parts : {2u, 3u, 7u}) {
    std::vector<Histogram> shard(parts);
    for (size_t i = 0; i < samples.size(); ++i) {
      shard[i % parts].Record(samples[i]);
    }

    // Left fold: ((s0 + s1) + s2) + ...
    Histogram left;
    for (const Histogram& s : shard) left.Merge(s);
    EXPECT_TRUE(left == reference) << parts << " parts, left fold";

    // Right-leaning fold in reverse order: s_{P-1} + (... + s0).
    Histogram right;
    for (size_t i = parts; i-- > 0;) right.Merge(shard[i]);
    EXPECT_TRUE(right == reference) << parts << " parts, reverse fold";

    // Pairwise tree merge (associativity across a different shape).
    std::vector<Histogram> level = shard;
    while (level.size() > 1) {
      std::vector<Histogram> next;
      for (size_t i = 0; i < level.size(); i += 2) {
        Histogram h = level[i];
        if (i + 1 < level.size()) h.Merge(level[i + 1]);
        next.push_back(h);
      }
      level = std::move(next);
    }
    EXPECT_TRUE(level[0] == reference) << parts << " parts, tree merge";
  }
}

TEST(HistogramTest, QuantileUpperBoundBracketsSortedExact) {
  Rng rng(11);
  std::vector<double> samples(513);
  for (double& ns : samples) ns = rng.NextFloat() * 5e5;

  Histogram h;
  std::vector<uint64_t> ticks;
  for (double ns : samples) {
    h.Record(ns);
    ticks.push_back(TicksOf(ns));
  }
  std::sort(ticks.begin(), ticks.end());

  for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(ticks.size()))));
    const uint64_t exact = ticks[rank - 1];
    const uint64_t bound = h.QuantileUpperBound(q);
    // The reported bound is the inclusive upper edge of the bucket holding
    // the exact order statistic: never below it, never a full bucket above.
    EXPECT_EQ(bound,
              Histogram::BucketUpperEdge(Histogram::BucketIndex(exact)))
        << "q=" << q;
    EXPECT_GE(bound, exact) << "q=" << q;
  }
  EXPECT_EQ(h.QuantileUpperBound(1.0), ticks.back());  // exact max.
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  h.Record(100.0);
  h.Reset();
  EXPECT_TRUE(h == Histogram());
  EXPECT_NE(h.Summary().find("count=0"), std::string::npos);
}

TEST(TraceRecorderTest, SpanBalanceInvariant) {
  TraceRecorder recorder{TraceOptions()};
  EXPECT_EQ(recorder.OpenSpans(), 0);
  recorder.Begin("t", "outer", 0);
  EXPECT_EQ(recorder.OpenSpans(), 1);
  recorder.Begin("t", "inner", 0);
  EXPECT_EQ(recorder.OpenSpans(), 2);
  recorder.End("t", "inner", 0, 30.0);
  recorder.End("t", "outer", 0, 100.0);
  EXPECT_EQ(recorder.OpenSpans(), 0);
  recorder.Complete("t", "solo", 0, 50.0);
  EXPECT_EQ(recorder.OpenSpans(), 0);  // X never opens.
  EXPECT_EQ(recorder.NumEvents(), 5u);
}

TEST(TraceRecorderTest, ChromeJsonIsWellFormedAndDeterministic) {
  TraceRecorder recorder{TraceOptions()};
  recorder.Begin("engine", "query", 3);
  recorder.Complete("engine", "quantize", 3, 40.0);
  recorder.End("engine", "query", 3, 100.0, "query_id", 3);
  recorder.Complete("kmeans", "iteration", obs::kRunTrack, 12.5);

  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("quantize"), std::string::npos);
  EXPECT_NE(json.find("iteration"), std::string::npos);
  EXPECT_NE(json.find("query_id"), std::string::npos);
  // Default domain: no wall stamps in the output.
  EXPECT_EQ(json.find("wall_ns"), std::string::npos);
  // Deterministic: a second export is byte-identical.
  EXPECT_EQ(json, recorder.ToChromeJson());
}

// The exported timeline must not depend on which thread recorded which
// track: same spans recorded (a) by one thread and (b) by two threads in
// reverse registration order export byte-identical JSON.
TEST(TraceRecorderTest, ExportIndependentOfRecordingThread) {
  TraceRecorder serial{TraceOptions()};
  serial.Complete("t", "alpha", 5, 10.0);
  serial.Complete("t", "beta", 9, 20.0);

  TraceRecorder threaded{TraceOptions()};
  std::thread t1([&] { threaded.Complete("t", "beta", 9, 20.0); });
  t1.join();
  std::thread t2([&] { threaded.Complete("t", "alpha", 5, 10.0); });
  t2.join();

  EXPECT_EQ(serial.ToChromeJson(), threaded.ToChromeJson());
}

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("pimine_test_total");
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Value(), 6u);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.GetCounter("pimine_test_total"), &c);
  registry.GetGauge("pimine_test_gauge").Set(2.5);
  EXPECT_EQ(registry.GetGauge("pimine_test_gauge").Value(), 2.5);
  EXPECT_EQ(registry.NumInstruments(), 2u);
}

TEST(MetricsRegistryTest, ResetKeepsRegistrationsAndReferences) {
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("pimine_reset_total");
  c.Add(7);
  registry.GetGauge("pimine_reset_gauge").Set(1.0);
  Histogram samples;
  samples.Record(100.0);
  registry.MergeHistogram("pimine_reset_ns", samples);
  ASSERT_EQ(registry.NumInstruments(), 3u);

  registry.Reset();
  // Registrations survive; values are zeroed; old references stay valid.
  EXPECT_EQ(registry.NumInstruments(), 3u);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(registry.GetGauge("pimine_reset_gauge").Value(), 0.0);
  EXPECT_EQ(registry.GetHistogramSnapshot("pimine_reset_ns").count(), 0u);
  c.Add(3);
  EXPECT_EQ(registry.GetCounter("pimine_reset_total").Value(), 3u);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry registry;
  registry.GetCounter("pimine_ops_total").Add(42);
  Histogram samples;
  samples.Record(3.0);     // bucket 2.
  samples.Record(1000.0);  // bucket 10.
  registry.MergeHistogram("pimine_lat_ns", samples);

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# TYPE pimine_ops_total counter\n"
                      "pimine_ops_total 42\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pimine_lat_ns histogram"), std::string::npos);
  // Cumulative buckets: the le="+Inf" line carries the total count, and the
  // _count/_sum series agree with the histogram.
  EXPECT_NE(text.find("pimine_lat_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pimine_lat_ns_sum 1003"), std::string::npos) << text;
  EXPECT_NE(text.find("pimine_lat_ns_count 2"), std::string::npos) << text;
  // Deterministic byte output.
  EXPECT_EQ(text, registry.ToPrometheus());
}

TEST(MetricsRegistryTest, JsonExposition) {
  MetricsRegistry registry;
  registry.GetCounter("pimine_ops_total").Add(1);
  registry.GetGauge("pimine_alpha").Set(0.5);
  Histogram samples;
  samples.Record(12.0);
  registry.MergeHistogram("pimine_lat_ns", samples);

  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("pimine_ops_total"), std::string::npos);
  EXPECT_NE(json.find("pimine_alpha"), std::string::npos);
  EXPECT_NE(json.find("pimine_lat_ns"), std::string::npos);
}

TEST(ObsTest, DisabledIsNullObjectFastPath) {
  ASSERT_EQ(obs::Obs::Get(), nullptr);  // disabled by default.
  EXPECT_FALSE(obs::Obs::Enabled());
  // Every instrumentation shape must be a no-op without an instance.
  obs::AddCounter("pimine_noop_total", 3);
  Histogram latency;
  {
    obs::ModeledSpan query(0, &latency);
    obs::ModeledSpan iteration("t", "noop", &latency);
    obs::SchedSpan sched(0, 0, 1);
  }
  EXPECT_EQ(latency.count(), 0u);
}

TEST(ObsTest, EnableDisableLifecycle) {
  obs::Obs::Enable();
  ASSERT_TRUE(obs::Obs::Enabled());
  obs::AddCounter("pimine_life_total", 2);
  Histogram latency;
  { obs::ModeledSpan query(4, &latency); }
  EXPECT_EQ(latency.count(), 1u);
  obs::Obs* o = obs::Obs::Get();
  EXPECT_EQ(o->metrics().GetCounter("pimine_life_total").Value(), 2u);
  EXPECT_EQ(o->trace().OpenSpans(), 0);
  EXPECT_GE(o->trace().NumEvents(), 2u);  // query B/E.
  obs::Obs::Disable();
  EXPECT_EQ(obs::Obs::Get(), nullptr);
}

TEST(ObsTest, TrackBaseScoping) {
  EXPECT_EQ(obs::CurrentTrackBase(), obs::kNoTrackBase);
  EXPECT_EQ(obs::TrackFor(3), obs::kRunTrack);  // unset -> run track.
  {
    obs::ScopedTrackBase base(10);
    EXPECT_EQ(obs::TrackFor(3), 13);
    {
      obs::ScopedTrackBase inner(100);
      EXPECT_EQ(obs::TrackFor(0), 100);
    }
    EXPECT_EQ(obs::TrackFor(3), 13);  // restored on scope exit.
    // A serving dispatch installs its members' own (non-contiguous) ids.
    const int64_t ids[] = {7, 2, 40};
    {
      obs::ScopedTrackBase members(ids);
      EXPECT_EQ(obs::TrackFor(0), 7);
      EXPECT_EQ(obs::TrackFor(2), 40);
      obs::ScopedTrackBase inner(100);  // the innermost scope wins.
      EXPECT_EQ(obs::TrackFor(2), 102);
    }
    EXPECT_EQ(obs::TrackFor(3), 13);
  }
  EXPECT_EQ(obs::CurrentTrackBase(), obs::kNoTrackBase);
}

// The opt-in physical events of a Standard-PIM Search at two threads and
// device batches of four: one dot_batch device event per device batch op,
// chunk spans on the scheduling tracks, and a wall_ns on every event. With
// the three options off, the trace is the default-options trace.
TEST(TraceOptionsTest, PhysicalEventsOfAPimSearch) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(300, 24, 11);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(10, 24, 12);
  uint64_t batch_ops = 0;
  const auto traced_search = [&](const obs::ObsOptions& options) {
    obs::Obs::Enable(options);
    StandardPimKnn algorithm(Distance::kEuclidean, EngineOptions());
    EXPECT_TRUE(algorithm.Prepare(data).ok());
    ExecPolicy policy = ExecPolicy::WithThreads(2);
    policy.device_batch = 4;
    algorithm.set_exec_policy(policy);
    EXPECT_TRUE(algorithm.Search(queries, 5).ok());
    const ShardedPimEngine& fleet = *algorithm.engine();
    batch_ops = 0;
    for (size_t j = 0; j < fleet.shards(); ++j) {
      batch_ops += fleet.ShardHealthSnapshot(j).batch_ops;
    }
    const std::string json = obs::Obs::Get()->trace().ToChromeJson();
    obs::Obs::Disable();
    return json;
  };

  obs::ObsOptions physical;
  physical.trace.wall_clock = true;
  physical.trace.device_events = true;
  physical.trace.sched_events = true;
  const std::string json = traced_search(physical);
  EXPECT_TRUE(JsonWellFormed(json));
  uint64_t dot_batches = 0, chunks = 0, events = 0;
  size_t line_start = 0;
  while (line_start < json.size()) {
    size_t line_end = json.find('\n', line_start);
    if (line_end == std::string::npos) line_end = json.size();
    const std::string line = json.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.rfind("{\"ph\":", 0) != 0) continue;
    ++events;
    const size_t wall = line.find("\"wall_ns\":");
    ASSERT_NE(wall, std::string::npos) << line;
    EXPECT_NE(line[wall + 10], '-') << line;
    if (line.find("\"cat\":\"device\",\"name\":\"dot_batch\"") !=
        std::string::npos) {
      ++dot_batches;
    }
    if (line.find("\"cat\":\"sched\",\"name\":\"chunk\"") !=
        std::string::npos) {
      ++chunks;
      const int64_t tid = std::stoll(line.substr(line.find("\"tid\":") + 6));
      EXPECT_LE(tid, obs::kSchedTrackBase) << line;
    }
  }
  EXPECT_GT(batch_ops, 0u);
  EXPECT_EQ(dot_batches, batch_ops);
  EXPECT_GT(chunks, 0u);
  EXPECT_GT(events, dot_batches + chunks);

  obs::ObsOptions off;
  off.trace.wall_clock = false;
  off.trace.device_events = false;
  off.trace.sched_events = false;
  const std::string off_json = traced_search(off);
  EXPECT_EQ(off_json, traced_search(obs::ObsOptions()));
  EXPECT_EQ(off_json.find("wall_ns"), std::string::npos);
  EXPECT_EQ(off_json.find("dot_batch"), std::string::npos);
  EXPECT_EQ(off_json.find("\"chunk\""), std::string::npos);
}

}  // namespace
}  // namespace pimine
