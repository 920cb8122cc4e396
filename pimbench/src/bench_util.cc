#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace pimbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"host_qps", "1/s"},
      {"modeled_us_per_query", "us"},
      {"modeled_p50_us", "us"},
      {"modeled_p99_us", "us"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"data.gen_ms", "ms"},
      {"build.host_ms", "ms"},
      {"build.offline_modeled_ms", "ms"},
      {"build.bytes_written", "bytes"},
      {"prepare.ns_per_query", "ns"},
      {"device.host_ms", "ms"},
      {"device.products_per_s", "1/s"},
      {"device.batch_ops", "count"},
      {"device.queries_per_batch", "count"},
      {"device.modeled_ns", "ns"},
      {"device.pipelined_ns", "ns"},
      {"bound.host_ms", "ms"},
      {"bound.ns_per_eval", "ns"},
      {"bound.evals", "count"},
      {"order.host_ms", "ms"},
      {"order.ns_per_element", "ns"},
      {"refine.host_ms", "ms"},
      {"refine.exact", "count"},
      {"refine.prune_ratio", "ratio"},
      {"knn.standard.host_ms_per_query", "ms"},
      {"knn.sm.host_ms_per_query", "ms"},
      {"knn.ost.host_ms_per_query", "ms"},
      {"knn.fnn.host_ms_per_query", "ms"},
      {"kmeans.begin.host_ms", "ms"},
      {"kmeans.assign.host_ms", "ms"},
      {"kmeans.update.host_ms", "ms"},
      {"assign.bound_evals", "count"},
      {"assign.exact", "count"},
      {"assign.prune_ratio", "ratio"},
      {"kmeans.lloyd.host_ms_per_iter", "ms"},
      {"kmeans.elkan.host_ms_per_iter", "ms"},
      {"kmeans.hamerly.host_ms_per_iter", "ms"},
      {"kmeans.drake.host_ms_per_iter", "ms"},
      {"kmeans.yinyang.host_ms_per_iter", "ms"},
      {"fleet.scatter_bytes", "bytes"},
      {"fleet.gather_bytes", "bytes"},
      {"fleet.reduce_messages", "count"},
      {"fleet.interconnect_modeled_ns", "ns"},
      {"failover.injected", "count"},
      {"failover.recovered", "count"},
      {"failover.shed", "count"},
      {"failover.backoff_ns", "ns"},
      {"serve.host_us_per_query", "us"},
      {"serve.dispatches", "count"},
      {"serve.occupancy", "count"},
      {"serve.max_queue_depth", "count"},
      {"serve.wait_p99_us", "us"},
      {"serve.p99_us.x0.5", "us"},
      {"serve.p99_us.x1", "us"},
      {"serve.p99_us.x2", "us"},
      {"serve.p99_us.x4", "us"},
      {"serve.self_cpu_ms", "ms"},
      {"serve.modeled_qps", "1/s"},
      {"serve.slo_qps", "1/s"},
      {"mutation.insert_us_per_row", "us"},
      {"mutation.delete_us", "us"},
      {"mutation.compact_ms", "ms"},
      {"mutation.compactions", "count"},
      {"mutation.write_amp", "ratio"},
      {"mutation.modeled_program_ns", "ns"},
      {"mutation.ingest_rows_per_s", "1/s"},
      {"trace.untraced_host_ms", "ms"},
      {"trace.traced_host_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"error_rate", "ratio"},
  };
  return kMetrics;
}

namespace {

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Row(const std::string& name, double value,
                 const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  table.emplace_back(name, std::string(buf) + " " + unit);
}

void Report::Fail(const std::string& why, uint64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(why);
}

void PrintReport(const Args& args, const Report& report) {
  std::cout << "== pimbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " ==\n";
  size_t width = 0;
  for (const auto& [name, text] : report.table) {
    width = std::max(width, name.size());
  }
  for (const auto& [name, text] : report.table) {
    std::cout << "  " << name << std::string(width + 2 - name.size(), ' ')
              << text << "\n";
  }
  std::cout << "  fingerprint" << std::string(width + 2 - 11, ' ')
            << report.fingerprint << "\n";
  for (const std::string& e : report.errors) {
    std::cout << "  ERROR " << e << "\n";
  }

  const bool correct = report.failed == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  const auto& catalog = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const auto it = report.values.find(catalog[i].name);
    double v = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    json << (i == 0 ? "" : ", ") << "\"" << catalog[i].name
         << "\": {\"value\": " << FormatValue(v) << ", \"unit\": \""
         << catalog[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Fingerprint::Mix(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<uint8_t>(c);
    hash_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(std::string_view key, uint64_t value) {
  Mix(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "=%llx;",
                static_cast<unsigned long long>(value));
  Mix(buf);
}

void Fingerprint::Add(std::string_view key, double value) {
  Add(key, std::bit_cast<uint64_t>(value));
}

void Fingerprint::Add(std::string_view key, const pimine::TrafficCounters& t) {
  Mix(key);
  Add("bytes_from_memory", t.bytes_from_memory);
  Add("bytes_to_memory", t.bytes_to_memory);
  Add("arithmetic_ops", t.arithmetic_ops);
  Add("long_ops", t.long_ops);
  Add("branches", t.branches);
  Add("pim_results_loaded", t.pim_results_loaded);
}

void Fingerprint::Add(std::string_view key, const pimine::FleetRunStats& f) {
  Mix(key);
  Add("scatter_messages", f.scatter_messages);
  Add("scatter_bytes", f.scatter_bytes);
  Add("gather_messages", f.gather_messages);
  Add("gather_bytes", f.gather_bytes);
  Add("reduce_messages", f.reduce_messages);
  Add("reduce_bytes", f.reduce_bytes);
  Add("failovers", f.failovers);
  Add("failed_over_queries", f.failed_over_queries);
  Add("fo.injected", f.failover.injected);
  Add("fo.recovered", f.failover.recovered);
  Add("fo.shed", f.failover.shed);
  Add("fo.attempts_failed", f.failover.attempts_failed);
  Add("fo.chaos_denied", f.failover.chaos_denied);
  Add("fo.strikes", f.failover.strikes);
  Add("fo.struck_out", f.failover.struck_out);
  Add("fo.retry_bytes", f.failover.retry_bytes);
  Add("fo.backoff_ns", f.failover.backoff_ns);
  Add("appended_rows", f.appended_rows);
  Add("deleted_rows", f.deleted_rows);
  Add("compactions", f.compactions);
  Add("compacted_rows", f.compacted_rows);
  Add("delta_rows", f.delta_rows);
  Add("tombstoned_rows", f.tombstoned_rows);
  Add("row_writes", f.row_writes);
}

void Fingerprint::Add(std::string_view key, const pimine::RunStats& s) {
  Mix(key);
  Add("traffic", s.traffic);
  Add("pim_ns", s.pim_ns);
  Add("exact_count", s.exact_count);
  Add("bound_count", s.bound_count);
  Add("fleet", s.fleet);
}

std::string Fingerprint::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::MoveTo(size_t kind, size_t repeat) {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[(kind + repeat) % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void BestOfRepeats::Record(size_t kind, int64_t ns) {
  int64_t& best = best_ns_[kind];
  if (best < 0 || ns < best) best = ns;
}

double BestOfRepeats::CycleSeconds() const {
  int64_t total = 0;
  for (const int64_t ns : best_ns_) total += ns;
  return total / 1e9;
}

DeviceTotals& DeviceTotals::operator+=(const DeviceTotals& o) {
  batch_ops += o.batch_ops;
  queries += o.queries;
  compute_ns += o.compute_ns;
  pipelined_ns += o.pipelined_ns;
  program_ns += o.program_ns;
  row_writes += o.row_writes;
  return *this;
}

DeviceTotals DeviceTotals::operator-(const DeviceTotals& o) const {
  DeviceTotals d;
  d.batch_ops = batch_ops - o.batch_ops;
  d.queries = queries - o.queries;
  d.compute_ns = compute_ns - o.compute_ns;
  d.pipelined_ns = pipelined_ns - o.pipelined_ns;
  d.program_ns = program_ns - o.program_ns;
  d.row_writes = row_writes - o.row_writes;
  return d;
}

DeviceTotals SumDevices(const pimine::ShardedPimEngine& fleet) {
  DeviceTotals t;
  for (size_t j = 0; j < fleet.shards(); ++j) {
    for (int r = 0; r < fleet.replicas(); ++r) {
      const pimine::PimEngine& e = fleet.replica_engine(j, r);
      for (const pimine::PimDevice* d : {&e.device1(), e.device2()}) {
        if (d == nullptr) continue;
        const pimine::PimDeviceStats s = d->StatsSnapshot();
        t.batch_ops += s.batch_ops;
        t.queries += s.queries_processed;
        t.compute_ns += s.compute_ns;
        t.pipelined_ns += s.pipelined_ns;
        t.program_ns += s.program_ns;
        t.row_writes += s.row_writes;
      }
    }
  }
  return t;
}

int32_t Tracer::Begin(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::SelfNsByName() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
        << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string SpanPath(const Args& args) {
  return ".bench_build/spans/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

void FinishTrace(const Args& args, const Tracer& tracer, double units,
                 const std::string& unit, double untraced_ms_per_unit,
                 double traced_ms_per_unit, Report* report) {
  const auto self = tracer.SelfNsByName();
  const auto is_setup = [](const std::string& name) {
    return name == "data.gen" || name == "build";
  };
  double loop_ns = 0.0;
  for (const auto& [name, ns] : self) loop_ns += is_setup(name) ? 0.0 : ns;
  for (const auto& [name, ns] : self) {
    if (is_setup(name)) {
      report->Row("self " + name, ns / 1e6, "ms (set-up, once)");
      continue;
    }
    char share[32];
    std::snprintf(share, sizeof(share), "%.1f%%", 100.0 * ns / loop_ns);
    report->Row("self " + name, ns / 1e6 / units,
                "ms per " + unit + " (" + share + " of traced loop)");
  }
  report->Set("trace.untraced_host_ms", untraced_ms_per_unit);
  report->Set("trace.traced_host_ms", traced_ms_per_unit);
  report->Set("trace.overhead_ratio",
              traced_ms_per_unit / untraced_ms_per_unit);
  report->Row("trace.untraced_host_ms", untraced_ms_per_unit,
              "ms per " + unit + " (interleaved untraced units)");
  report->Row("trace.traced_host_ms", traced_ms_per_unit, "ms per " + unit);
  report->Row("trace.overhead_ratio", traced_ms_per_unit / untraced_ms_per_unit,
              "");
  if (!tracer.WriteJson(SpanPath(args))) {
    report->Fail("cannot write " + SpanPath(args));
  }
}

double SelfNs(const std::map<std::string, double>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

}  // namespace pimbench
