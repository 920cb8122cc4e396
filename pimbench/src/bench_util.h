// Shared plumbing of the pimine benchmark: command-line arguments, the
// metric catalog and report printer, the modeled-stats fingerprint, host
// clocks, and the in-memory span tracer of the traced mode.
#ifndef PIMBENCH_BENCH_UTIL_H_
#define PIMBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_engine.h"
#include "pim/fleet.h"
#include "profiling/run_stats.h"
#include "sim/traffic.h"

namespace pimbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One metric of the catalog: every run of every workload reports every
/// metric of its mode (end-to-end untraced, per-layer traced), so two runs
/// always compare name for name.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run produced. `values` holds catalog metrics (missing
/// per-layer metrics print as 0: the layer did no work on this workload);
/// `table` holds the human-readable rows printed before the JSON line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> table;
  std::string fingerprint;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Row(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& name, const std::string& text) {
    table.emplace_back(name, text);
  }
  /// Counts `count` failed operations (non-OK statuses or answers that
  /// disagree with the oracle) and keeps the first few reasons.
  void Fail(const std::string& why, uint64_t count = 1);
};

/// Prints the report's table, then the one-line JSON result of the mode.
void PrintReport(const Args& args, const Report& report);

// --- Seeds ---------------------------------------------------------------
/// SplitMix64 of (a, b): derives every generator seed from the one --seed.
uint64_t Mix(uint64_t a, uint64_t b);

// --- Modeled-stats fingerprint --------------------------------------------
/// FNV-1a digest over named counters. Doubles are hashed by bit pattern, so
/// the digest moves when any modeled figure moves in any bit.
class Fingerprint {
 public:
  void Add(std::string_view key, uint64_t value);
  void Add(std::string_view key, double value);
  void Add(std::string_view key, const pimine::TrafficCounters& t);
  void Add(std::string_view key, const pimine::FleetRunStats& f);
  /// Traffic, pim_ns, exact/bound counts and the fleet block of a run.
  void Add(std::string_view key, const pimine::RunStats& s);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  void Mix(std::string_view bytes);
  uint64_t hash_ = 1469598103934665603ull;
};

// --- Host clocks ------------------------------------------------------------
int64_t NowNs();               // steady clock.
int64_t ProcessCpuNs();        // CPU time of every thread of the process.
double PeakRssMb();            // high-water resident set.
double Median(std::vector<double> v);
/// Exact nearest-rank quantile (q in [0, 1]) of the samples.
double Quantile(std::vector<double> v, double q);

/// Spreads the repeats of a single-threaded host loop over the CPUs the
/// process may use: repeat `repeat` of unit kind `kind` runs on allowed CPU
/// (kind + repeat) mod count, so no two repeats of a kind share a CPU until
/// every CPU has had one. On a shared host each CPU's neighbours come and go
/// independently, and a unit's fastest repeat then rarely meets the same
/// contention twice. Restores the original affinity when destroyed; does
/// nothing when only one CPU is allowed or the affinity calls fail.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void MoveTo(size_t kind, size_t repeat);

 private:
  std::vector<int> cpus_;  // allowed CPUs at construction.
};

/// Host time of a loop that repeats a fixed cycle of unit kinds (a request
/// type, a run, a trace). Keeps the fastest repeat of each kind: on a
/// shared host, contention only ever slows a unit down, so the fastest
/// repeat is its least disturbed measurement, and a cycle timed from them
/// drifts far less across runs than a mean or median does.
class BestOfRepeats {
 public:
  explicit BestOfRepeats(size_t kinds) : best_ns_(kinds, -1) {}
  void Record(size_t kind, int64_t ns);
  /// Seconds one cycle takes with every kind at its fastest repeat.
  double CycleSeconds() const;

 private:
  std::vector<int64_t> best_ns_;  // -1 until the kind first runs.
};

/// Builds a workload's set-up `reps` times, each on the next allowed CPU,
/// and returns the last one; `*median_s` receives the median build time
/// (set-up time is noisy on a shared host, and a regression must show in
/// the median). Builds spawn no threads, so the rotation cannot leak into
/// a thread pool.
template <typename Build>
auto RepeatSetup(int reps, double* median_s, Build build) -> decltype(build()) {
  std::vector<double> seconds;
  decltype(build()) setup;
  CpuRotation rotation;
  for (int rep = 0; rep < reps; ++rep) {
    setup = nullptr;
    rotation.MoveTo(0, static_cast<size_t>(rep));
    const int64_t t0 = NowNs();
    setup = build();
    seconds.push_back((NowNs() - t0) / 1e9);
  }
  *median_s = Median(std::move(seconds));
  return setup;
}

// --- Device counters ------------------------------------------------------
/// Device statistics summed over every device of a fleet (all shards, all
/// replicas, both devices of the FNN bound).
struct DeviceTotals {
  uint64_t batch_ops = 0;
  uint64_t queries = 0;
  double compute_ns = 0.0;
  double pipelined_ns = 0.0;
  double program_ns = 0.0;
  uint64_t row_writes = 0;

  DeviceTotals& operator+=(const DeviceTotals& o);
  DeviceTotals operator-(const DeviceTotals& o) const;
};
DeviceTotals SumDevices(const pimine::ShardedPimEngine& fleet);

// --- Traced mode ---------------------------------------------------------
/// In-memory span recorder. Spans nest on one thread; each carries the id
/// of the request it belongs to. Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  int32_t Begin(std::string_view name);
  void End(int32_t id);
  void set_request(uint64_t request) { request_ = request; }

  /// Self time per span name: each span's duration minus what its child
  /// spans cover, summed over spans of that name.
  std::map<std::string, double> SelfNsByName() const;
  /// Writes the spans as a JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t request_ = 0;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Path the traced mode writes its spans to, inside the checkout's
/// ignored build directory.
std::string SpanPath(const Args& args);

/// Traced-mode epilogue shared by the workloads: the per-layer self-time
/// table (set-up spans once, loop spans per `unit`), the traced vs
/// untraced host time per `unit` (the tracing overhead), and the span
/// file.
void FinishTrace(const Args& args, const Tracer& tracer, double units,
                 const std::string& unit, double untraced_ms_per_unit,
                 double traced_ms_per_unit, Report* report);

/// Value of `name` in a SelfNsByName map (0 when the span never ran).
double SelfNs(const std::map<std::string, double>& self, const char* name);

// --- Workloads ---------------------------------------------------------------
Report RunKnnWorkload(const Args& args);
Report RunKmeansWorkload(const Args& args);
Report RunServeWorkload(const Args& args);

}  // namespace pimbench

#endif  // PIMBENCH_BENCH_UTIL_H_
