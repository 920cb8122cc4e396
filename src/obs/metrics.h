#ifndef PIMINE_OBS_METRICS_H_
#define PIMINE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace pimine {
namespace obs {

/// Ordered label set of one instrument, e.g. {{"shard", "3"}}. Labels are
/// emitted in the given order; callers use a fixed order per family so the
/// exposition stays byte-deterministic.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// How an export writes a counter: kSnapshot sets it to the exported value
/// (fleet figures, snapshotted afresh at every export), kAccumulate adds
/// the value (serving totals, summed over the runs a process replays).
enum class ExportMode { kSnapshot, kAccumulate };

/// Monotonic counter. Increments are relaxed atomic adds: totals are exact
/// and independent of thread interleaving (integer addition commutes), the
/// same invariance discipline as the traffic counters.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge. Set from a single coordinating thread; reads are
/// safe from any thread.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Named registry of counters, gauges, and histograms. Get*() returns a
/// stable reference (instruments are heap-allocated and never moved), so
/// call sites may cache the pointer across the registry's lifetime.
/// Histograms in the registry are fed by MergeHistogram() from merge points
/// (one merging thread at a time per the harness contract), guarded by a
/// mutex for safety.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);

  /// Labeled variants: `family{k="v",...}` instruments. The family (the
  /// name before '{') is what HELP/TYPE describe; every label combination
  /// is one independent instrument. Label values are escaped per the
  /// Prometheus exposition format (backslash, quote, newline).
  Counter& GetCounter(const std::string& family, const MetricLabels& labels);
  Gauge& GetGauge(const std::string& family, const MetricLabels& labels);
  void MergeHistogram(const std::string& family, const MetricLabels& labels,
                      const Histogram& samples);

  /// The full stored name of a labeled instrument (exposed for tests and
  /// for snapshot lookups): family + '{' + escaped labels + '}'.
  static std::string LabeledName(const std::string& family,
                                 const MetricLabels& labels);

  /// Registers the fixed `# HELP` text of a family. Unregistered families
  /// expose their own name as help — deterministic either way.
  void SetHelp(const std::string& family, const std::string& help);

  /// One exported value of `family`, registered with its `help` text: the
  /// counter written per `mode`, the gauge set, the histogram merged.
  void ExportCounter(const std::string& family, const std::string& help,
                     uint64_t value, const MetricLabels& labels,
                     ExportMode mode);
  void ExportGauge(const std::string& family, const std::string& help,
                   double value, const MetricLabels& labels = {});
  void ExportHistogram(const std::string& family, const std::string& help,
                       const Histogram& samples);

  /// Folds per-thread/per-slot samples into the named registry histogram.
  void MergeHistogram(const std::string& name, const Histogram& samples);
  /// Copy of the named histogram's current state (zero if never merged).
  Histogram GetHistogramSnapshot(const std::string& name) const;

  /// Zeroes every instrument's value but keeps all registrations (names and
  /// the references previously handed out stay valid).
  void Reset();

  size_t NumInstruments() const;

  /// Prometheus text exposition (v0.0.4): one `# HELP` and one `# TYPE`
  /// line per family followed by its samples (all label combinations),
  /// histograms with cumulative `le` buckets plus `_sum` (integer ticks)
  /// and `_count`. Families are emitted sorted (label sets sorted within a
  /// family) with fixed help strings — deterministic byte output for
  /// identical instrument state, strict-parser clean.
  std::string ToPrometheus() const;
  /// Same content as a JSON object, also name-sorted and deterministic.
  std::string ToJson() const;

 private:
  struct NamedCounter {
    std::string name;
    std::unique_ptr<Counter> counter;
  };
  struct NamedGauge {
    std::string name;
    std::unique_ptr<Gauge> gauge;
  };
  struct NamedHistogram {
    std::string name;
    std::unique_ptr<Histogram> hist;
  };

  mutable std::mutex mu_;
  std::vector<NamedCounter> counters_;
  std::vector<NamedGauge> gauges_;
  std::vector<NamedHistogram> histograms_;
  std::map<std::string, std::string> help_;  // family -> fixed help text.
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_METRICS_H_
