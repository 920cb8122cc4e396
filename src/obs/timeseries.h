#ifndef PIMINE_OBS_TIMESERIES_H_
#define PIMINE_OBS_TIMESERIES_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace pimine {
namespace obs {

/// Knobs of one rolling time-series plane. Window width and count bound the
/// retained state exactly: memory is O(series * num_windows), independent of
/// run length — the property that makes the plane safe under continuous
/// serving traffic.
struct TimeSeriesOptions {
  /// Width of one rolling window in clock nanoseconds (virtual ns in
  /// replay, steady-clock ns in live mode).
  uint64_t window_ns = 1'000'000;
  /// Windows retained in the ring. Samples older than
  /// num_windows * window_ns behind the newest seen timestamp are counted
  /// in dropped_late() instead of silently vanishing.
  size_t num_windows = 64;
  /// Two-window SLO burn-rate spans: the short window reacts fast, the
  /// long window filters noise (both must trip for a page-worthy burn).
  size_t slo_short_windows = 2;
  size_t slo_long_windows = 16;
  /// Error budget: the tolerated bad/total fraction. Burn rate 1.0 means
  /// the budget is being consumed exactly at the sustainable pace.
  double slo_budget = 0.001;
};

/// Rolling fixed-width time series over counter deltas and histogram
/// merges. All window state is integer (counts, histogram buckets), and
/// recording is element-wise integer addition into the window a timestamp
/// falls in — so the retained state is a pure function of the (timestamp,
/// delta) multiset, independent of feeding order or thread interleaving,
/// the same exact-merge discipline as obs::Histogram. Fed from
/// PimServer::Replay's deterministic accounting pass, ToJson() is
/// byte-identical across scheduler_threads and shard counts.
///
/// All methods are internally synchronized (one mutex): live mode feeds
/// from scheduler workers while the exposition server snapshots.
class TimeSeries {
 public:
  explicit TimeSeries(const TimeSeriesOptions& options = TimeSeriesOptions());

  /// Adds `delta` to counter series `name` in the window containing
  /// `t_ns`. Series are created on first touch.
  void Count(const std::string& name, uint64_t t_ns, uint64_t delta = 1);

  /// Records `value_ns` into histogram series `name` in the window
  /// containing `t_ns` (per-window quantile bounds come from these).
  void Observe(const std::string& name, uint64_t t_ns, double value_ns);

  /// Names the counter pair driving the SLO burn rate: `bad_name` counts
  /// budget-consuming events (e.g. deadline misses), `total_name` the
  /// eligible population (e.g. served queries).
  void SetSlo(const std::string& bad_name, const std::string& total_name);

  // --- Windowed reads ---------------------------------------------------

  uint64_t WindowIndexFor(uint64_t t_ns) const;
  /// Newest window index that has seen a sample (0 before any sample).
  uint64_t newest_window() const;
  /// Oldest window index still retained by the ring.
  uint64_t oldest_window() const;
  /// Samples discarded for falling behind the retention horizon.
  uint64_t dropped_late() const;

  /// Counter total inside window `w` (0 for unknown series / evicted w).
  uint64_t CounterInWindow(const std::string& name, uint64_t w) const;
  /// Windowed rate: CounterInWindow / window seconds.
  double RatePerSec(const std::string& name, uint64_t w) const;
  /// Histogram snapshot of window `w` (empty for unknown / evicted).
  Histogram HistogramInWindow(const std::string& name, uint64_t w) const;

  /// Two-window SLO burn rates over the trailing short/long spans ending
  /// at the newest window: (bad / total) / budget, 0 when total is 0.
  struct BurnRate {
    double short_burn = 0.0;
    double long_burn = 0.0;
  };
  BurnRate SloBurn() const;

  const TimeSeriesOptions& options() const { return options_; }

  /// Deterministic JSON document ("pimine.obs.timeseries.v1"): sorted
  /// series names, sparse per-window points (counter: [w, count,
  /// rate_per_s]; histogram: [w, count, sum, max, p50, p99]), retention
  /// header, and the SLO burn-rate block. Byte-identical for identical
  /// recorded state.
  std::string ToJson() const;

 private:
  struct Series {
    std::string name;
    bool is_histogram = false;
    std::vector<uint64_t> counts;    // ring, size num_windows.
    std::vector<Histogram> hists;    // ring (histogram series only).
  };

  /// Rolls the ring forward so `w` is retained; clears re-used slots.
  /// Returns false when `w` is behind the retention horizon.
  bool AdvanceTo(uint64_t w);
  Series& GetSeries(const std::string& name, bool is_histogram);
  const Series* FindSeries(const std::string& name) const;
  bool Retained(uint64_t w) const;
  /// Sum of counter `name` over the trailing `span` windows.
  uint64_t TrailingSum(const Series* s, size_t span) const;
  /// SloBurn's figures; the caller holds mu_ (SloBurn, and ToJson, which
  /// writes them under the same lock as the series).
  BurnRate SloBurnLocked() const;

  TimeSeriesOptions options_;
  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::string slo_bad_;
  std::string slo_total_;
  bool any_sample_ = false;
  uint64_t newest_ = 0;  // newest window index seen.
  uint64_t dropped_late_ = 0;
};

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_TIMESERIES_H_
