#include "obs/timeseries.h"

#include <algorithm>
#include <initializer_list>

#include "obs/json.h"

namespace pimine {
namespace obs {
TimeSeries::TimeSeries(const TimeSeriesOptions& options) : options_(options) {
  if (options_.window_ns == 0) options_.window_ns = 1;
  if (options_.num_windows < 2) options_.num_windows = 2;
  if (options_.slo_short_windows == 0) options_.slo_short_windows = 1;
  if (options_.slo_long_windows < options_.slo_short_windows) {
    options_.slo_long_windows = options_.slo_short_windows;
  }
}

uint64_t TimeSeries::WindowIndexFor(uint64_t t_ns) const {
  return t_ns / options_.window_ns;
}

bool TimeSeries::Retained(uint64_t w) const {
  if (!any_sample_) return false;
  if (w > newest_) return false;
  return newest_ - w < options_.num_windows;
}

bool TimeSeries::AdvanceTo(uint64_t w) {
  if (!any_sample_) {
    any_sample_ = true;
    newest_ = w;
    return true;
  }
  if (w <= newest_) {
    // In-retention backfill is exact; older samples are counted dropped.
    if (newest_ - w >= options_.num_windows) {
      ++dropped_late_;
      return false;
    }
    return true;
  }
  // Roll forward: every slot between the old newest and `w` starts empty.
  const uint64_t steps = std::min<uint64_t>(w - newest_, options_.num_windows);
  for (uint64_t i = 1; i <= steps; ++i) {
    const size_t slot = static_cast<size_t>((newest_ + i) % options_.num_windows);
    for (Series& s : series_) {
      if (s.is_histogram) {
        s.hists[slot].Reset();
      } else {
        s.counts[slot] = 0;
      }
    }
  }
  newest_ = w;
  return true;
}

TimeSeries::Series& TimeSeries::GetSeries(const std::string& name,
                                          bool is_histogram) {
  for (Series& s : series_) {
    if (s.name == name) return s;
  }
  series_.emplace_back();
  Series& s = series_.back();
  s.name = name;
  s.is_histogram = is_histogram;
  if (is_histogram) {
    s.hists.resize(options_.num_windows);
  } else {
    s.counts.assign(options_.num_windows, 0);
  }
  return s;
}

const TimeSeries::Series* TimeSeries::FindSeries(
    const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void TimeSeries::Count(const std::string& name, uint64_t t_ns,
                       uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t w = t_ns / options_.window_ns;
  if (!AdvanceTo(w)) return;
  Series& s = GetSeries(name, /*is_histogram=*/false);
  s.counts[static_cast<size_t>(w % options_.num_windows)] += delta;
}

void TimeSeries::Observe(const std::string& name, uint64_t t_ns,
                         double value_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t w = t_ns / options_.window_ns;
  if (!AdvanceTo(w)) return;
  Series& s = GetSeries(name, /*is_histogram=*/true);
  s.hists[static_cast<size_t>(w % options_.num_windows)].Record(value_ns);
}

void TimeSeries::SetSlo(const std::string& bad_name,
                        const std::string& total_name) {
  std::lock_guard<std::mutex> lock(mu_);
  slo_bad_ = bad_name;
  slo_total_ = total_name;
}

uint64_t TimeSeries::newest_window() const {
  std::lock_guard<std::mutex> lock(mu_);
  return newest_;
}

uint64_t TimeSeries::oldest_window() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t span = options_.num_windows - 1;
  return newest_ > span ? newest_ - span : 0;
}

uint64_t TimeSeries::dropped_late() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_late_;
}

uint64_t TimeSeries::CounterInWindow(const std::string& name,
                                     uint64_t w) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = FindSeries(name);
  if (s == nullptr || s->is_histogram || !Retained(w)) return 0;
  return s->counts[static_cast<size_t>(w % options_.num_windows)];
}

double TimeSeries::RatePerSec(const std::string& name, uint64_t w) const {
  const uint64_t count = CounterInWindow(name, w);
  return static_cast<double>(count) * 1e9 /
         static_cast<double>(options_.window_ns);
}

Histogram TimeSeries::HistogramInWindow(const std::string& name,
                                        uint64_t w) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = FindSeries(name);
  if (s == nullptr || !s->is_histogram || !Retained(w)) return Histogram();
  return s->hists[static_cast<size_t>(w % options_.num_windows)];
}

uint64_t TimeSeries::TrailingSum(const Series* s, size_t span) const {
  if (s == nullptr || s->is_histogram || !any_sample_) return 0;
  uint64_t sum = 0;
  const size_t n = std::min(span, options_.num_windows);
  for (size_t i = 0; i < n; ++i) {
    if (newest_ < i) break;
    const uint64_t w = newest_ - i;
    sum += s->counts[static_cast<size_t>(w % options_.num_windows)];
  }
  return sum;
}

TimeSeries::BurnRate TimeSeries::SloBurn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SloBurnLocked();
}

TimeSeries::BurnRate TimeSeries::SloBurnLocked() const {
  BurnRate burn;
  if (slo_bad_.empty() || slo_total_.empty() || options_.slo_budget <= 0.0) {
    return burn;
  }
  const Series* bad = FindSeries(slo_bad_);
  const Series* total = FindSeries(slo_total_);
  const auto burn_over = [&](size_t span) {
    const uint64_t t = TrailingSum(total, span);
    if (t == 0) return 0.0;
    const uint64_t b = TrailingSum(bad, span);
    return (static_cast<double>(b) / static_cast<double>(t)) /
           options_.slo_budget;
  };
  burn.short_burn = burn_over(options_.slo_short_windows);
  burn.long_burn = burn_over(options_.slo_long_windows);
  return burn;
}

std::string TimeSeries::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t span = options_.num_windows - 1;
  const uint64_t oldest = newest_ > span ? newest_ - span : 0;
  std::string out;
  out.reserve(2048);
  out.append("{\n\"schema\": \"pimine.obs.timeseries.v1\",\n");
  out.append("\"window_ns\": ")
      .append(std::to_string(options_.window_ns))
      .append(",\n");
  out.append("\"num_windows\": ")
      .append(std::to_string(options_.num_windows))
      .append(",\n");
  out.append("\"oldest_window\": ").append(std::to_string(oldest)).append(",\n");
  out.append("\"newest_window\": ")
      .append(std::to_string(newest_))
      .append(",\n");
  out.append("\"dropped_late\": ")
      .append(std::to_string(dropped_late_))
      .append(",\n");

  // Sorted series names -> deterministic bytes.
  std::vector<size_t> order(series_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return series_[a].name < series_[b].name;
  });

  out.append("\"series\": {");
  bool first_series = true;
  for (size_t si : order) {
    const Series& s = series_[si];
    if (!first_series) out.push_back(',');
    first_series = false;
    out.append("\n  \"").append(s.name).append("\": {\"type\": \"");
    out.append(s.is_histogram ? "histogram" : "counter");
    out.append("\", \"points\": [");
    bool first_point = true;
    // One window's point: "[window, values...]".
    const auto point = [&](uint64_t w,
                           std::initializer_list<std::string> values) {
      out.append(first_point ? "[" : ", [").append(std::to_string(w));
      first_point = false;
      for (const std::string& v : values) out.append(", ").append(v);
      out.append("]");
    };
    for (uint64_t w = oldest; any_sample_ && w <= newest_; ++w) {
      const size_t slot = static_cast<size_t>(w % options_.num_windows);
      if (s.is_histogram) {
        const Histogram& h = s.hists[slot];
        if (h.count() == 0) continue;
        point(w, {std::to_string(h.count()), std::to_string(h.sum_ticks()),
                  std::to_string(h.max_ticks()),
                  std::to_string(h.QuantileUpperBound(0.50)),
                  std::to_string(h.QuantileUpperBound(0.99))});
      } else {
        const uint64_t count = s.counts[slot];
        if (count == 0) continue;
        const double rate = static_cast<double>(count) * 1e9 /
                            static_cast<double>(options_.window_ns);
        point(w, {std::to_string(count), FormatDouble(rate)});
      }
    }
    out.append("]}");
  }
  out.append(first_series ? "}" : "\n}");

  // SLO burn block, under the lock the series were read under.
  const BurnRate burn = SloBurnLocked();
  out.append(",\n\"slo\": {\"bad\": \"")
      .append(slo_bad_)
      .append("\", \"total\": \"")
      .append(slo_total_)
      .append("\", \"budget\": ")
      .append(FormatDouble(options_.slo_budget))
      .append(", \"short_windows\": ")
      .append(std::to_string(options_.slo_short_windows))
      .append(", \"long_windows\": ")
      .append(std::to_string(options_.slo_long_windows))
      .append(", \"short_burn\": ")
      .append(FormatDouble(burn.short_burn))
      .append(", \"long_burn\": ")
      .append(FormatDouble(burn.long_burn))
      .append("}\n}\n");
  return out;
}

}  // namespace obs
}  // namespace pimine
