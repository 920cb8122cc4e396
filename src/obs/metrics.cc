#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace pimine {
namespace obs {
namespace {

template <typename Vec>
std::vector<size_t> SortedIndexByName(const Vec& v) {
  std::vector<size_t> idx(v.size());
  for (size_t i = 0; i < v.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return v[a].name < v[b].name; });
  return idx;
}

/// Family = the stored name up to the label block ('{').
std::string FamilyOf(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// The "{k=\"v\",...}" suffix of a labeled name ("" when unlabeled).
std::string LabelBlockOf(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? std::string() : name.substr(brace);
}

/// Exposition-format escaping: backslash and newline, and in a label value
/// (`label`) the double quote too; HELP text may carry quotes as they are.
void AppendExpositionEscaped(std::string* out, const std::string& text,
                             bool label) {
  for (char c : text) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else if (label && c == '"') {
      out->append("\\\"");
    } else {
      out->push_back(c);
    }
  }
}

/// Same-family entries grouped for exposition: sorting by (family, label
/// block) keeps every family's samples contiguous even when an unrelated
/// family name sorts between "fam" and "fam{...}" byte-wise.
template <typename Vec>
std::vector<size_t> SortedIndexByFamily(const Vec& v) {
  std::vector<size_t> idx(v.size());
  for (size_t i = 0; i < v.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    const std::string fa = FamilyOf(v[a].name), fb = FamilyOf(v[b].name);
    if (fa != fb) return fa < fb;
    return LabelBlockOf(v[a].name) < LabelBlockOf(v[b].name);
  });
  return idx;
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) {
    if (entry.name == name) return *entry.counter;
  }
  counters_.push_back({name, std::make_unique<Counter>()});
  return *counters_.back().counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : gauges_) {
    if (entry.name == name) return *entry.gauge;
  }
  gauges_.push_back({name, std::make_unique<Gauge>()});
  return *gauges_.back().gauge;
}

std::string MetricsRegistry::LabeledName(const std::string& family,
                                         const MetricLabels& labels) {
  if (labels.empty()) return family;
  std::string name = family;
  name.push_back('{');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) name.push_back(',');
    name.append(labels[i].first).append("=\"");
    AppendExpositionEscaped(&name, labels[i].second, /*label=*/true);
    name.push_back('"');
  }
  name.push_back('}');
  return name;
}

Counter& MetricsRegistry::GetCounter(const std::string& family,
                                     const MetricLabels& labels) {
  return GetCounter(LabeledName(family, labels));
}

Gauge& MetricsRegistry::GetGauge(const std::string& family,
                                 const MetricLabels& labels) {
  return GetGauge(LabeledName(family, labels));
}

void MetricsRegistry::MergeHistogram(const std::string& family,
                                     const MetricLabels& labels,
                                     const Histogram& samples) {
  MergeHistogram(LabeledName(family, labels), samples);
}

void MetricsRegistry::SetHelp(const std::string& family,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[family] = help;
}

void MetricsRegistry::ExportCounter(const std::string& family,
                                    const std::string& help, uint64_t value,
                                    const MetricLabels& labels,
                                    ExportMode mode) {
  SetHelp(family, help);
  Counter& counter = GetCounter(family, labels);
  if (mode == ExportMode::kSnapshot) counter.Reset();
  counter.Add(value);
}

void MetricsRegistry::ExportGauge(const std::string& family,
                                  const std::string& help, double value,
                                  const MetricLabels& labels) {
  SetHelp(family, help);
  GetGauge(family, labels).Set(value);
}

void MetricsRegistry::ExportHistogram(const std::string& family,
                                      const std::string& help,
                                      const Histogram& samples) {
  SetHelp(family, help);
  MergeHistogram(family, samples);
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const Histogram& samples) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : histograms_) {
    if (entry.name == name) {
      entry.hist->Merge(samples);
      return;
    }
  }
  histograms_.push_back({name, std::make_unique<Histogram>()});
  histograms_.back().hist->Merge(samples);
}

Histogram MetricsRegistry::GetHistogramSnapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : histograms_) {
    if (entry.name == name) return *entry.hist;
  }
  return Histogram();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.counter->Reset();
  for (auto& entry : gauges_) entry.gauge->Reset();
  for (auto& entry : histograms_) entry.hist->Reset();
}

size_t MetricsRegistry::NumInstruments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1024);

  // One HELP + TYPE pair per family, immediately before its samples, every
  // family's label combinations contiguous — the structure strict
  // exposition-format parsers require.
  const auto emit_header = [&](std::string* last_family,
                               const std::string& family, const char* type) {
    if (*last_family == family) return;
    *last_family = family;
    const auto it = help_.find(family);
    out.append("# HELP ").append(family).push_back(' ');
    AppendExpositionEscaped(&out, it != help_.end() ? it->second : family,
                            /*label=*/false);
    out.push_back('\n');
    out.append("# TYPE ").append(family).push_back(' ');
    out.append(type).push_back('\n');
  };

  std::string last_family;
  for (size_t i : SortedIndexByFamily(counters_)) {
    const auto& entry = counters_[i];
    emit_header(&last_family, FamilyOf(entry.name), "counter");
    out.append(entry.name)
        .append(" ")
        .append(std::to_string(entry.counter->Value()))
        .append("\n");
  }
  last_family.clear();
  for (size_t i : SortedIndexByFamily(gauges_)) {
    const auto& entry = gauges_[i];
    emit_header(&last_family, FamilyOf(entry.name), "gauge");
    out.append(entry.name)
        .append(" ")
        .append(FormatDouble(entry.gauge->Value()))
        .append("\n");
  }
  last_family.clear();
  for (size_t i : SortedIndexByFamily(histograms_)) {
    const auto& entry = histograms_[i];
    const Histogram& h = *entry.hist;
    const std::string family = FamilyOf(entry.name);
    const std::string labels = LabelBlockOf(entry.name);
    // "name_bucket{<labels,>le=...}": splice le into an existing label
    // block, or open a fresh one for unlabeled histograms.
    const std::string bucket_prefix =
        labels.empty()
            ? family + "_bucket{le=\""
            : family + "_bucket" + labels.substr(0, labels.size() - 1) +
                  ",le=\"";
    emit_header(&last_family, family, "histogram");
    uint64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      cumulative += h.bucket(b);
      // Skip interior empty buckets to keep the exposition small, but always
      // emit a bucket that carries count (cumulative growth) and the first.
      if (b != 0 && h.bucket(b) == 0 && b != Histogram::kNumBuckets - 1) {
        continue;
      }
      out.append(bucket_prefix)
          .append(b == Histogram::kNumBuckets - 1
                      ? std::string("+Inf")
                      : std::to_string(Histogram::BucketUpperEdge(b)))
          .append("\"} ")
          .append(std::to_string(cumulative))
          .append("\n");
    }
    out.append(family)
        .append("_sum")
        .append(labels)
        .append(" ")
        .append(std::to_string(h.sum_ticks()))
        .append("\n");
    out.append(family)
        .append("_count")
        .append(labels)
        .append(" ")
        .append(std::to_string(h.count()))
        .append("\n");
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1024);
  // One name-sorted `"kind": {"name": value, ...}` object per instrument
  // kind; `value` appends an entry's value.
  const auto section = [&out](const char* head, const auto& entries,
                              const auto& value) {
    out.append(head);
    bool first = true;
    for (size_t i : SortedIndexByName(entries)) {
      out.append(first ? "\n  \"" : ",\n  \"");
      first = false;
      AppendJsonEscaped(&out, entries[i].name);
      out.append("\": ");
      value(entries[i]);
    }
    out.append(first ? "}" : "\n}");
  };
  section("{\n\"counters\": {", counters_, [&out](const NamedCounter& e) {
    out.append(std::to_string(e.counter->Value()));
  });
  section(",\n\"gauges\": {", gauges_, [&out](const NamedGauge& e) {
    out.append(FormatDouble(e.gauge->Value()));
  });
  section(",\n\"histograms\": {", histograms_, [&out](const NamedHistogram& e) {
    const Histogram& h = *e.hist;
    out.append("{\"count\": ").append(std::to_string(h.count()));
    out.append(", \"sum_ns\": ").append(std::to_string(h.sum_ticks()));
    out.append(", \"max_ns\": ").append(std::to_string(h.max_ticks()));
    out.append(", \"p50_ns\": ")
        .append(std::to_string(h.QuantileUpperBound(0.50)));
    out.append(", \"p95_ns\": ")
        .append(std::to_string(h.QuantileUpperBound(0.95)));
    out.append(", \"p99_ns\": ")
        .append(std::to_string(h.QuantileUpperBound(0.99)));
    out.append(", \"buckets\": [");
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h.bucket(b) == 0) continue;
      if (!first_bucket) out.append(", ");
      first_bucket = false;
      out.append("[")
          .append(std::to_string(Histogram::BucketUpperEdge(b)))
          .append(", ")
          .append(std::to_string(h.bucket(b)))
          .append("]");
    }
    out.append("]}");
  });
  out.append("\n}\n");
  return out;
}

}  // namespace obs
}  // namespace pimine
