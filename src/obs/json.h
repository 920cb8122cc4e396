#ifndef PIMINE_OBS_JSON_H_
#define PIMINE_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace pimine {
namespace obs {

/// Appends `s` as the contents of a JSON string: quote and backslash
/// escaped, control characters as \u00XX. The one escaper of the trace,
/// metrics and event-log writers.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

/// `v` as %.17g, which round-trips every double, so identical doubles print
/// identical bytes in the metrics and timeseries outputs.
inline std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace obs
}  // namespace pimine

#endif  // PIMINE_OBS_JSON_H_
