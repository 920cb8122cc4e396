#ifndef PIMINE_UTIL_FLAGS_H_
#define PIMINE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace pimine {

/// Minimal command-line flag parser for the CLI tool and ad-hoc drivers.
/// Accepts `--key=value` and boolean `--key` tokens; everything else is a
/// positional argument. No registration step — callers query by name with
/// a default, and `CheckKnown` rejects typos against an allowlist.
class FlagParser {
 public:
  /// Parses argv (skipping argv[0]). Fails on malformed tokens like "--".
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  /// The numeric getters fall back to the default when the value does not
  /// parse as the requested type (for GetInt: a base-10 integer within
  /// int64); CheckNonNegative rejects such a count instead.
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  /// `--key` alone, or --key=true/1/yes (false/0/no).
  bool GetBool(const std::string& key, bool default_value) const;

  /// Returns InvalidArgument naming the first flag not in `known`.
  Status CheckKnown(const std::vector<std::string>& known) const;

  /// Returns InvalidArgument naming the first of `keys` (counts, sizes,
  /// durations) given a value that is not a base-10 integer within int64
  /// (an empty value, trailing characters, out of range) or is negative.
  Status CheckNonNegative(const std::vector<std::string>& keys) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pimine

#endif  // PIMINE_UTIL_FLAGS_H_
