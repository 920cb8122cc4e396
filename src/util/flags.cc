#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace pimine {
namespace {

// Parses all of `text` as a base-10 integer within int64. False on an
// empty value, trailing characters or a value out of range.
bool ParseInt64(const std::string& text, int64_t* value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *value = static_cast<int64_t>(v);
  return true;
}

}  // namespace

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      parser.positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const size_t eq = body.find('=');
    if (eq == std::string::npos) {
      parser.flags_[body] = "";  // boolean form.
    } else if (eq == 0) {
      return Status::InvalidArgument("flag with empty name: " + token);
    } else {
      parser.flags_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& key,
                           int64_t default_value) const {
  const auto it = flags_.find(key);
  int64_t value = 0;
  if (it == flags_.end() || !ParseInt64(it->second, &value)) {
    return default_value;
  }
  return value;
}

double FlagParser::GetDouble(const std::string& key,
                             double default_value) const {
  const auto it = flags_.find(key);
  if (it == flags_.end() || it->second.empty()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0') return default_value;
  return v;
}

bool FlagParser::GetBool(const std::string& key, bool default_value) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return default_value;
}

Status FlagParser::CheckKnown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::OK();
}

Status FlagParser::CheckNonNegative(
    const std::vector<std::string>& keys) const {
  for (const std::string& key : keys) {
    const auto it = flags_.find(key);
    if (it == flags_.end()) continue;
    int64_t value = 0;
    if (!ParseInt64(it->second, &value)) {
      return Status::InvalidArgument("--" + key +
                                     " must be a base-10 integer (got '" +
                                     it->second + "')");
    }
    if (value < 0) {
      return Status::InvalidArgument("--" + key +
                                     " must not be negative (got " +
                                     it->second + ")");
    }
  }
  return Status::OK();
}

}  // namespace pimine
