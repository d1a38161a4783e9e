// Minimal command-line flag parsing for tools, examples and benchmark
// drivers.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. A
// positional argument, an unknown flag, or a value that does not parse as
// the requested number throws CliError, so typos fail loudly; tools wrap
// their main body in run_tool() to turn that into usage plus exit 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"

namespace krsp::util {

/// A malformed command line. A CheckError, so code that already handles
/// library check failures keeps catching it.
class CliError : public CheckError {
 public:
  using CheckError::CheckError;
};

class Cli {
 public:
  Cli(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0)
        throw CliError("unexpected argument: " + arg);
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    touched_.push_back(name);
    return values_.count(name) > 0;
  }

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& def) const {
    touched_.push_back(name);
    const auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return parse_number<std::int64_t>(name, s);
  }

  [[nodiscard]] double get_double(const std::string& name, double def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return parse_number<double>(name, s);
  }

  /// A number that must be finite and > 0 (a slack such as eps): "nan",
  /// "inf", zero or a negative value is an error like a malformed one.
  [[nodiscard]] double get_positive(const std::string& name,
                                    double def) const {
    const double value = get_double(name, def);
    if (!(std::isfinite(value) && value > 0.0))
      throw CliError("--" + name + "=" + get_string(name, "") +
                     ": must be finite and > 0");
    return value;
  }

  /// An integer in [0, max] (a size or a count): a negative value would
  /// wrap when the caller casts it to an unsigned type.
  [[nodiscard]] std::int64_t get_count(
      const std::string& name, std::int64_t def,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const {
    const std::int64_t value = get_int(name, def);
    if (value < 0 || value > max)
      throw CliError("--" + name + "=" + std::to_string(value) + ": must be " +
                     (max == std::numeric_limits<std::int64_t>::max()
                          ? std::string(">= 0")
                          : "in [0, " + std::to_string(max) + "]"));
    return value;
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool def) const {
    const auto s = get_string(name, "");
    if (s.empty()) return def;
    return s == "true" || s == "1" || s == "yes";
  }

  /// Call after all get_* calls: rejects flags that nothing consumed.
  void reject_unknown() const {
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& t : touched_)
        if (t == name) known = true;
      if (!known) throw CliError("unknown flag --" + name + "=" + value);
    }
  }

 private:
  // The whole value must parse: "12abc", "abc" or an out-of-range value is
  // an error, not 12 or an exception from std::stoll escaping the caller.
  template <class T>
  static T parse_number(const std::string& name, const std::string& value) {
    T number{};
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, number);
    if (ec != std::errc() || ptr != end)
      throw CliError("--" + name + "=" + value + ": not a number");
    return number;
  }

  std::map<std::string, std::string> values_;
  mutable std::vector<std::string> touched_;
};

/// Runs a tool's main body; a malformed command line prints the error and
/// the tool's usage line on stderr and exits 2, and any other exception (an
/// unreadable or malformed input file) prints its message and exits 1,
/// instead of escaping main into std::terminate.
template <class Body>
int run_tool(const char* usage, Body&& body) {
  try {
    return body();
  } catch (const CliError& e) {
    std::cerr << e.what() << "\n" << usage << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}

}  // namespace krsp::util
