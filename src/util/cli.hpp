#pragma once
// Minimal command-line flag parser for the examples and bench binaries.
//
// Supports "--name value" and "--name=value" forms plus boolean switches.
// Unknown flags are an error so typos in experiment sweeps fail loudly.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace srumma {

class CliParser {
 public:
  /// Register a flag with a default value and a help string.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Register a flag restricted to an enumerated set of values; parse()
  /// rejects anything else.  Used e.g. for --gemm-kernel, whose choice set
  /// comes from the blas kernel registry.
  void add_choice_flag(const std::string& name,
                       const std::string& default_value,
                       std::vector<std::string> choices,
                       const std::string& help);

  /// Parse argv; throws srumma::Error on unknown flags or missing values.
  /// Returns false (after printing help) when --help was requested.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// The whole value as a 64-bit integer or a finite double; anything else
  /// throws srumma::Error naming the flag and the value, e.g.
  /// "--n='two' is invalid: expected an integer".
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] std::string help(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    std::vector<std::string> choices;  // empty = unrestricted
  };
  std::map<std::string, Flag> flags_;
};

}  // namespace srumma
