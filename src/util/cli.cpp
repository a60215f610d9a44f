#include "util/cli.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace srumma {

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  SRUMMA_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, default_value, help, {}};
}

void CliParser::add_choice_flag(const std::string& name,
                                const std::string& default_value,
                                std::vector<std::string> choices,
                                const std::string& help) {
  SRUMMA_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  SRUMMA_REQUIRE(!choices.empty(), "choice flag needs at least one choice");
  SRUMMA_REQUIRE(
      std::find(choices.begin(), choices.end(), default_value) != choices.end(),
      "default for --" + name + " is not among its choices");
  flags_[name] = Flag{default_value, default_value, help, std::move(choices)};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help(argv[0]).c_str(), stdout);
      return false;
    }
    SRUMMA_REQUIRE(arg.rfind("--", 0) == 0, "expected --flag, got: " + arg);
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto it = flags_.find(arg);
    SRUMMA_REQUIRE(it != flags_.end(), "unknown flag: --" + arg);
    if (eq == std::string::npos) {
      if (it->second.default_value == "false" || it->second.default_value == "true") {
        value = "true";  // boolean switch form: --flag
      } else {
        SRUMMA_REQUIRE(i + 1 < argc, "missing value for --" + arg);
        value = argv[++i];
      }
    }
    if (!it->second.choices.empty()) {
      const auto& ch = it->second.choices;
      SRUMMA_REQUIRE(std::find(ch.begin(), ch.end(), value) != ch.end(),
                     "invalid value for --" + arg + ": " + value);
    }
    it->second.value = value;
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  SRUMMA_REQUIRE(it != flags_.end(), "unregistered flag: " + name);
  return it->second.value;
}

namespace {

[[noreturn]] void invalid(const std::string& name, const std::string& v,
                          const std::string& expected) {
  throw Error("--" + name + "='" + v + "' is invalid: expected " + expected);
}

}  // namespace

long long CliParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  long long r = 0;
  try {
    r = std::stoll(v, &pos);
  } catch (const std::invalid_argument&) {
    invalid(name, v, "an integer");
  } catch (const std::out_of_range&) {
    invalid(name, v,
            "an integer in [" + std::to_string(LLONG_MIN) + ", " +
                std::to_string(LLONG_MAX) + "]");
  }
  if (pos != v.size()) invalid(name, v, "an integer");
  return r;
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  double r = 0.0;
  try {
    r = std::stod(v, &pos);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    invalid(name, v, "a finite number");
  }
  if (pos != v.size() || !std::isfinite(r))
    invalid(name, v, "a finite number");
  return r;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw Error("flag --" + name + " is not a boolean: " + v);
}

std::string CliParser::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")";
    if (!flag.choices.empty()) {
      os << " [";
      for (std::size_t i = 0; i < flag.choices.size(); ++i)
        os << (i ? "|" : "") << flag.choices[i];
      os << "]";
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace srumma
