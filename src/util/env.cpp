#include "util/env.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ranges>

#include "util/error.hpp"

extern char** environ;  // POSIX: the program declares it

namespace srumma::env {

namespace {

// A word variable's words.
auto words(const Variable& v) {
  return std::views::split(v.accepts, '|') | std::views::transform([](auto w) {
           return std::string_view(w.begin(), w.end());
         });
}

std::string expected(const Variable& v) {
  const auto bound = [](double b) {
    return b == kU64 ? std::string("18446744073709551615")
                     : std::to_string(static_cast<long long>(b));
  };
  const std::string range = "[" + bound(v.lo) + ", " + bound(v.hi) + "]";
  std::string out;
  switch (v.kind) {
    case Kind::Flag: return "0 or 1";
    case Kind::Integer: return "an integer in " + range;
    case Kind::Real:
      return "a finite number " +
             (v.hi == kInf ? ">= " + bound(v.lo) : "in " + range);
    case Kind::Word:
      for (std::string_view w : words(v))
        out += (out.empty() ? "" : ", ") + std::string(w);
      return out.replace(out.rfind(", "), 2, " or ");
    case Kind::Text: return "a non-empty " + std::string(v.accepts);
  }
  return out;
}

// Whether all of `s` is a T within [v.lo, v.hi].
template <class T>
bool in_range(const Variable& v, std::string_view s) {
  T x{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), x);
  const auto d = static_cast<double>(x);
  return ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(d) &&
         d >= v.lo && d <= v.hi;
}

// `s` when it is a valid value of `v` (for a word, the listed word);
// throws otherwise.
std::string_view checked(const Variable& v, std::string_view s) {
  bool ok = false;
  switch (v.kind) {
    case Kind::Flag: ok = s == "0" || s == "1"; break;
    case Kind::Integer:
      ok = v.lo < 0 ? in_range<std::int64_t>(v, s)
                    : in_range<std::uint64_t>(v, s);
      break;
    case Kind::Real: ok = in_range<double>(v, s); break;
    case Kind::Word:
      for (std::string_view w : words(v))
        if (w == s) return w;
      break;
    case Kind::Text: ok = !s.empty(); break;
  }
  if (!ok)
    throw Error(std::string(v.name) + "='" + std::string(s) +
                "' is invalid: expected " + expected(v));
  return s;
}

const Variable* find(std::string_view name) {
  for (const Variable& v : kVariables)
    if (name == v.name) return &v;
  return nullptr;
}

[[noreturn]] void unknown(std::string_view name, std::string_view value) {
  throw Error("unknown variable " + std::string(name) + "='" +
              std::string(value) +
              "': no SRUMMA_* variable has this name (README.md lists them)");
}

// The checked value of `v`; nullopt when unset.
std::optional<std::string_view> read(const Variable& v) {
  const char* s = std::getenv(v.name);
  if (s == nullptr) return std::nullopt;
  return checked(v, s);
}

// A number `read` already checked.
template <class T>
T number(std::string_view s) {
  T x{};
  (void)std::from_chars(s.data(), s.data() + s.size(), x);
  return x;
}

}  // namespace

std::optional<bool> flag(Name<Kind::Flag> name) {
  const auto s = read(kVariables[name.index]);
  return s ? std::optional<bool>(*s == "1") : std::nullopt;
}

template <class T>
std::optional<T> integer(Name<Kind::Integer> name) {
  const auto s = read(kVariables[name.index]);
  return s ? std::optional<T>(number<T>(*s)) : std::nullopt;
}

template std::optional<int> integer<int>(Name<Kind::Integer>);
template std::optional<std::uint64_t> integer<std::uint64_t>(
    Name<Kind::Integer>);

std::optional<double> real(Name<Kind::Real> name) {
  const auto s = read(kVariables[name.index]);
  return s ? std::optional<double>(number<double>(*s)) : std::nullopt;
}

std::optional<std::string_view> word(Name<Kind::Word> name) {
  return read(kVariables[name.index]);
}

std::optional<std::string> text(Name<Kind::Text> name) {
  const auto s = read(kVariables[name.index]);
  return s ? std::optional<std::string>(*s) : std::nullopt;
}

void check_value(std::string_view name, std::string_view value) {
  const Variable* v = find(name);
  if (v == nullptr) unknown(name, value);
  (void)checked(*v, value);
}

void check_names() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (!entry.starts_with("SRUMMA_")) continue;
    const std::size_t eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    if (find(name) == nullptr)
      unknown(name, entry.substr(std::min(eq + 1, entry.size())));
  }
}

}  // namespace srumma::env
