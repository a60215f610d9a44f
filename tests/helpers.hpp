#pragma once
// Shared fixtures and reference implementations for the test suite.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "dist/dist_matrix.hpp"
#include "machine/machine.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace srumma::testing {

/// Dense reference: C := alpha*op(A)*op(B) + beta*C via the naive kernel.
inline void reference_gemm(blas::Trans ta, blas::Trans tb, double alpha,
                           const Matrix& a, const Matrix& b, double beta,
                           Matrix& c) {
  const index_t m = ta == blas::Trans::No ? a.rows() : a.cols();
  const index_t k = ta == blas::Trans::No ? a.cols() : a.rows();
  blas::gemm_naive(ta, tb, m, c.cols(), k, alpha, a.data(), a.ld(), b.data(),
                   b.ld(), beta, c.data(), c.ld());
}

/// Build the global matrix the distributed fill_coords_local produces.
inline Matrix coords_matrix(index_t m, index_t n) {
  Matrix x(m, n);
  fill_coords(x.view(), 0, 0);
  return x;
}

/// Tolerance scaled to the accumulation depth.
inline double gemm_tolerance(index_t k) {
  return 1e-12 * static_cast<double>(std::max<index_t>(k, 1)) * 16.0;
}

/// Sets an environment variable for one scope, then restores the old
/// value (or unsets it).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// A label holding every character class the JSON escaper handles: a
/// quote, a backslash, a newline, a tab and byte 0x01.
inline std::string hostile_label() {
  return std::string("q\"b\\s\nt\tc") + '\x01' + "end";
}

// Minimal strict JSON reader — enough to parse back what the writers emit
// and prove it is well-formed JSON (objects, arrays, strings with escapes,
// numbers, booleans, null).  A raw control character inside a string is
// an error, as in JSON itself.
struct JsonValue {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return obj.count(key) > 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : p_(text.c_str()) {}

  JsonValue parse() {
    JsonValue v = value();
    ws();
    if (*p_ != '\0') throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void ws() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r') ++p_;
  }
  char expect(char c) {
    if (*p_ != c)
      throw std::runtime_error(std::string("expected '") + c + "' got '" +
                               (*p_ ? std::string(1, *p_) : "EOF") + "'");
    return *p_++;
  }
  JsonValue value() {
    ws();
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': literal("true");  return make_bool(true);
      case 'f': literal("false"); return make_bool(false);
      case 'n': literal("null");  return JsonValue{};
      default:  return number();
    }
  }
  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }
  void literal(const char* lit) {
    for (; *lit != '\0'; ++lit) {
      if (*p_ != *lit) throw std::runtime_error("bad literal");
      ++p_;
    }
  }
  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Obj;
    ws();
    if (*p_ == '}') { ++p_; return v; }
    for (;;) {
      ws();
      JsonValue key = string();
      ws();
      expect(':');
      v.obj.emplace(key.str, value());
      ws();
      if (*p_ == ',') { ++p_; continue; }
      expect('}');
      return v;
    }
  }
  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Arr;
    ws();
    if (*p_ == ']') { ++p_; return v; }
    for (;;) {
      v.arr.push_back(value());
      ws();
      if (*p_ == ',') { ++p_; continue; }
      expect(']');
      return v;
    }
  }
  JsonValue string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::Str;
    while (*p_ != '"') {
      if (*p_ == '\0') throw std::runtime_error("unterminated string");
      if (static_cast<unsigned char>(*p_) < 0x20)
        throw std::runtime_error("raw control character in a string");
      if (*p_ == '\\') {
        ++p_;
        switch (*p_) {
          case '"': v.str.push_back('"'); break;
          case '\\': v.str.push_back('\\'); break;
          case '/': v.str.push_back('/'); break;
          case 'b': v.str.push_back('\b'); break;
          case 'f': v.str.push_back('\f'); break;
          case 'n': v.str.push_back('\n'); break;
          case 'r': v.str.push_back('\r'); break;
          case 't': v.str.push_back('\t'); break;
          case 'u': {  // reads no further than the terminator
            int code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = p_[i];
              if (!std::isxdigit(static_cast<unsigned char>(h)))
                throw std::runtime_error("bad \\u escape");
              code = code * 16 + (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            v.str.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            p_ += 4;
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
        ++p_;
      } else {
        v.str.push_back(*p_++);
      }
    }
    ++p_;
    return v;
  }
  JsonValue number() {
    char* end = nullptr;
    JsonValue v;
    v.kind = JsonValue::Kind::Num;
    v.num = std::strtod(p_, &end);
    if (end == p_) throw std::runtime_error("bad number");
    p_ = end;
    return v;
  }

  const char* p_;
};

}  // namespace srumma::testing
