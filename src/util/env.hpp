#pragma once
// The one reader of the SRUMMA_* environment variables.  kVariables below
// is the only list of the variables the library and the benches read, with
// each one's kind and accepted values, and env.cpp is the only code under
// src/ and bench/ that calls getenv, which scripts/lint.sh enforces.
//
// Kinds: flag (exactly 0 or 1), integer (base 10) and real (finite), each
// the whole string and within the variable's range, word (one of its list)
// and text (non-empty).  A reader returns nullopt when its variable is
// unset; any value it does not accept, an empty one included, throws
//   srumma::Error("NAME='value' is invalid: expected <accepted values>").
// Values are read on every use.  A value set in code beats the
// environment, and the environment beats the default.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace srumma::env {

enum class Kind { Flag, Integer, Real, Word, Text };

/// One variable.  Ranges are doubles: every bound below is exact, and 2^64
/// stands for the largest unsigned 64-bit value.
struct Variable {
  const char* name;
  Kind kind;
  double lo = 0.0;
  double hi = 0.0;
  std::string_view accepts = {};  ///< Word: "a|b|c"; Text: what it names
};

inline constexpr double kInt = std::numeric_limits<int>::max();
inline constexpr double kU64 = 0x1p64;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every SRUMMA_* variable the library and the benches read.  README.md's
/// environment table has one row per entry (a test keeps them equal).
inline constexpr Variable kVariables[] = {
    {"SRUMMA_BENCH_JSON", Kind::Text, 0, 0, "file path"},
    {"SRUMMA_BENCH_SMOKE", Kind::Flag},
    {"SRUMMA_CACHE", Kind::Flag},
    {"SRUMMA_CACHE_CAP", Kind::Integer, 0, kU64},
    {"SRUMMA_ENGINE", Kind::Flag},
    {"SRUMMA_FAULT_AFTER_VTIME", Kind::Real, 0, kInf},
    {"SRUMMA_FAULT_BACKOFF_BASE", Kind::Real, 0, kInf},
    {"SRUMMA_FAULT_BACKOFF_MULT", Kind::Real, 1, kInf},
    {"SRUMMA_FAULT_BUDDY_OFFSET", Kind::Integer, 1, kInt},
    {"SRUMMA_FAULT_CORRUPT_RATE", Kind::Real, 0, 1},
    {"SRUMMA_FAULT_DEAD_DOMAIN", Kind::Integer, -1, kInt},
    {"SRUMMA_FAULT_DELAY_FACTOR", Kind::Real, 1, kInf},
    {"SRUMMA_FAULT_DELAY_RATE", Kind::Real, 0, 1},
    {"SRUMMA_FAULT_FAIL_RATE", Kind::Real, 0, 1},
    {"SRUMMA_FAULT_FIRST_OP", Kind::Integer, 0, kU64},
    {"SRUMMA_FAULT_KILL_AFTER_VTIME", Kind::Real, 0, kInf},
    {"SRUMMA_FAULT_KILL_DOMAIN", Kind::Integer, -1, kInt},
    {"SRUMMA_FAULT_KILL_POINT", Kind::Word, 0, 0,
     "prefetch|chain|barrier|none"},
    {"SRUMMA_FAULT_LAST_OP", Kind::Integer, 0, kU64},
    {"SRUMMA_FAULT_MAX_ATTEMPTS", Kind::Integer, 1, kInt},
    {"SRUMMA_FAULT_ONLY_PEER", Kind::Integer, -1, kInt},
    {"SRUMMA_FAULT_ONLY_RANK", Kind::Integer, -1, kInt},
    {"SRUMMA_FAULT_OP_TIMEOUT", Kind::Real, 0, kInf},
    {"SRUMMA_FAULT_SEED", Kind::Integer, 0, kU64},
    {"SRUMMA_FAULT_STRAGGLER_FACTOR", Kind::Real, 1, kInf},
    {"SRUMMA_FAULT_STRAGGLER_NODE", Kind::Integer, -1, kInt},
    {"SRUMMA_GEMM_KERNEL", Kind::Text, 0, 0, "kernel name"},
    {"SRUMMA_HARNESS_STACK_KB", Kind::Integer, 64, 64 * 1024},
    {"SRUMMA_HARNESS_THREADS", Kind::Integer, 1, 4096},
    {"SRUMMA_RMA_CHECK", Kind::Flag},
    {"SRUMMA_RMA_JOURNAL", Kind::Text, 0, 0, "file path"},
    {"SRUMMA_TRACE", Kind::Text, 0, 0, "file path"},
    {"SRUMMA_TRACE_CAP", Kind::Integer, 1, kU64},
};

/// A listed variable of kind K, converted implicitly from a literal name:
/// a name that is not listed, or is listed with another kind, does not
/// compile.
/// (It holds an index, not a pointer: UBSan's null checks on a pointer
/// are not constant expressions.)
template <Kind K>
struct Name {
  consteval Name(const char* name) : index(std::size(kVariables)) {
    for (std::size_t i = 0; i < std::size(kVariables); ++i)
      if (std::string_view(kVariables[i].name) == name) index = i;
    if (index == std::size(kVariables) || kVariables[index].kind != K)
      throw "not a listed variable";
  }
  std::size_t index;
};

[[nodiscard]] std::optional<bool> flag(Name<Kind::Flag> name);
/// T is int or std::uint64_t, and holds the variable's range.
template <class T>
[[nodiscard]] std::optional<T> integer(Name<Kind::Integer> name);
[[nodiscard]] std::optional<double> real(Name<Kind::Real> name);
/// The matched word of the variable's list.
[[nodiscard]] std::optional<std::string_view> word(Name<Kind::Word> name);
[[nodiscard]] std::optional<std::string> text(Name<Kind::Text> name);

/// Throws unless `value` is a valid value of the listed variable `name`.
void check_value(std::string_view name, std::string_view value);

/// Throws when the environment holds an unlisted SRUMMA_* name; one pass
/// over the environment, made by every Team constructor.
void check_names();

}  // namespace srumma::env
