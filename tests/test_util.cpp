// Unit tests for src/util: matrix container and views, RNG, tables, CLI,
// and the SRUMMA_* environment reader.

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "cache/block_cache.hpp"
#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "tests/helpers.hpp"
#include "util/aligned.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace srumma {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.ld(), 3);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1.0);
  EXPECT_EQ(m.data()[1], 2.0);
  EXPECT_EQ(m.data()[2], 3.0);
}

TEST(Matrix, AlignedStorage) {
  Matrix m(5, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes, 0u);
}

TEST(Matrix, EmptyIsLegal) {
  Matrix m(0, 0);
  EXPECT_TRUE(m.empty());
  Matrix r(0, 5);
  EXPECT_EQ(r.size(), 0);
}

TEST(Matrix, NegativeDimsThrow) {
  EXPECT_THROW(Matrix(-1, 2), Error);
  EXPECT_THROW(Matrix(2, -1), Error);
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  Matrix m(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i) m(i, j) = static_cast<double>(10 * i + j);
  MatrixView b = m.block(1, 2, 2, 2);
  EXPECT_EQ(b(0, 0), m(1, 2));
  EXPECT_EQ(b(1, 1), m(2, 3));
  EXPECT_EQ(b.ld(), 4);
  b(0, 0) = -5.0;
  EXPECT_EQ(m(1, 2), -5.0);
}

TEST(MatrixView, OutOfRangeBlockThrows) {
  Matrix m(4, 4);
  EXPECT_THROW((void)m.block(2, 2, 3, 1), Error);
  EXPECT_THROW((void)m.block(0, 0, 5, 1), Error);
  EXPECT_THROW((void)m.block(-1, 0, 1, 1), Error);
}

TEST(MatrixView, LdSmallerThanRowsThrows) {
  double buf[4] = {};
  EXPECT_THROW(MatrixView(buf, 4, 1, 2), Error);
}

TEST(MatrixOps, CopyRespectsStrides) {
  Matrix src(4, 4);
  fill_random(src.view(), 1);
  Matrix dst(2, 2);
  copy(src.block(1, 1, 2, 2), dst.view());
  EXPECT_EQ(dst(0, 0), src(1, 1));
  EXPECT_EQ(dst(1, 1), src(2, 2));
}

TEST(MatrixOps, CopyDimMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(copy(a.view(), b.view()), Error);
}

TEST(MatrixOps, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(1, 0) = 3.0;
  b(1, 0) = 1.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 2.0);
}

TEST(MatrixOps, FrobeniusNorm) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(a.view()), 5.0);
}

TEST(MatrixOps, TransposeRoundTrip) {
  Matrix a(3, 5);
  fill_random(a.view(), 7);
  Matrix at(5, 3);
  transpose(a.view(), at.view());
  Matrix back(3, 5);
  transpose(at.view(), back.view());
  EXPECT_EQ(max_abs_diff(a.view(), back.view()), 0.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, FillCoordsMatchesOffsets) {
  // A sub-block filled with offsets equals the same region of a full fill.
  Matrix full(8, 10);
  fill_coords(full.view(), 0, 0);
  Matrix sub(3, 4);
  fill_coords(sub.view(), 2, 5);
  EXPECT_EQ(max_abs_diff(sub.view(), full.block(2, 5, 3, 4)), 0.0);
}

TEST(Table, AlignsAndCounts) {
  TableWriter t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os, "title");
  const std::string s = os.str();
  EXPECT_NE(s.find("== title =="), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, CellCountMismatchThrows) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormat) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::num(static_cast<long long>(42)), "42");
}

TEST(Cli, ParsesValuesAndDefaults) {
  CliParser p;
  p.add_flag("n", "100", "size");
  p.add_flag("verbose", "false", "switch");
  const char* argv[] = {"prog", "--n", "250", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_int("n"), 250);
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(Cli, EqualsForm) {
  CliParser p;
  p.add_flag("rate", "1.5", "a rate");
  const char* argv[] = {"prog", "--rate=2.25"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 2.25);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser p;
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(p.parse(3, argv), Error);
}

TEST(Cli, BadIntThrows) {
  CliParser p;
  p.add_flag("n", "1", "");
  const char* argv[] = {"prog", "--n", "12x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.get_int("n"), std::exception);
}

// The error a getter throws for `value`, or "" when it parses.
template <typename Get>
std::string cli_error(const char* value, Get get) {
  CliParser p;
  p.add_flag("n", "1", "");
  const char* argv[] = {"prog", "--n", value};
  EXPECT_TRUE(p.parse(3, argv));
  try {
    (void)get(p);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, IntegerErrorsNameTheFlagAndTheValue) {
  const auto get_int = [](const CliParser& p) { return p.get_int("n"); };
  EXPECT_EQ(cli_error("two", get_int),
            "--n='two' is invalid: expected an integer");
  EXPECT_EQ(cli_error("12x", get_int),
            "--n='12x' is invalid: expected an integer");
  EXPECT_EQ(cli_error("", get_int), "--n='' is invalid: expected an integer");
  EXPECT_EQ(cli_error("99999999999999999999", get_int),
            "--n='99999999999999999999' is invalid: expected an integer in "
            "[-9223372036854775808, 9223372036854775807]");
  EXPECT_EQ(cli_error("-42", get_int), "");
}

TEST(Cli, RealErrorsNameTheFlagAndTheValue) {
  const auto get_double = [](const CliParser& p) {
    return p.get_double("n");
  };
  EXPECT_EQ(cli_error("fast", get_double),
            "--n='fast' is invalid: expected a finite number");
  EXPECT_EQ(cli_error("2.5s", get_double),
            "--n='2.5s' is invalid: expected a finite number");
  EXPECT_EQ(cli_error("1e999", get_double),
            "--n='1e999' is invalid: expected a finite number");
  EXPECT_EQ(cli_error("inf", get_double),
            "--n='inf' is invalid: expected a finite number");
  EXPECT_EQ(cli_error("2.5e-3", get_double), "");
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ(5_us, 5e-6);
  EXPECT_DOUBLE_EQ(2.5_GBs, 2.5e9);
  EXPECT_DOUBLE_EQ(16_KiB, 16384.0);
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

TEST(Error, MessageCarriesContext) {
  try {
    SRUMMA_REQUIRE(false, "something bad");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("something bad"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The SRUMMA_* environment reader (util/env.hpp).

using testing::ScopedEnv;

// The srumma::Error message `f` throws, or "" when it returns.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// One kind's table: every bad value throws NAME='value' is invalid:
// expected <accepted>, and every good value reads back as `want`.
struct KindTable {
  const char* name;
  const char* accepted;
  std::vector<const char*> bad;
  std::vector<std::pair<const char*, std::string>> good;  // value, as read
};

template <class Read>
void check_kind(const KindTable& t, Read read) {
  for (const char* bad : t.bad) {
    ScopedEnv set(t.name, bad);
    const std::string msg = error_of([&] { (void)read(); });
    EXPECT_NE(msg.find(std::string(t.name) + "='" + bad +
                       "' is invalid: expected " + t.accepted),
              std::string::npos)
        << msg;
    EXPECT_THROW(env::check_value(t.name, bad), Error) << bad;
  }
  for (const auto& [good, want] : t.good) {
    ScopedEnv set(t.name, good);
    std::ostringstream got;
    got << *read();
    EXPECT_EQ(got.str(), want) << t.name << "=" << good;
    EXPECT_NO_THROW(env::check_value(t.name, good)) << good;
  }
}

TEST(Env, FlagIsExactlyZeroOrOne) {
  const KindTable t{"SRUMMA_BENCH_SMOKE",
                    "0 or 1",
                    {"", "1x", "2", "false", "true", "on", " 1", "01"},
                    {{"0", "0"}, {"1", "1"}}};
  check_kind(t, [] { return env::flag("SRUMMA_BENCH_SMOKE"); });
}

TEST(Env, IntegerIsBaseTenWithinItsRange) {
  check_kind({"SRUMMA_HARNESS_THREADS",
              "an integer in [1, 4096]",
              {"", "1x", "0", "4097", "-1", "+3", " 3", "3.0", "4k", "0x10"},
              {{"1", "1"}, {"4096", "4096"}, {"08", "8"}}},
             [] { return env::integer<int>("SRUMMA_HARNESS_THREADS"); });
  // Seeds and op indices are unsigned 64-bit.
  check_kind({"SRUMMA_FAULT_SEED",
              "an integer in [0, 18446744073709551615]",
              {"-1", "18446744073709551616", "1e3"},
              {{"0", "0"}, {"18446744073709551615", "18446744073709551615"}}},
             [] { return env::integer<std::uint64_t>("SRUMMA_FAULT_SEED"); });
  // Ids take -1 for "none".
  check_kind({"SRUMMA_FAULT_ONLY_RANK",
              "an integer in [-1, 2147483647]",
              {"-2", "2147483648", "one"},
              {{"-1", "-1"}, {"2147483647", "2147483647"}}},
             [] { return env::integer<int>("SRUMMA_FAULT_ONLY_RANK"); });
}

TEST(Env, RealIsFiniteWithinItsRange) {
  check_kind({"SRUMMA_FAULT_FAIL_RATE",
              "a finite number in [0, 1]",
              {"", "1x", "0,002", "1.5", "-0.1", "nan", "inf", "1e999"},
              {{"0", "0"}, {"1", "1"}, {"0.002", "0.002"}, {"2e-3", "0.002"}}},
             [] { return env::real("SRUMMA_FAULT_FAIL_RATE"); });
  check_kind({"SRUMMA_FAULT_DELAY_FACTOR",
              "a finite number >= 1",
              {"0.5", "inf", "8x"},
              {{"1", "1"}, {"1e300", "1e+300"}}},
             [] { return env::real("SRUMMA_FAULT_DELAY_FACTOR"); });
}

TEST(Env, WordIsOneOfItsList) {
  check_kind({"SRUMMA_FAULT_KILL_POINT",
              "prefetch, chain, barrier or none",
              {"", "one", "Chain", "chain ", "prefetch|chain", "steal"},
              {{"prefetch", "prefetch"},
               {"chain", "chain"},
               {"barrier", "barrier"},
               {"none", "none"}}},
             [] { return env::word("SRUMMA_FAULT_KILL_POINT"); });
}

TEST(Env, TextIsNonEmpty) {
  check_kind({"SRUMMA_BENCH_JSON",
              "a non-empty file path",
              {""},
              {{"out.json", "out.json"}, {"a b/c.json", "a b/c.json"}}},
             [] { return env::text("SRUMMA_BENCH_JSON"); });
}

TEST(Env, UnsetReadsAsNotSet) {
  ScopedEnv set("SRUMMA_HARNESS_THREADS", "3");
  unsetenv("SRUMMA_HARNESS_THREADS");
  EXPECT_FALSE(env::integer<int>("SRUMMA_HARNESS_THREADS").has_value());
}

// Each probe misreading throws from the first call that reads it.
TEST(Env, MisreadingsThrowFromTheirEntryPoint) {
  enum class Entry { TeamCtor, RmaCtor, Run };
  const struct {
    const char* name;
    const char* value;
    Entry entry;
  } cases[] = {
      {"SRUMMA_CACHE", "false", Entry::RmaCtor},
      {"SRUMMA_ENGINE", "off", Entry::Run},
      {"SRUMMA_RMA_CHECK", "no", Entry::RmaCtor},
      {"SRUMMA_FAULT_KILL_DOMAIN", "one", Entry::TeamCtor},
      {"SRUMMA_FAULT_FAIL_RATE", "0,002", Entry::TeamCtor},
      {"SRUMMA_CACHE_CAP", "64MiB", Entry::RmaCtor},
      {"SRUMMA_TRACE_CAP", "4k", Entry::TeamCtor},
  };
  const MachineModel machine = MachineModel::testing(2, 1);
  for (const auto& c : cases) {
    std::optional<Team> team;
    std::optional<RmaRuntime> rma;
    if (c.entry != Entry::TeamCtor) team.emplace(machine);
    if (c.entry == Entry::Run) rma.emplace(*team);
    ScopedEnv set(c.name, c.value);
    const std::string msg = error_of([&] {
      if (!team) team.emplace(machine);
      if (!rma) rma.emplace(*team);
      const ProcGrid grid = ProcGrid::near_square(team->size());
      team->run([&](Rank& me) {
        DistMatrix a(*rma, me, 16, 16, grid, true);
        DistMatrix b(*rma, me, 16, 16, grid, true);
        DistMatrix cm(*rma, me, 16, 16, grid, true);
        (void)srumma_multiply(me, a, b, cm, SrummaOptions{});
      });
    });
    EXPECT_NE(msg.find(std::string(c.name) + "='" + c.value + "' is invalid"),
              std::string::npos)
        << msg;
    // Thrown where the variable is read: the objects built before it
    // exist, the next one does not.
    EXPECT_EQ(team.has_value(), c.entry != Entry::TeamCtor) << c.name;
    EXPECT_EQ(rma.has_value(), c.entry == Entry::Run) << c.name;
  }
}

TEST(Env, UnknownNameFailsTeamConstruction) {
  ScopedEnv typo("SRUMMA_ENGIN", "1");
  const std::string msg =
      error_of([] { Team team(MachineModel::testing(1, 2)); });
  EXPECT_NE(msg.find("unknown variable SRUMMA_ENGIN='1'"), std::string::npos)
      << msg;
  EXPECT_THROW(env::check_value("SRUMMA_ENGIN", "1"), Error);
}

TEST(Env, CodeCacheCapacityBeatsTheEnvironment) {
  Team team(MachineModel::testing(2, 2));
  ScopedEnv cap("SRUMMA_CACHE_CAP", "4096");
  RmaConfig rc;
  rc.cache = true;
  rc.cache_capacity = 1 << 20;
  RmaRuntime in_code(team, rc);
  EXPECT_EQ(in_code.block_cache()->config().capacity_bytes, 1u << 20);
  rc.cache_capacity = 0;  // defers to the environment
  RmaRuntime from_env(team, rc);
  EXPECT_EQ(from_env.block_cache()->config().capacity_bytes, 4096u);
}

// Every SRUMMA_* name the scripts assign, and every value they give it
// (shell expansions listed by the values they take).  Deliberately bad
// settings (check.sh's loud-failure probes) must be rejected.
TEST(Env, ScriptSettingsAreAccepted) {
  const std::map<std::string, std::vector<std::string>> accepted = {
      {"SRUMMA_BENCH_JSON", {"/tmp/fig3.json"}},
      {"SRUMMA_BENCH_SMOKE", {"0", "1"}},
      {"SRUMMA_CACHE", {"1"}},
      {"SRUMMA_ENGINE", {"0", "1"}},
      {"SRUMMA_FAULT_BUDDY_OFFSET", {"1"}},
      {"SRUMMA_FAULT_DELAY_RATE", {"0.002"}},
      {"SRUMMA_FAULT_FAIL_RATE", {"0.002"}},
      {"SRUMMA_FAULT_KILL_DOMAIN", {"1"}},
      {"SRUMMA_FAULT_KILL_POINT", {"prefetch", "chain", "barrier"}},
      {"SRUMMA_FAULT_MAX_ATTEMPTS", {"20"}},
      {"SRUMMA_GEMM_KERNEL", {"avx2"}},
      {"SRUMMA_HARNESS_THREADS", {"1", "3", "4095"}},
      {"SRUMMA_RMA_CHECK", {"1"}},
      {"SRUMMA_RMA_JOURNAL", {"/tmp/journal.jsonl"}},
      {"SRUMMA_TRACE", {"/tmp/trace.json"}},
  };
  const std::map<std::string, std::string> rejected = {
      {"SRUMMA_ENGIN", "1"}, {"SRUMMA_CACHE", "false"}};
  for (const auto& [name, values] : accepted)
    for (const std::string& v : values)
      EXPECT_NO_THROW(env::check_value(name, v)) << name << "=" << v;
  for (const auto& [name, v] : rejected)
    EXPECT_THROW(env::check_value(name, v), Error) << name << "=" << v;

  // The tables above cover every name the scripts set (CMake -D options
  // are not environment variables).
  const std::regex assign("(?:^|[^A-Za-z0-9_])(SRUMMA_[A-Z0-9_]+)=");
  std::set<std::string> in_scripts;
  for (const char* script :
       {"scripts/check.sh", "scripts/bench_report.sh", "bench/e2e/run.sh"}) {
    std::ifstream in(std::string(SRUMMA_SOURCE_DIR) + "/" + script);
    ASSERT_TRUE(in.is_open()) << script;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    for (std::sregex_iterator it(text.begin(), text.end(), assign), end;
         it != end; ++it)
      in_scripts.insert((*it)[1]);
  }
  std::set<std::string> tabled;
  for (const auto& [name, values] : accepted) tabled.insert(name);
  for (const auto& [name, v] : rejected) tabled.insert(name);
  EXPECT_EQ(in_scripts, tabled);
}

TEST(Env, ReadmeTableNamesEveryVariable) {
  std::ifstream in(std::string(SRUMMA_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in.is_open());
  const std::regex row("^\\| `(SRUMMA_[A-Z0-9_]+)` \\|");
  std::multiset<std::string> documented;
  for (std::string line; std::getline(in, line);) {
    std::smatch m;
    if (std::regex_search(line, m, row)) documented.insert(m[1]);
  }
  std::multiset<std::string> listed;
  for (const env::Variable& v : env::kVariables) listed.insert(v.name);
  EXPECT_EQ(documented, listed);
  EXPECT_EQ(listed.size(), 33u);
}

}  // namespace
}  // namespace srumma
