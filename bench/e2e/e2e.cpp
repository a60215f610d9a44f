// srumma_e2e: one workload of the end-to-end benchmark per process.
//
//   srumma_e2e --workload cluster_nn_real --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics for --seconds; --trace 1 runs
// the traced run and reports the per-layer metrics instead.  Every op's
// output is checked.  The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when any op failed its checks.  bench/e2e/run.sh builds and runs this.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <numeric>
#include <thread>

#include "blas/kernel.hpp"
#include "e2e.hpp"
#include "runtime/fiber_exec.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

#ifndef SRUMMA_E2E_BUILD_TYPE
#define SRUMMA_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

/// Constructions per run; setup_s is their median.
constexpr int kSetups = 5;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_common(Result& res, const std::vector<double>& walls,
                const std::vector<double>& setups) {
  res.add("wall_p50_s", median(walls), "s", "lower");
  res.add("wall_p90_s", quantile(walls, 0.9), "s", "lower");
  res.add("setup_s", median(setups), "s", "lower");
}

/// Multiply workloads: one op is one Team::run whose body is only
/// srumma_multiply on the resident operands.
Result run_multiply(const Workload& w, std::uint64_t seed, double seconds) {
  const MultiplySpec& spec = w.spec;
  // Inputs, the serial reference and the analyzer bound are not set-up.
  const Operands in = make_operands(spec, seed);
  const StaticPlan plan = plan_spec(spec);
  MultiplyCheck check(spec, plan, in);

  std::vector<double> setups;
  std::unique_ptr<Bed> bed;
  for (int i = 0; i < kSetups; ++i) {
    bed.reset();
    // The repeated set-ups are the benchmark's own doing: hand their freed
    // memory back so peak_rss_mb counts one resident bed, not malloc
    // arenas retaining the earlier ones.
    malloc_trim(0);
    const auto t0 = Clock::now();
    bed = std::make_unique<Bed>(spec, in);
    double warm = 0.0;
    (void)bed->multiply(spec.opt, &warm);
    setups.push_back(since(t0));
  }

  Result res;
  std::vector<double> walls;
  std::vector<double> vts;
  const auto start = Clock::now();
  while (walls.empty() || since(start) < seconds) {
    double wall = 0.0;
    const MultiplyResult r = bed->multiply(spec.opt, &wall);
    res.record(check.check(*bed, spec.opt, r));
    walls.push_back(wall);
    vts.push_back(r.elapsed);
  }
  const double vt_sum = std::accumulate(vts.begin(), vts.end(), 0.0);
  add_common(res, walls, setups);
  res.add("vt_p50", median(vts), "vs", "lower");
  res.add("vt_tail", quantile(vts, 0.9), "vs", "lower");
  res.add("vt_ops_per_vs", static_cast<double>(vts.size()) / vt_sum, "1/vs",
          "higher");
  res.add("peak_rss_mb", peak_rss_mb(), "MB", "lower");

  const double n = static_cast<double>(spec.n);
  if (!spec.phantom) {
    res.derive("host_gflops", gemm_flops(n, n, n) / median(walls) * 1e-9,
               "GFLOP/s");
  }
  res.derive("modeled_gflops", gemm_flops(n, n, n) / median(vts) * 1e-9,
             "GFLOP/s");
  return res;
}

/// The request plane: one op is a nominal-rate stream followed by an
/// overload stream, each through a fresh GemmService.  Latency is counted
/// from each job's scheduled virtual arrival.
Result run_service(std::uint64_t seed, double seconds) {
  // Op k runs streams 2k (nominal) and 2k+1 (overload).  A service has no
  // set-up beyond its construction, which every op pays: setup_s is the
  // warm-up op 0 on a fresh service, run kSetups times.
  const auto op_streams = [seed](std::uint64_t k) {
    return std::make_pair(make_stream(seed, 2 * k, kNominalRate),
                          make_stream(seed, 2 * k + 1, kOverloadRate));
  };
  ServiceRunner runner;
  const auto warm_up = op_streams(0);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(runner.run(warm_up.first).wall +
                     runner.run(warm_up.second).wall);
  }

  Result res;
  std::vector<double> walls;
  std::vector<double> latencies;  // nominal rate, pooled over streams
  double completed = 0.0;         // overload rate
  double window = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t k = 1; walls.empty() || since(start) < seconds; ++k) {
    const auto [nominal, overload] = op_streams(k);
    const StreamRun a = runner.run(nominal);
    const StreamRun b = runner.run(overload);
    res.record(a.error.empty() ? b.error : a.error);
    walls.push_back(a.wall + b.wall);
    for (const service::JobReport& rep : a.reports)
      latencies.push_back(rep.latency());
    completed += static_cast<double>(b.metrics.completed);
    window += b.metrics.window;
  }
  add_common(res, walls, setups);
  res.add("vt_p50", median(latencies), "vs", "lower");
  res.add("vt_tail", quantile(latencies, 0.99), "vs", "lower");
  res.add("vt_ops_per_vs", completed / window, "1/vs", "higher");
  res.add("peak_rss_mb", peak_rss_mb(), "MB", "lower");

  res.derive("jobs_per_s", completed / window, "1/s");
  res.derive("job_latency_p50_s", median(latencies), "s");
  res.derive("job_latency_p99_s", quantile(latencies, 0.99), "s");
  res.derive("jobs_timed", static_cast<double>(latencies.size()), "count");
  return res;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void print_header(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace, const std::string& commit) {
  std::printf("# srumma end-to-end benchmark\n");
  std::printf("# workload: %s\n", workload.c_str());
  std::printf("# seed: %llu  seconds: %g  trace: %d\n",
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::printf("# nproc: %u  workers: %d  kernel: %s\n",
              std::thread::hardware_concurrency(), exec::default_workers(),
              blas::active_kernel().name);
  std::printf("# compiler: %s  build: %s  commit: %s\n", compiler(),
              SRUMMA_E2E_BUILD_TYPE, commit.c_str());
  std::fflush(stdout);
}

void print_table(const Result& res) {
  std::printf("\n%-28s %22s  %-8s %s\n", "metric", "value", "unit", "better");
  for (const Metric& m : res.metrics) {
    std::printf("%-28s %22.10g  %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str());
  }
  for (const Metric& m : res.derived) {
    std::printf("%-28s %22.10g  %-8s (derived)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double error_rate =
      static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  std::printf("%-28s %22.10g  %-8s (derived: %lld of %lld ops)\n",
              "error_rate", error_rate, "share", res.failed, res.attempted);
  for (const std::string& e : res.errors)
    std::printf("FAILED: %s\n", e.c_str());
}

/// The result line: every metric with all its digits.
void print_json(const Result& res, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", res.attempted, res.failed);
  const char* sep = "";
  for (const Metric& m : res.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  try {
    CliParser cli;
    cli.add_choice_flag("workload", kWorkloads[0],
                        {std::begin(kWorkloads), std::end(kWorkloads)},
                        "workload to run");
    cli.add_flag("seed", "1", "input seed (matrix fill, service streams)");
    cli.add_flag("seconds", "20", "how long the measured loop runs");
    cli.add_choice_flag("trace", "0", {"0", "1"},
                        "1 = traced run reporting per-layer metrics");
    cli.add_flag("commit", "unknown", "source commit, for the header");
    if (!cli.parse(argc, argv)) return 0;
    const std::string name = cli.get("workload");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double seconds = cli.get_double("seconds");
    const bool trace = cli.get("trace") == "1";
    SRUMMA_REQUIRE(seconds > 0.0, "--seconds must be positive");
    const std::optional<Workload> w = find_workload(name);
    SRUMMA_REQUIRE(w.has_value(), "unknown workload " + name);

    print_header(name, seed, seconds, trace, cli.get("commit"));
    Result res = trace        ? run_traced(*w, seed, seconds)
                 : w->service ? run_service(seed, seconds)
                              : run_multiply(*w, seed, seconds);
    bool finite = true;
    for (const Metric& m : res.metrics)
      finite = finite && std::isfinite(m.value);
    if (!finite) res.errors.push_back("a metric is not a finite number");
    print_table(res);
    const bool correct = res.failed == 0 && finite;
    print_json(res, correct);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "srumma_e2e: " << e.what() << "\n";
    return 1;
  }
}
