#pragma once
// End-to-end benchmark of the srumma library (bench/e2e/README.md).
//
// Everything here is a client of the installed library: the benchmark
// times only its own calls into public entry points (Team::run around
// srumma_multiply, GemmService::submit/drain) and checks every output.
// The untraced run (e2e.cpp) produces the end-to-end metrics; the traced
// run (layers.cpp) replays each layer's public functions with the
// workload's own shapes to attribute host time.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "rma/rma.hpp"
#include "service/service.hpp"
#include "util/matrix.hpp"

namespace e2e {

using namespace srumma;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One square multiply C = op(A) * B of order n on a machine model.
struct MultiplySpec {
  MachineModel machine;
  index_t n = 0;
  bool phantom = true;
  SrummaOptions opt;  ///< ta and the executor selection live here
  RmaConfig rma;      ///< cooperative cache on/off
};

inline constexpr const char* kWorkloads[] = {
    "cluster_nn_real", "sp_tn_engine_cache_real", "scale1024_phantom",
    "service_mix_phantom"};

struct Workload {
  /// The multiply every op runs; for the service workload, the largest job
  /// (kLargeN^3 on its kLargeLeaseNodes lease) that the traced run replays.
  MultiplySpec spec;
  bool service = false;
};

[[nodiscard]] std::optional<Workload> find_workload(const std::string& name);

/// Global operands and the serial reference product (real data only).
struct Operands {
  Matrix a, b, ref;
};
[[nodiscard]] Operands make_operands(const MultiplySpec& spec,
                                     std::uint64_t seed);

/// The static analyzer's verdict for a spec: the per-rank buffer ceiling
/// every multiply is held to, and every rank's tuned task plan (the shapes
/// the traced run replays).
struct StaticPlan {
  std::uint64_t buffer_bound = 0;
  std::vector<TaskPlan> plans;  ///< indexed by rank
};
[[nodiscard]] StaticPlan plan_spec(const MultiplySpec& spec);

/// A machine with resident, scattered operands: Team + RmaRuntime plus
/// every rank's A, B and C.  Operands stay resident across ops, as in an
/// iterative application.
class Bed {
 public:
  Bed(const MultiplySpec& spec, const Operands& in);
  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  /// One op: Team::reset (untimed), then one Team::run whose body is only
  /// srumma_multiply.  `wall` receives the host seconds of the Team::run.
  MultiplyResult multiply(const SrummaOptions& opt, double* wall);
  /// Gather C into `out` (untimed; real data only).
  void gather_c(MatrixView out);

  [[nodiscard]] Team& team() noexcept { return team_; }
  [[nodiscard]] const MultiplySpec& spec() const noexcept { return spec_; }
  /// Host seconds of the Team::run that allocated A, B, C and scattered A
  /// and B (phantom: allocation only).
  [[nodiscard]] double scatter_seconds() const noexcept { return scatter_s_; }
  [[nodiscard]] DistMatrix& a(int rank) { return *a_[idx(rank)]; }
  [[nodiscard]] DistMatrix& b(int rank) { return *b_[idx(rank)]; }

 private:
  [[nodiscard]] static std::size_t idx(int rank) {
    return static_cast<std::size_t>(rank);
  }

  MultiplySpec spec_;
  Team team_;
  RmaRuntime rma_;
  std::vector<std::optional<DistMatrix>> a_, b_, c_;
  double scatter_s_ = 0.0;
};

/// Checks every multiply result must pass: the task-class identities, the
/// analyzer's buffer bound and, for real data, C against the reference.
class MultiplyCheck {
 public:
  MultiplyCheck(const MultiplySpec& spec, const StaticPlan& plan,
                const Operands& in);
  /// Checks one op run with `opt`; returns an empty string when it is
  /// correct, else the reason.
  [[nodiscard]] std::string check(Bed& bed, const SrummaOptions& opt,
                                  const MultiplyResult& r);

 private:
  std::uint64_t bound_;
  const Matrix* ref_;
  Matrix gathered_;
};

// -- the request-plane workload ---------------------------------------------

inline constexpr int kStreamJobs = 500;
inline constexpr double kNominalRate = 1000.0;   ///< jobs/s, latency regime
inline constexpr double kOverloadRate = 4000.0;  ///< jobs/s, capacity regime
inline constexpr index_t kSmallN = 128;
inline constexpr index_t kLargeN = 256;
inline constexpr int kLargeLeaseNodes = 3;  ///< lease of a kLargeN^3 job

[[nodiscard]] MachineModel service_machine();
[[nodiscard]] service::ServiceConfig service_config();

struct Stream {
  std::vector<service::JobSpec> jobs;
  std::vector<double> arrivals;
};
/// Seeded open-loop Poisson stream `index` at `rate` jobs/s: 70% 128^3 /
/// 30% 256^3, priority 20/60/20 high/normal/low.
[[nodiscard]] Stream make_stream(std::uint64_t seed, std::uint64_t index,
                                 double rate);

struct StreamRun {
  service::ServiceMetrics metrics;
  std::vector<service::JobReport> reports;
  double wall = 0.0;  ///< host seconds: construction, every submit, drain
  std::string error;  ///< empty when every job completed and checked
};

/// Runs one stream through a fresh GemmService and checks every job.
class ServiceRunner {
 public:
  ServiceRunner() : machine_(service_machine()), cfg_(service_config()) {}
  [[nodiscard]] StreamRun run(const Stream& s);

 private:
  [[nodiscard]] std::uint64_t bound(index_t n, int nodes);

  MachineModel machine_;
  service::ServiceConfig cfg_;
  std::map<std::pair<index_t, int>, std::uint64_t> bounds_;
};

// -- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (derived values)
};

struct Result {
  std::vector<Metric> metrics;  ///< reported in the JSON line
  std::vector<Metric> derived;  ///< printed in the table only
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void add(std::string name, double value, std::string unit,
           std::string better) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(better)});
  }
  void derive(std::string name, double value, std::string unit) {
    derived.push_back({std::move(name), value, std::move(unit), {}});
  }
  void record(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(error);
  }
};

/// The traced run: per-layer metrics for `w` (layers.cpp).
[[nodiscard]] Result run_traced(const Workload& w, std::uint64_t seed,
                                double seconds);

}  // namespace e2e
