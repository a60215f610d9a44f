// Workload definitions, operand set-up, the resident-operand test bed and
// the output checks shared by the untraced and traced runs.

#include <algorithm>
#include <cmath>

#include "analysis/analyzer.hpp"
#include "blas/gemm.hpp"
#include "e2e.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace e2e {

double quantile(std::vector<double> v, double q) {
  SRUMMA_REQUIRE(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

MachineModel service_machine() { return MachineModel::linux_myrinet(8); }

service::ServiceConfig service_config() {
  // The constants of bench_service: a 256^3 job leases kLargeLeaseNodes
  // nodes, 128^3 jobs share one node in batches of up to 4, and the queue
  // holds a whole stream so overload is measured as latency, never as shed
  // jobs.
  service::ServiceConfig cfg;
  cfg.queue_cap = kStreamJobs;
  cfg.flops_per_node =
      gemm_flops(kLargeN, kLargeN, kLargeN) / kLargeLeaseNodes;
  cfg.batch_flops = gemm_flops(kSmallN, kSmallN, kSmallN) + 1.0;
  cfg.batch_max = 4;
  return cfg;
}

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  MultiplySpec& s = w.spec;
  if (name == "cluster_nn_real") {
    s.machine = MachineModel::linux_myrinet(4);
    s.n = 2048;
    s.phantom = false;
  } else if (name == "sp_tn_engine_cache_real") {
    s.machine = MachineModel::ibm_sp(2);
    s.n = 2048;
    s.phantom = false;
    s.opt.ta = blas::Trans::Yes;
    s.opt.engine = EngineMode::On;
    s.rma.cache = true;
  } else if (name == "scale1024_phantom") {
    s.machine = MachineModel::linux_myrinet(512);
    s.n = 16000;
  } else if (name == "service_mix_phantom") {
    s.machine = service_machine().carve(kLargeLeaseNodes);
    s.n = kLargeN;
    w.service = true;
  } else {
    return std::nullopt;
  }
  return w;
}

Operands make_operands(const MultiplySpec& spec, std::uint64_t seed) {
  Operands in;
  if (spec.phantom) return in;
  in.a = Matrix(spec.n, spec.n);
  in.b = Matrix(spec.n, spec.n);
  in.ref = Matrix(spec.n, spec.n);
  fill_random(in.a.view(), mix_seed(seed, 1));
  fill_random(in.b.view(), mix_seed(seed, 2));
  blas::gemm(spec.opt.ta, spec.opt.tb, spec.opt.alpha, in.a.view(),
             in.b.view(), 0.0, in.ref.view());
  return in;
}

StaticPlan plan_spec(const MultiplySpec& spec) {
  analysis::AnalysisConfig cfg;
  cfg.machine = spec.machine;
  cfg.options = spec.opt;
  cfg.m = cfg.n = cfg.k = spec.n;
  analysis::PlanModel pm = analysis::build_plan_model(cfg);
  const analysis::AnalysisReport rep = analysis::analyze(pm);
  SRUMMA_REQUIRE(rep.certified(),
                 "static analyzer rejected the workload configuration");
  StaticPlan out;
  out.buffer_bound = rep.bounds.buffer_bytes;
  out.plans.reserve(pm.ranks.size());
  for (analysis::RankModel& rm : pm.ranks)
    out.plans.push_back(std::move(rm.plan));
  return out;
}

Bed::Bed(const MultiplySpec& spec, const Operands& in)
    : spec_(spec), team_(spec.machine), rma_(team_, spec.rma) {
  const auto ranks = static_cast<std::size_t>(team_.size());
  a_.resize(ranks);
  b_.resize(ranks);
  c_.resize(ranks);
  const ProcGrid grid = ProcGrid::near_square(team_.size());
  const index_t n = spec_.n;
  const bool phantom = spec_.phantom;
  const auto t0 = Clock::now();
  team_.run([&](Rank& me) {
    const std::size_t i = idx(me.id());
    a_[i].emplace(rma_, me, n, n, grid, phantom);
    b_[i].emplace(rma_, me, n, n, grid, phantom);
    c_[i].emplace(rma_, me, n, n, grid, phantom);
    if (!phantom) {
      a_[i]->scatter_from(me, in.a.view());
      b_[i]->scatter_from(me, in.b.view());
    }
  });
  scatter_s_ = since(t0);
}

MultiplyResult Bed::multiply(const SrummaOptions& opt, double* wall) {
  team_.reset();
  MultiplyResult out;
  const auto t0 = Clock::now();
  team_.run([&](Rank& me) {
    const std::size_t i = idx(me.id());
    const MultiplyResult r = srumma_multiply(me, *a_[i], *b_[i], *c_[i], opt);
    if (me.id() == 0) out = r;
  });
  *wall = since(t0);
  return out;
}

void Bed::gather_c(MatrixView out) {
  team_.run([&](Rank& me) { c_[idx(me.id())]->gather_to(me, out); });
}

MultiplyCheck::MultiplyCheck(const MultiplySpec& spec, const StaticPlan& plan,
                             const Operands& in)
    : bound_(plan.buffer_bound),
      ref_(spec.phantom ? nullptr : &in.ref) {
  if (ref_ != nullptr) gathered_ = Matrix(spec.n, spec.n);
}

std::string MultiplyCheck::check(Bed& bed, const SrummaOptions& opt,
                                 const MultiplyResult& r) {
  const TraceCounters& t = r.trace;
  if (!(r.elapsed > 0.0)) return "modeled time is not positive";
  if (t.copy_tasks + t.direct_tasks != t.gemm_calls)
    return "copy_tasks + direct_tasks != gemm_calls";
  if (opt.engine == EngineMode::On &&
      t.engine_tasks + t.tasks_stolen != t.gemm_calls)
    return "engine_tasks + tasks_stolen != gemm_calls";
  if (t.buffer_bytes_peak > bound_) {
    return "buffer_bytes_peak " + std::to_string(t.buffer_bytes_peak) +
           " exceeds the analyzer bound " + std::to_string(bound_);
  }
  if (ref_ != nullptr) {
    bed.gather_c(gathered_.view());
    const double err = max_abs_diff(gathered_.view(), ref_->view());
    if (!(err <= 1e-9)) return "max |C - ref| = " + std::to_string(err);
  }
  return {};
}

Stream make_stream(std::uint64_t seed, std::uint64_t index, double rate) {
  Stream s;
  Rng rng(mix_seed(seed, 100 + index));
  const double gap = 1.0 / rate;
  double t = 0.0;
  for (int i = 0; i < kStreamJobs; ++i) {
    service::JobSpec job;
    const bool small = rng.uniform() < 0.7;
    job.m = job.n = job.k = small ? kSmallN : kLargeN;
    const double u = rng.uniform();
    job.priority = u < 0.2   ? service::JobPriority::High
                   : u < 0.8 ? service::JobPriority::Normal
                             : service::JobPriority::Low;
    job.deadline_hint = gap * (small ? 8.0 : 32.0);
    job.label = small ? "n128" : "n256";
    s.jobs.push_back(std::move(job));
    s.arrivals.push_back(t);
    t += -std::log(1.0 - rng.uniform()) * gap;
  }
  return s;
}

std::uint64_t ServiceRunner::bound(index_t n, int nodes) {
  const auto key = std::make_pair(n, nodes);
  auto it = bounds_.find(key);
  if (it == bounds_.end()) {
    MultiplySpec spec;
    spec.machine = machine_.carve(nodes);
    spec.n = n;
    spec.opt = cfg_.multiply;
    it = bounds_.emplace(key, plan_spec(spec).buffer_bound).first;
  }
  return it->second;
}

StreamRun ServiceRunner::run(const Stream& s) {
  StreamRun out;
  const auto t0 = Clock::now();
  service::GemmService svc(machine_, cfg_);
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    (void)svc.submit(s.jobs[i], s.arrivals[i]);
  }
  svc.drain();
  out.wall = since(t0);
  out.metrics = svc.metrics();
  out.reports = svc.reports();

  if (out.metrics.completed != s.jobs.size() || out.metrics.rejected != 0 ||
      out.metrics.failed != 0) {
    out.error = "stream finished with " +
                std::to_string(out.metrics.completed) + " done, " +
                std::to_string(out.metrics.rejected) + " rejected, " +
                std::to_string(out.metrics.failed) + " failed";
    return out;
  }
  for (const service::JobReport& rep : out.reports) {
    const TraceCounters& t = rep.result.trace;
    const index_t n = s.jobs[rep.id - 1].m;
    if (rep.state != service::JobState::Done || rep.attempts != 1) {
      out.error = "job " + std::to_string(rep.id) + " needed a retry";
    } else if (t.copy_tasks + t.direct_tasks != t.gemm_calls) {
      out.error = "job " + std::to_string(rep.id) +
                  ": copy_tasks + direct_tasks != gemm_calls";
    } else if (t.buffer_bytes_peak > bound(n, rep.nodes)) {
      out.error = "job " + std::to_string(rep.id) +
                  ": buffer_bytes_peak exceeds the analyzer bound";
    }
    if (!out.error.empty()) break;
  }
  return out;
}

}  // namespace e2e
