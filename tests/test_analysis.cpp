// Static analyzer (src/analysis): clean configurations must certify with
// zero findings, every seeded mutation class must be flagged, the executor
// replay must reproduce real runs' buffer peaks under both operand
// lifetimes, within the static bounds, and the happens-before detector
// must agree with the epoch checker on crafted journals.

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/analyzer.hpp"
#include "analysis/hb.hpp"
#include "analysis/plan_model.hpp"
#include "core/srumma.hpp"
#include "tests/helpers.hpp"
#include "trace/journal.hpp"

namespace srumma {
namespace {

using analysis::AnalysisConfig;
using analysis::AnalysisReport;
using analysis::FindingKind;
using analysis::Mutation;
using blas::Trans;

AnalysisConfig base_config() {
  AnalysisConfig cfg;
  cfg.machine = MachineModel::testing(2, 2);
  cfg.m = cfg.n = cfg.k = 96;
  return cfg;
}

std::vector<std::pair<const char*, AnalysisConfig>> clean_configs() {
  std::vector<std::pair<const char*, AnalysisConfig>> out;
  out.emplace_back("testing-direct", base_config());

  AnalysisConfig copy = base_config();
  copy.options.shm_flavor = ShmFlavor::Copy;
  out.emplace_back("testing-copy", copy);

  AnalysisConfig cluster = base_config();
  cluster.machine = MachineModel::linux_myrinet(4);
  cluster.options.shm_flavor = ShmFlavor::Copy;
  cluster.m = cluster.n = cluster.k = 128;
  cluster.options.c_chunk = 32;
  out.emplace_back("cluster-copy-tiled", cluster);

  AnalysisConfig altix = base_config();
  altix.machine = MachineModel::sgi_altix(8);
  out.emplace_back("altix-direct", altix);

  AnalysisConfig x1 = base_config();
  x1.machine = MachineModel::cray_x1(2);
  x1.options.shm_flavor = ShmFlavor::Copy;
  out.emplace_back("x1-copy", x1);

  AnalysisConfig blocking = base_config();
  blocking.machine = MachineModel::ibm_sp(2);
  blocking.options.nonblocking = false;
  out.emplace_back("sp-blocking", blocking);

  AnalysisConfig trans = base_config();
  trans.options.ta = Trans::Yes;
  trans.options.tb = Trans::Yes;
  trans.options.ordering = OrderingPolicy::naive();
  trans.m = 96; trans.n = 72; trans.k = 60;
  out.emplace_back("transposed-naive", trans);

  AnalysisConfig rect = base_config();
  rect.machine = MachineModel::testing(3, 2);
  rect.m = 90; rect.n = 84; rect.k = 110;
  rect.options.shm_flavor = ShmFlavor::Copy;
  rect.options.k_chunk = 24;
  out.emplace_back("rectangular-kchunk", rect);
  return out;
}

TEST(Analysis, CleanConfigsCertify) {
  for (const auto& [label, cfg] : clean_configs()) {
    const analysis::PlanModel pm = analysis::build_plan_model(cfg);
    const AnalysisReport rep = analysis::analyze(pm);
    EXPECT_TRUE(rep.certified()) << label;
    for (const analysis::Finding& f : rep.findings)
      ADD_FAILURE() << label << ": ["
                    << analysis::finding_kind_name(f.kind) << "] "
                    << f.message;
    EXPECT_GT(rep.total_tasks, 0u) << label;
    EXPECT_GT(rep.bounds.buffer_bytes, 0u) << label;
    // The replayed exact footprint of each lifetime never exceeds the
    // closed-form ceiling (also enforced as a ResourceBound finding, but
    // assert the margin explicitly), and the window lifetime never holds
    // more than the plan lifetime.
    EXPECT_LE(rep.window_replay.bytes, rep.plan_replay.bytes) << label;
    EXPECT_LE(rep.plan_replay.bytes, rep.bounds.buffer_bytes) << label;
    EXPECT_LE(rep.window_replay.pins, rep.bounds.cache_pins) << label;
    EXPECT_LE(rep.plan_replay.pins, rep.bounds.cache_pins) << label;
  }
}

TEST(Analysis, ReportJsonShape) {
  const analysis::PlanModel pm = analysis::build_plan_model(base_config());
  const AnalysisReport rep = analysis::analyze(pm);
  const std::string j = analysis::report_json(pm, rep, "none", "");
  EXPECT_NE(j.find("\"schema\":\"srumma-analysis/1\""), std::string::npos);
  EXPECT_NE(j.find("\"certified\":true"), std::string::npos);
  EXPECT_NE(j.find("\"buffer_bytes_peak_bound\""), std::string::npos);
  EXPECT_NE(j.find("\"cache_pins_bound\""), std::string::npos);
}

TEST(Analysis, ReportJsonIsValidForAnyLabel) {
  const std::string label = testing::hostile_label();
  AnalysisConfig cfg = base_config();
  cfg.machine.name = label;
  const analysis::PlanModel pm = analysis::build_plan_model(cfg);
  const AnalysisReport rep = analysis::analyze(pm);
  const testing::JsonValue doc =
      testing::JsonParser(analysis::report_json(pm, rep, label, label))
          .parse();
  EXPECT_EQ(doc.at("machine").str, label);
  EXPECT_EQ(doc.at("mutation").str, label);
  EXPECT_EQ(doc.at("mutation_detail").str, label);
}

// -- seeded mutations ---------------------------------------------------------

bool has_kind(const AnalysisReport& rep, FindingKind kind) {
  for (const analysis::Finding& f : rep.findings)
    if (f.kind == kind) return true;
  return false;
}

AnalysisConfig mutation_config() {
  // Copy flavor on a 2-node machine: copy-path fetches exist (DropWait)
  // and multi-link chains exist (ReorderCommit, AdoptChain).
  AnalysisConfig cfg = base_config();
  cfg.options.shm_flavor = ShmFlavor::Copy;
  return cfg;
}

TEST(Analysis, MutationDropWaitFlagged) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    analysis::PlanModel pm = analysis::build_plan_model(mutation_config());
    const std::string what =
        analysis::mutate_plan(pm, Mutation::DropWait, seed);
    const AnalysisReport rep = analysis::analyze(pm);
    EXPECT_FALSE(rep.certified()) << what;
    EXPECT_TRUE(has_kind(rep, FindingKind::Executor)) << what;
    // The replay must name the dynamic class the fault surfaces as.
    bool use_before_wait = false;
    for (const analysis::Finding& f : rep.findings)
      if (f.diag == check::Diag::UseBeforeWait) use_before_wait = true;
    EXPECT_TRUE(use_before_wait) << what;
  }
}

TEST(Analysis, MutationReorderCommitFlagged) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    analysis::PlanModel pm = analysis::build_plan_model(mutation_config());
    const std::string what =
        analysis::mutate_plan(pm, Mutation::ReorderCommit, seed);
    const AnalysisReport rep = analysis::analyze(pm);
    EXPECT_FALSE(rep.certified()) << what;
    EXPECT_TRUE(has_kind(rep, FindingKind::CommitChain)) << what;
  }
}

TEST(Analysis, MutationWidenGetWindowFlagged) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    analysis::PlanModel pm = analysis::build_plan_model(mutation_config());
    const std::string what =
        analysis::mutate_plan(pm, Mutation::WidenGetWindow, seed);
    const AnalysisReport rep = analysis::analyze(pm);
    EXPECT_FALSE(rep.certified()) << what;
    EXPECT_TRUE(has_kind(rep, FindingKind::PlanShape)) << what;
  }
}

TEST(Analysis, MutationAdoptChainFlagged) {
  // The recovery-side analogue of reorder-commit (docs/FAULTS.md §7): a
  // survivor adopts a dead rank's tile but replays the chain out of plan
  // order.  The analyzer must prove the replay order against the dead
  // rank's own chain layout.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    analysis::PlanModel pm = analysis::build_plan_model(mutation_config());
    const std::string what =
        analysis::mutate_plan(pm, Mutation::AdoptChain, seed);
    const AnalysisReport rep = analysis::analyze(pm);
    EXPECT_FALSE(rep.certified()) << what;
    EXPECT_TRUE(has_kind(rep, FindingKind::CommitChain)) << what;
  }
}

TEST(Analysis, MutationsDeterministic) {
  for (const Mutation mut :
       {Mutation::DropWait, Mutation::ReorderCommit, Mutation::WidenGetWindow,
        Mutation::AdoptChain}) {
    analysis::PlanModel pm1 = analysis::build_plan_model(mutation_config());
    analysis::PlanModel pm2 = analysis::build_plan_model(mutation_config());
    EXPECT_EQ(analysis::mutate_plan(pm1, mut, 42),
              analysis::mutate_plan(pm2, mut, 42));
  }
}

// -- static bounds vs real runs -----------------------------------------------

struct RealRun {
  std::uint64_t peak = 0;  ///< team-wide buffer_bytes_peak
  Matrix c;
};

/// Run the real multiply for the modeled configuration, pooled on one
/// harness worker, and return the team-wide buffer peak (MAX across ranks,
/// matching the bound semantics) and the gathered C.
RealRun run_real(const AnalysisConfig& cfg, EngineMode engine,
                 bool cache = false) {
  Team team(cfg.machine);
  team.set_execution(ExecMode::Pooled, 1);
  RmaConfig rc;
  rc.cache = cache;
  RmaRuntime rma(team, rc);
  const ProcGrid grid = ProcGrid::near_square(team.size());
  Matrix a_global = testing::coords_matrix(cfg.m, cfg.k);
  Matrix b_global(cfg.k, cfg.n);
  fill_random(b_global.view(), 7);

  RealRun out{0, Matrix(cfg.m, cfg.n)};
  MultiplyResult result;
  SrummaOptions opt = cfg.options;
  opt.engine = engine;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, cfg.m, cfg.k, grid);
    DistMatrix b(rma, me, cfg.k, cfg.n, grid);
    DistMatrix c(rma, me, cfg.m, cfg.n, grid);
    a.scatter_from(me, a_global.view());
    b.scatter_from(me, b_global.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) result = r;
    c.gather_to(me, out.c.view());
  });
  out.peak = result.trace.buffer_bytes_peak;
  return out;
}

std::uint64_t run_real_peak(const AnalysisConfig& cfg, EngineMode engine) {
  return run_real(cfg, engine).peak;
}

TEST(Analysis, StaticBoundCoversWindowLifetimeRun) {
  AnalysisConfig cfg = base_config();
  cfg.options.shm_flavor = ShmFlavor::Copy;
  const AnalysisReport rep =
      analysis::analyze(analysis::build_plan_model(cfg));
  ASSERT_TRUE(rep.certified());
  const std::uint64_t peak = run_real_peak(cfg, EngineMode::Off);
  EXPECT_GT(peak, 0u);
  EXPECT_EQ(peak, rep.window_replay.bytes);
  EXPECT_LE(peak, rep.bounds.buffer_bytes);
}

TEST(Analysis, StaticBoundCoversPlanLifetimeRun) {
  AnalysisConfig cfg = base_config();
  cfg.options.shm_flavor = ShmFlavor::Copy;
  const AnalysisReport rep =
      analysis::analyze(analysis::build_plan_model(cfg));
  ASSERT_TRUE(rep.certified());
  const std::uint64_t peak = run_real_peak(cfg, EngineMode::On);
  EXPECT_GT(peak, 0u);
  EXPECT_EQ(peak, rep.plan_replay.bytes);
  EXPECT_LE(peak, rep.bounds.buffer_bytes);
}

TEST(Analysis, StaticBoundCoversTiledClusterRun) {
  AnalysisConfig cfg;
  cfg.machine = MachineModel::linux_myrinet(4);
  cfg.m = cfg.n = cfg.k = 128;
  cfg.options.c_chunk = 32;
  const AnalysisReport rep =
      analysis::analyze(analysis::build_plan_model(cfg));
  ASSERT_TRUE(rep.certified());
  for (const EngineMode mode : {EngineMode::Off, EngineMode::On})
    EXPECT_LE(run_real_peak(cfg, mode), rep.bounds.buffer_bytes);
}

TEST(Analysis, ReplayPeakMatchesRunsOfBothLifetimes) {
  // The executor replay is exact: over machine x C tiling x blocking x
  // cache, a clean run's buffer_bytes_peak equals the replay's peak for its
  // operand lifetime, and the two lifetimes produce bitwise the same C
  // (both commit every tile's products in plan order).
  const index_t n = 128;
  for (const MachineModel& mm :
       {MachineModel::linux_myrinet(4), MachineModel::ibm_sp(2)}) {
    for (const index_t c_chunk : {index_t{0}, n / 16}) {
      for (const bool nonblocking : {false, true}) {
        for (const bool cache : {false, true}) {
          AnalysisConfig cfg;
          cfg.machine = mm;
          cfg.m = cfg.n = cfg.k = n;
          cfg.options.c_chunk = c_chunk;
          cfg.options.nonblocking = nonblocking;
          const std::string label =
              mm.name + " c_chunk=" + std::to_string(c_chunk) +
              (nonblocking ? " nonblocking" : " blocking") +
              (cache ? " cache" : "");
          const AnalysisReport rep =
              analysis::analyze(analysis::build_plan_model(cfg));
          ASSERT_TRUE(rep.certified()) << label;
          const RealRun window = run_real(cfg, EngineMode::Off, cache);
          const RealRun plan = run_real(cfg, EngineMode::On, cache);
          EXPECT_EQ(window.peak, rep.window_replay.bytes) << label;
          EXPECT_EQ(plan.peak, rep.plan_replay.bytes) << label;
          EXPECT_LE(plan.peak, rep.bounds.buffer_bytes) << label;
          EXPECT_EQ(max_abs_diff(window.c.view(), plan.c.view()), 0.0)
              << label;
        }
      }
    }
  }
}

// -- happens-before cross-checker ---------------------------------------------

trace::JournalRecord op_rec(int rank, const char* kind, int owner,
                            std::uint64_t seq, std::uint64_t handle,
                            std::uint64_t rlo, std::uint64_t bytes) {
  trace::JournalRecord r;
  r.ev = "op";
  r.rank = rank;
  r.kind = kind;
  r.owner = owner;
  r.seq = seq;
  r.handle = handle;
  r.rlo = rlo;
  r.rrows = bytes;
  r.rcols = 1;
  r.rld = bytes;
  return r;
}

trace::JournalRecord wait_rec(int rank, std::uint64_t handle) {
  trace::JournalRecord r;
  r.ev = "wait";
  r.rank = rank;
  r.handle = handle;
  return r;
}

trace::JournalRecord barrier_rec(int rank) {
  trace::JournalRecord r;
  r.ev = "barrier";
  r.rank = rank;
  return r;
}

TEST(AnalysisHb, OverlappingReadsDoNotRace) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "get", 2, 5, 1, 0, 256), op_rec(1, "get", 2, 5, 2, 128, 256),
      wait_rec(0, 1), wait_rec(1, 2)};
  const analysis::HbResult res = analysis::analyze_journal(recs);
  EXPECT_EQ(res.ops.size(), 2u);
  EXPECT_TRUE(res.races.empty());
}

TEST(AnalysisHb, UnorderedPutGetRaceIsMissedWithoutDiag) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), op_rec(1, "get", 2, 5, 2, 128, 256),
      wait_rec(0, 1), wait_rec(1, 2)};
  const analysis::HbResult res = analysis::analyze_journal(recs);
  ASSERT_EQ(res.races.size(), 1u);
  EXPECT_TRUE(res.races[0].remote);
  EXPECT_FALSE(res.races[0].matched);
  EXPECT_EQ(res.missed(), 1u);
}

TEST(AnalysisHb, RaceWithMatchingDiagIsCrossValidated) {
  trace::JournalRecord diag;
  diag.ev = "diag";
  diag.rank = 1;
  diag.kind = "EpochConflict";
  diag.seq = 5;
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), op_rec(1, "get", 2, 5, 2, 128, 256),
      wait_rec(0, 1), wait_rec(1, 2), diag};
  const analysis::HbResult res = analysis::analyze_journal(recs);
  ASSERT_EQ(res.races.size(), 1u);
  EXPECT_TRUE(res.races[0].matched);
  EXPECT_EQ(res.missed(), 0u);
}

TEST(AnalysisHb, BarrierSeparationOrdersAcrossRanks) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), wait_rec(0, 1),
      barrier_rec(0),                    barrier_rec(1),
      op_rec(1, "get", 2, 5, 2, 0, 256), wait_rec(1, 2)};
  const analysis::HbResult res = analysis::analyze_journal(recs);
  EXPECT_TRUE(res.races.empty());
  EXPECT_EQ(res.n_barriers, 2u);
}

TEST(AnalysisHb, SameRankWaitBeforeIssueOrders) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), wait_rec(0, 1),
      op_rec(0, "get", 2, 5, 2, 0, 256), wait_rec(0, 2)};
  EXPECT_TRUE(analysis::analyze_journal(recs).races.empty());
}

TEST(AnalysisHb, SameRankConcurrentPutGetRaces) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), op_rec(0, "get", 2, 5, 2, 0, 256),
      wait_rec(0, 1), wait_rec(0, 2)};
  EXPECT_EQ(analysis::analyze_journal(recs).races.size(), 1u);
}

TEST(AnalysisHb, AccumulatesAreAtomic) {
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "acc", 2, 5, 1, 0, 256), op_rec(1, "acc", 2, 5, 2, 0, 256),
      wait_rec(0, 1), wait_rec(1, 2)};
  EXPECT_TRUE(analysis::analyze_journal(recs).races.empty());
}

TEST(AnalysisHb, UnwaitedOpStaysOpenAcrossBarriers) {
  // Rank 0's put is never waited: even a barrier-separated get still races
  // with it (the op interval never closes).
  const std::vector<trace::JournalRecord> recs = {
      op_rec(0, "put", 2, 5, 1, 0, 256), barrier_rec(0), barrier_rec(1),
      op_rec(1, "get", 2, 5, 2, 0, 256), wait_rec(1, 2)};
  EXPECT_EQ(analysis::analyze_journal(recs).races.size(), 1u);
}

TEST(AnalysisHb, LocalBufferConflictDetected) {
  // A get's destination buffer overlapping a declared compute read on the
  // same rank, unordered -> local race.
  trace::JournalRecord get = op_rec(0, "get", 2, 5, 1, 0, 256);
  get.llo = 0x1000; get.lrows = 256; get.lcols = 1; get.lld = 256;
  trace::JournalRecord read;
  read.ev = "op";
  read.rank = 0;
  read.kind = "compute-read";
  read.owner = -1;
  read.handle = 0;  // declaration: completes at issue
  read.llo = 0x1080; read.lrows = 256; read.lcols = 1; read.lld = 256;
  const std::vector<trace::JournalRecord> recs = {get, read, wait_rec(0, 1)};
  const analysis::HbResult res = analysis::analyze_journal(recs);
  ASSERT_EQ(res.races.size(), 1u);
  EXPECT_FALSE(res.races[0].remote);
}

TEST(AnalysisHb, RealRunCrossValidates) {
  // End to end through the real checker: journal a real run of each
  // executor, then the HB detector must find nothing the epoch model
  // missed.  The engine arm runs first, on one harness worker, where all
  // ranks share one heap: an operand buffer freed before the multiply's
  // closing barriers would be reallocated to another rank and read as a
  // race.
  const std::string path =
      ::testing::TempDir() + "/srumma_hb_crosscheck.jsonl";
  for (const EngineMode mode : {EngineMode::On, EngineMode::Off}) {
    const char* label = mode == EngineMode::On ? "engine" : "pipeline";
    setenv("SRUMMA_RMA_JOURNAL", path.c_str(), 1);
    {
      AnalysisConfig cfg = base_config();
      Team team(cfg.machine);
      if (mode == EngineMode::On) team.set_execution(ExecMode::Pooled, 1);
      RmaConfig rc;
      rc.check = true;
      RmaRuntime rma(team, rc);
      const ProcGrid grid = ProcGrid::near_square(team.size());
      Matrix a_global = testing::coords_matrix(cfg.m, cfg.k);
      Matrix b_global(cfg.k, cfg.n);
      fill_random(b_global.view(), 9);
      SrummaOptions opt;
      opt.engine = mode;
      team.run([&](Rank& me) {
        DistMatrix a(rma, me, cfg.m, cfg.k, grid);
        DistMatrix b(rma, me, cfg.k, cfg.n, grid);
        DistMatrix c(rma, me, cfg.m, cfg.n, grid);
        a.scatter_from(me, a_global.view());
        b.scatter_from(me, b_global.view());
        srumma_multiply(me, a, b, c, opt);
      });
    }
    unsetenv("SRUMMA_RMA_JOURNAL");
    const analysis::HbResult res =
        analysis::analyze_journal(trace::read_journal(path));
    EXPECT_GT(res.ops.size(), 0u) << label;
    EXPECT_EQ(res.missed(), 0u) << label;
    std::remove(path.c_str());
  }
}

TEST(AnalysisHb, TraceReportJsonIsValidForAnyLabel) {
  const std::string label = testing::hostile_label();
  const testing::JsonValue doc =
      testing::JsonParser(
          analysis::hb_report_json(label, analysis::analyze_journal({})))
          .parse();
  EXPECT_EQ(doc.at("journal").str, label);
}

TEST(AnalysisHb, TraceReportJsonShape) {
  const analysis::HbResult res = analysis::analyze_journal({});
  const std::string j = analysis::hb_report_json("x.jsonl", res);
  EXPECT_NE(j.find("\"schema\":\"srumma-analysis-trace/1\""),
            std::string::npos);
  EXPECT_NE(j.find("\"cross_validated\":true"), std::string::npos);
}

}  // namespace
}  // namespace srumma
