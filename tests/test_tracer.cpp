// Structured event tracer: span nesting/ordering under virtual time, the
// ring-buffer overflow policy, Chrome-trace export (parsed back by a
// minimal JSON reader), the zero-perturbation guarantee when tracing is
// on, environment activation, and — under fault injection — exact
// agreement between traced events and the TraceCounters aggregates.  Also
// the ASCII Gantt exporter (print_gantt) and the runtime spans it draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/srumma.hpp"
#include "trace/report.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/journal.hpp"
#include "trace/json.hpp"
#include "trace/metrics_json.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "tests/helpers.hpp"

namespace srumma {
namespace {

using trace::CounterId;
using trace::EvType;
using trace::Phase;
using trace::TraceEvent;
using trace::Tracer;
using trace::TracerConfig;

using testing::JsonParser;
using testing::JsonValue;

// ---------------------------------------------------------------------------
// Shared runners.

struct TracedRun {
  MultiplyResult result;
  double makespan = 0.0;
};

TracedRun run_phantom(Team& team, RmaRuntime& rma, index_t n,
                      SrummaOptions opt = {}) {
  const ProcGrid g = ProcGrid::near_square(team.size());
  TracedRun out;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g, true);
    DistMatrix b(rma, me, n, n, g, true);
    DistMatrix c(rma, me, n, n, g, true);
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) out.result = r;
  });
  out.makespan = team.max_clock();
  return out;
}

double span_total(const std::vector<TraceEvent>& evs,
                  std::initializer_list<Phase> phases) {
  double total = 0.0;
  for (const TraceEvent& e : evs) {
    if (e.type != EvType::Span) continue;
    for (Phase p : phases)
      if (e.phase == p) total += e.t1 - e.t0;
  }
  return total;
}

std::uint64_t instant_count(const std::vector<TraceEvent>& evs, Phase p) {
  std::uint64_t n = 0;
  for (const TraceEvent& e : evs)
    if (e.type == EvType::Instant && e.phase == p) ++n;
  return n;
}

bool has_span(const std::vector<TraceEvent>& evs, Phase p) {
  return std::any_of(evs.begin(), evs.end(), [p](const TraceEvent& e) {
    return e.type == EvType::Span && e.phase == p;
  });
}

std::string gantt(const Tracer& tr, double t0, double t1, int width,
                  int max_ranks) {
  std::ostringstream os;
  print_gantt(os, tr, t0, t1, width, max_ranks);
  return os.str();
}

bool is_comm(Phase p) {
  return p == Phase::Get || p == Phase::Put || p == Phase::Acc ||
         p == Phase::Send || p == Phase::Recv;
}

// ---------------------------------------------------------------------------

TEST(Tracer, OffByDefaultAndZeroPerturbation) {
  // Two identical phantom multiplies, one team traced, one not: the tracer
  // reads clocks but never advances them, so every modeled number must be
  // bit-identical — the "one branch when off" path and the "zero
  // perturbation when on" guarantee in one comparison.
  const MachineModel mm = MachineModel::testing(2, 2);

  Team plain(mm);
  EXPECT_EQ(plain.tracer_ptr(), nullptr);
  EXPECT_EQ(plain.rank(0).tracer(), nullptr);
  RmaRuntime plain_rma(plain);
  const TracedRun base = run_phantom(plain, plain_rma, 128);

  Team traced(mm);
  traced.enable_tracer(TracerConfig{});  // record-only, no output path
  ASSERT_NE(traced.tracer_ptr(), nullptr);
  RmaRuntime traced_rma(traced);
  const TracedRun probe = run_phantom(traced, traced_rma, 128);

  EXPECT_EQ(probe.makespan, base.makespan);
  EXPECT_EQ(probe.result.elapsed, base.result.elapsed);
  EXPECT_EQ(probe.result.gflops, base.result.gflops);
  EXPECT_EQ(probe.result.trace.time_compute, base.result.trace.time_compute);
  EXPECT_EQ(probe.result.trace.time_wait, base.result.trace.time_wait);
  EXPECT_EQ(probe.result.trace.gets, base.result.trace.gets);

  // And the traced team actually recorded something.
  std::uint64_t recorded = 0;
  for (int r = 0; r < traced.size(); ++r)
    recorded += traced.tracer_ptr()->recorded(r);
  EXPECT_GT(recorded, 0u);
}

TEST(Tracer, SpanNestingAndOrderingUnderVirtualTime) {
  Team team(MachineModel::testing(2, 2));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team);
  SrummaOptions opt;
  opt.c_chunk = 32;  // several tasks per rank
  run_phantom(team, rma, 128, opt);

  const Tracer& tr = *team.tracer_ptr();
  for (int r = 0; r < team.size(); ++r) {
    const std::vector<TraceEvent> evs = tr.events(r);
    ASSERT_EQ(tr.dropped(r), 0u) << "rank " << r;
    ASSERT_FALSE(evs.empty()) << "rank " << r;

    // Exactly one Multiply span per rank; it brackets every Task span, and
    // every Compute span lies inside some Task span.
    std::vector<TraceEvent> multiplies, tasks, computes;
    double last_end = 0.0;  // CPU records land at the rank's current clock
    for (const TraceEvent& e : evs) {
      if (e.type == EvType::Span) {
        EXPECT_GE(e.t1, e.t0);
        if (e.phase == Phase::Multiply) multiplies.push_back(e);
        if (e.phase == Phase::Task) tasks.push_back(e);
        if (e.phase == Phase::Compute) computes.push_back(e);
      }
      if (!(e.type == EvType::Span && is_comm(e.phase))) {
        const double stamp = std::max(e.t0, e.t1);
        EXPECT_GE(stamp, last_end - 1e-12) << "rank " << r;
        last_end = stamp;
      }
    }
    ASSERT_EQ(multiplies.size(), 1u) << "rank " << r;
    ASSERT_FALSE(tasks.empty()) << "rank " << r;
    ASSERT_FALSE(computes.empty()) << "rank " << r;
    for (const TraceEvent& t : tasks) {
      EXPECT_GE(t.t0, multiplies[0].t0);
      EXPECT_LE(t.t1, multiplies[0].t1);
    }
    for (const TraceEvent& c : computes) {
      bool inside = false;
      for (const TraceEvent& t : tasks)
        if (c.t0 >= t.t0 - 1e-12 && c.t1 <= t.t1 + 1e-12) {
          inside = true;
          break;
        }
      EXPECT_TRUE(inside) << "rank " << r << ": dgemm outside every task";
    }

    // Span totals reconcile with the aggregate counters.
    const TraceCounters& tc = team.rank(r).trace();
    EXPECT_NEAR(span_total(evs, {Phase::Compute}), tc.time_compute,
                1e-9 * (1.0 + tc.time_compute));
    EXPECT_NEAR(span_total(evs, {Phase::Wait, Phase::RecoveryWait}),
                tc.time_wait, 1e-9 + 0.01 * tc.time_wait);
    EXPECT_EQ(instant_count(evs, Phase::TaskIssue), tasks.size());
  }
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  TracerConfig cfg;
  cfg.ring_capacity = 8;
  Tracer tr({{0, 0}}, cfg);
  for (int i = 0; i < 20; ++i)
    tr.instant(0, Phase::TaskIssue, static_cast<double>(i),
               static_cast<std::uint64_t>(i));
  EXPECT_EQ(tr.recorded(0), 20u);
  EXPECT_EQ(tr.dropped(0), 12u);
  const std::vector<TraceEvent> evs = tr.events(0);
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].arg, 12 + i) << "oldest events must be the dropped ones";
  }
  tr.clear();
  EXPECT_EQ(tr.recorded(0), 0u);
  EXPECT_TRUE(tr.events(0).empty());
}

TEST(Tracer, ChromeTraceExportParsesBack) {
  Team team(MachineModel::testing(2, 2));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team);
  run_phantom(team, rma, 96);

  std::ostringstream os;
  trace::write_chrome_trace(os, *team.tracer_ptr());
  JsonValue doc = JsonParser(os.str()).parse();

  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  EXPECT_EQ(doc.at("otherData").at("schema").str, "srumma-chrome-trace/1");
  EXPECT_EQ(doc.at("otherData").at("ranks").num, team.size());
  const auto& events = doc.at("traceEvents").arr;
  ASSERT_FALSE(events.empty());

  std::size_t complete = 0, asyncs = 0, counters = 0, meta = 0;
  std::map<double, double> open_async;  // id -> begin ts
  for (const JsonValue& e : events) {
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      ++meta;
      continue;
    }
    EXPECT_GE(e.at("ts").num, 0.0);
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").num, 0.0);
    } else if (ph == "b") {
      ++asyncs;
      open_async[e.at("id").num] = e.at("ts").num;
      EXPECT_TRUE(e.at("args").has("bytes"));
    } else if (ph == "e") {
      auto it = open_async.find(e.at("id").num);
      ASSERT_NE(it, open_async.end()) << "async end without begin";
      EXPECT_GE(e.at("ts").num, it->second);
      open_async.erase(it);
    } else if (ph == "C") {
      ++counters;
      EXPECT_TRUE(e.at("args").has("value"));
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  EXPECT_TRUE(open_async.empty()) << "unmatched async begins";
  EXPECT_GT(complete, 0u);
  EXPECT_GT(asyncs, 0u);
  EXPECT_GT(counters, 0u);
  // process_name per node + thread_name/sort per rank.
  EXPECT_GE(meta, static_cast<std::size_t>(2 * team.size()));
}

TEST(Tracer, EnvActivationWritesFileOnTeamDestruction) {
  const std::string path =
      ::testing::TempDir() + "srumma_trace_env_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("SRUMMA_TRACE", path.c_str(), 1), 0);
  ASSERT_EQ(setenv("SRUMMA_TRACE_CAP", "4096", 1), 0);
  {
    Team team(MachineModel::testing(2, 1));
    ASSERT_NE(team.tracer_ptr(), nullptr);
    EXPECT_EQ(team.tracer_ptr()->config().ring_capacity, 4096u);
    RmaRuntime rma(team);
    run_phantom(team, rma, 64);
  }  // ~Team flushes the chrome trace
  unsetenv("SRUMMA_TRACE");
  unsetenv("SRUMMA_TRACE_CAP");

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "trace file was not written: " << path;
  std::stringstream body;
  body << f.rdbuf();
  JsonValue doc = JsonParser(body.str()).parse();
  EXPECT_FALSE(doc.at("traceEvents").arr.empty());
  std::remove(path.c_str());
}

// Deterministic fault injection: every recovery counter must have an
// exactly matching traced event stream, in-flight counters must return to
// zero, and the recovery-time identity must hold per rank.  Runs both
// executors; with a single attempt every injected failure exhausts its
// retries, so operand re-arms are common.
void expect_fault_events_match_counters(EngineMode engine, int max_attempts) {
  const std::string label =
      std::string(engine == EngineMode::On ? "engine" : "pipeline") +
      " max_attempts " + std::to_string(max_attempts);
  fault::FaultConfig f;
  f.seed = 7;
  f.fail_rate = 0.15;
  f.delay_rate = 0.1;
  RetryPolicy rp;
  rp.max_attempts = max_attempts;
  rp.backoff_base = 1e-6;
  RmaConfig cfg;
  cfg.faults = f;
  cfg.retry = rp;

  Team team(MachineModel::testing(2, 2));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team, cfg);
  SrummaOptions opt;
  opt.shm_flavor = ShmFlavor::Copy;  // every task goes through the RMA path
  opt.c_chunk = 32;
  opt.engine = engine;
  run_phantom(team, rma, 128, opt);

  const Tracer& tr = *team.tracer_ptr();
  std::uint64_t retries = 0, faults = 0, rearms = 0, timeouts = 0;
  for (int r = 0; r < team.size(); ++r) {
    ASSERT_EQ(tr.dropped(r), 0u) << label << " rank " << r;
    const std::vector<TraceEvent> evs = tr.events(r);
    const TraceCounters& tc = team.rank(r).trace();

    EXPECT_EQ(instant_count(evs, Phase::Retry), tc.rma_retries)
        << label << " rank " << r;
    EXPECT_EQ(instant_count(evs, Phase::Fault), tc.faults_injected)
        << label << " rank " << r;
    EXPECT_EQ(instant_count(evs, Phase::TaskRearm), tc.task_reissues)
        << label << " rank " << r;
    EXPECT_EQ(instant_count(evs, Phase::OpTimeout), tc.rma_op_timeouts)
        << label << " rank " << r;
    retries += tc.rma_retries;
    faults += tc.faults_injected;
    rearms += tc.task_reissues;
    timeouts += tc.rma_op_timeouts;

    // Reconciliation within 1% (the acceptance bound; in practice exact).
    EXPECT_NEAR(span_total(evs, {Phase::Wait, Phase::RecoveryWait}),
                tc.time_wait, 1e-12 + 0.01 * tc.time_wait)
        << label << " rank " << r;
    EXPECT_NEAR(
        span_total(evs, {Phase::RecoveryWait, Phase::Backoff, Phase::Redo}),
        tc.time_recovery, 1e-12 + 0.01 * tc.time_recovery)
        << label << " rank " << r;
    EXPECT_NEAR(span_total(evs, {Phase::Compute}), tc.time_compute,
                1e-9 * (1.0 + tc.time_compute))
        << label << " rank " << r;

    // Every issued op was consumed: in-flight gauges land back on zero,
    // and the recovery gauge ends at the rank's recovery total.
    EXPECT_EQ(tr.counter_value(r, CounterId::InflightBytes), 0.0)
        << label << " rank " << r;
    EXPECT_EQ(tr.counter_value(r, CounterId::InflightOps), 0.0)
        << label << " rank " << r;
    if (tc.rma_retries > 0) {
      EXPECT_NEAR(tr.counter_value(r, CounterId::RecoverySeconds),
                  tc.time_recovery, 1e-12 + 0.01 * tc.time_recovery)
          << label << " rank " << r;
    }
  }
  EXPECT_GT(faults, 0u) << label << ": fault injection did not fire";
  if (max_attempts > 1) {
    EXPECT_GT(retries, 0u) << label;
  } else {
    EXPECT_GT(rearms, 0u) << label << ": nothing re-armed";
  }
}

TEST(Tracer, FaultRunEventsMatchCounters) {
  for (const EngineMode engine : {EngineMode::Off, EngineMode::On})
    for (const int max_attempts : {12, 1})
      expect_fault_events_match_counters(engine, max_attempts);
}

TEST(Tracer, CountersJsonIsByteStable) {
  // Every field distinct; the literal is the output of the hand-written
  // serializer this list-generated one replaced.
  TraceCounters t;
  t.time_compute = 0.1;
  t.gemm_calls = 2;
  t.flops = 3e12;
  t.time_comm = 0.25;
  t.time_wait = 1.0 / 3.0;
  t.time_noise = 6e-7;
  t.bytes_shm = 7;
  t.bytes_remote = 8;
  t.bytes_msg = 9;
  t.gets = 10;
  t.puts = 11;
  t.sends = 12;
  t.recvs = 13;
  t.direct_tasks = 14;
  t.copy_tasks = 15;
  t.buffer_bytes_peak = 16;
  t.faults_injected = 17;
  t.faults_corrupted = 18;
  t.faults_delayed = 19;
  t.rma_retries = 20;
  t.rma_op_timeouts = 21;
  t.rma_domain_dead = 22;
  t.task_reissues = 24;
  t.shm_fallbacks = 25;
  t.checksum_redos = 26;
  t.time_recovery = 27.5;
  t.cache_hits = 28;
  t.cache_joins = 29;
  t.cache_misses = 30;
  t.cache_bypasses = 31;
  t.cache_evictions = 32;
  t.cache_rearms = 33;
  t.cache_refetches = 34;
  t.cache_bytes_saved = 35;
  t.engine_tasks = 36;
  t.tasks_stolen = 37;
  t.tasks_adopted = 18446744073709551615ull;
  EXPECT_EQ(
      trace::counters_json(t),
      "{\"time_compute\":0.10000000000000001,\"gemm_calls\":2,"
      "\"flops\":3000000000000,\"time_comm\":0.25,"
      "\"time_wait\":0.33333333333333331,"
      "\"time_noise\":5.9999999999999997e-07,\"bytes_shm\":7,"
      "\"bytes_remote\":8,\"bytes_msg\":9,\"gets\":10,\"puts\":11,"
      "\"sends\":12,\"recvs\":13,\"direct_tasks\":14,\"copy_tasks\":15,"
      "\"buffer_bytes_peak\":16,\"faults_injected\":17,"
      "\"faults_corrupted\":18,\"faults_delayed\":19,\"rma_retries\":20,"
      "\"rma_op_timeouts\":21,\"rma_domain_dead\":22,"
      "\"task_reissues\":24,\"shm_fallbacks\":25,\"checksum_redos\":26,"
      "\"time_recovery\":27.5,\"cache_hits\":28,\"cache_joins\":29,"
      "\"cache_misses\":30,\"cache_bypasses\":31,\"cache_evictions\":32,"
      "\"cache_rearms\":33,\"cache_refetches\":34,\"cache_bytes_saved\":35,"
      "\"engine_tasks\":36,\"tasks_stolen\":37,"
      "\"tasks_adopted\":18446744073709551615}");
}

TEST(Json, EscaperWritesControlCharacters) {
  EXPECT_EQ(trace::json_string(testing::hostile_label()),
            "\"q\\\"b\\\\s\\nt\\tc\\u0001end\"");
  EXPECT_EQ(trace::json_string("rank 3 (domain 1)"), "\"rank 3 (domain 1)\"");
}

TEST(Json, MetricsWriterEmitsValidJsonForAnyLabel) {
  const std::string label = testing::hostile_label();
  trace::MetricsLog log(label);
  log.add(label, MultiplyResult{}, {{label, 1.0}}, 0.5);
  const JsonValue doc = JsonParser(log.json()).parse();
  EXPECT_EQ(doc.at("bench").str, label);
  const JsonValue& row = doc.at("rows").arr.at(0);
  EXPECT_EQ(row.at("label").str, label);
  EXPECT_EQ(row.at("params").at(label).num, 1.0);
}

TEST(Json, JournalWriterEmitsValidJsonForAnyLabel) {
  const std::string label = testing::hostile_label();
  const std::string path = ::testing::TempDir() + "/srumma_json_label.jsonl";
  {
    trace::JournalWriter w(path);
    trace::JournalRecord r;
    r.ev = "op";
    r.kind = label;
    r.site = label;
    w.record(r);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue doc = JsonParser(line).parse();
  EXPECT_EQ(doc.at("kind").str, label);
  EXPECT_EQ(doc.at("site").str, label);
  std::remove(path.c_str());
}

TEST(Tracer, MetricsJsonSchemaRoundTrips) {
  trace::MetricsLog log("unit");
  MultiplyResult r;
  r.elapsed = 0.5;
  r.gflops = 12.0;
  r.overlap = 0.75;
  r.trace.gets = 3;
  r.trace.time_compute = 0.25;
  log.add("arm \"a\"", r, {{"n", 128.0}}, 0.125);
  log.add_metrics("scalar", {{"x", 1.0}, {"y", 2.0}}, {{"bytes", 256.0}},
                  0.25, 2.0);
  ASSERT_EQ(log.size(), 2u);

  JsonValue doc = JsonParser(log.json()).parse();
  EXPECT_EQ(doc.at("schema").str, "srumma-bench-metrics/1");
  EXPECT_EQ(doc.at("bench").str, "unit");
  const auto& rows = doc.at("rows").arr;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("label").str, "arm \"a\"");
  EXPECT_EQ(rows[0].at("params").at("n").num, 128.0);
  EXPECT_EQ(rows[0].at("metrics").at("gflops").num, 12.0);
  EXPECT_EQ(rows[0].at("counters").at("gets").num, 3.0);
  EXPECT_EQ(rows[0].at("counters").at("time_compute").num, 0.25);
  EXPECT_EQ(rows[0].at("metrics").at("wall_seconds").num, 0.125);
  EXPECT_EQ(rows[0].at("metrics").at("wall_per_virtual_second").num,
            0.125 / 0.5);
  EXPECT_FALSE(rows[1].has("counters"));
  EXPECT_EQ(rows[1].at("metrics").at("y").num, 2.0);
  EXPECT_EQ(rows[1].at("metrics").at("wall_seconds").num, 0.25);
  EXPECT_EQ(rows[1].at("metrics").at("wall_per_virtual_second").num,
            0.25 / 2.0);
}

// ---------------------------------------------------------------------------
// ASCII Gantt exporter (trace/profile.hpp) and the runtime spans it draws.

TEST(Tracer, GanttGlyphPerPhase) {
  Tracer tr({{0, 0}, {0, 0}, {0, 0}}, TracerConfig{});
  // Containers are not drawn: only what runs inside them.
  tr.span(0, Phase::Multiply, 0, 10);
  tr.span(0, Phase::Task, 0, 10);
  tr.span(0, Phase::Compute, 0, 6);
  tr.span(0, Phase::Wait, 6, 10);
  tr.span(1, Phase::Get, 0, 2);
  tr.span(1, Phase::Put, 2, 4);
  tr.span(1, Phase::Acc, 4, 6);
  tr.span(1, Phase::RecoveryWait, 6, 7);
  tr.span(1, Phase::Noise, 7, 8);
  tr.span(1, Phase::Barrier, 8, 9);
  tr.span(1, Phase::Send, 9, 10);
  // Cache, message, adoption and service spans are not drawn either.
  for (Phase p : {Phase::CacheRead, Phase::Recv, Phase::Adopt, Phase::Job,
                  Phase::JobWait})
    tr.span(2, p, 0, 10);
  tr.instant(2, Phase::TaskIssue, 5);
  tr.counter_add(2, CounterId::InflightOps, 5, 1.0);

  const std::string s = gantt(tr, 0, 10, 10, 16);
  EXPECT_NE(s.find("timeline [0 ms .. 10000 ms], 1000 ms/cell"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find(" 0 |CCCCCCWWWW|\n"), std::string::npos) << s;
  EXPECT_NE(s.find(" 1 |GGPPPPWNB.|\n"), std::string::npos) << s;
  EXPECT_NE(s.find(" 2 |..........|\n"), std::string::npos) << s;
}

TEST(Tracer, GanttDrawsDominantGlyphPerCell) {
  Tracer tr({{0, 0}, {0, 0}}, TracerConfig{});
  tr.span(0, Phase::Compute, 0, 4.7);  // cell 4: 0.7 compute, 0.3 wait
  tr.span(0, Phase::Wait, 4.7, 10);
  // An exact tie goes to the glyph earlier in character order, whatever
  // the record order.
  tr.span(1, Phase::Put, 0.5, 1.0);
  tr.span(1, Phase::Get, 0.0, 0.5);
  const std::string s = gantt(tr, 0, 10, 10, 16);
  EXPECT_NE(s.find(" 0 |CCCCCWWWWW|\n"), std::string::npos) << s;
  EXPECT_NE(s.find(" 1 |G.........|\n"), std::string::npos) << s;
}

TEST(Tracer, GanttAutoRangeCoversDrawnSpansOnly) {
  Tracer tr({{0, 0}}, TracerConfig{});
  tr.span(0, Phase::Multiply, 0.0, 5.0);  // not drawn: no range either
  tr.span(0, Phase::Compute, 1.0, 2.0);
  tr.span(0, Phase::Barrier, 3.0, 3.0);  // zero-length: skipped
  const std::string s = gantt(tr, 0.0, 0.0, 20, 16);  // auto: [0, 2]
  EXPECT_NE(s.find("timeline [0 ms .. 2000 ms]"), std::string::npos) << s;
  EXPECT_NE(s.find(" 0 |..........CCCCCCCCCC|\n"), std::string::npos) << s;
  EXPECT_EQ(s.find('B', s.find('|')), std::string::npos) << s;

  Tracer empty({{0, 0}}, TracerConfig{});
  empty.span(0, Phase::Compute, 1.0, 1.0);
  EXPECT_EQ(gantt(empty, 0.0, 0.0, 20, 16), "(timeline empty)\n");
}

TEST(Tracer, GanttCapsRanks) {
  Tracer tr(std::vector<trace::TrackInfo>(40), TracerConfig{});
  for (int r = 0; r < 40; ++r) tr.span(r, Phase::Compute, 0, 1);
  const std::string s = gantt(tr, 0, 1, 20, 8);
  EXPECT_NE(s.find(" 7 |CCCCCCCCCCCCCCCCCCCC|\n"), std::string::npos) << s;
  EXPECT_EQ(s.find(" 8 |"), std::string::npos) << s;
  EXPECT_NE(s.find("(32 more ranks not shown)\n"), std::string::npos) << s;
}

TEST(Tracer, GanttReportsDroppedEvents) {
  TracerConfig cfg;
  cfg.ring_capacity = 4;
  Tracer tr({{0, 0}}, cfg);
  for (int i = 0; i < 10; ++i) tr.span(0, Phase::Compute, i, i + 1);
  ASSERT_EQ(tr.dropped(0), 6u);
  // Only the 4 newest spans survive; the auto range still starts at 0.
  const std::string s = gantt(tr, 0, 0, 10, 16);
  EXPECT_NE(s.find(" 0 |......CCCC|\n"), std::string::npos) << s;
  EXPECT_NE(s.find("(6 tracer events lost to ring overflow"),
            std::string::npos)
      << s;

  Tracer whole({{0, 0}}, TracerConfig{});
  whole.span(0, Phase::Compute, 0, 1);
  EXPECT_EQ(gantt(whole, 0, 0, 10, 16).find("lost"), std::string::npos);
}

TEST(Tracer, ResetClearsEventsButKeepsTracer) {
  Team team(MachineModel::testing(1, 1));
  team.enable_tracer(TracerConfig{});
  team.run([](Rank& me) { me.charge_gemm(16, 16, 16); });
  EXPECT_TRUE(has_span(team.tracer_ptr()->events(0), Phase::Compute));
  team.reset();
  ASSERT_NE(team.tracer_ptr(), nullptr);  // still installed
  EXPECT_TRUE(team.tracer_ptr()->events(0).empty());
}

TEST(Tracer, RecordsComputeWaitAndIdleBarrier) {
  Team team(MachineModel::testing(2, 1));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 4096);
    me.barrier();
    me.charge_gemm(64, 64, 64);
    if (me.id() == 0) {
      RmaHandle h = rma.nbget(me, 1, r.base(1), nullptr, 4096);
      rma.wait(me, h);  // remote transfer: wait is non-trivial
    }
    me.barrier();
  });
  const Tracer& tr = *team.tracer_ptr();
  EXPECT_TRUE(has_span(tr.events(0), Phase::Compute));
  EXPECT_TRUE(has_span(tr.events(0), Phase::Wait));
  // Rank 1 idled into the final barrier: it must show a Barrier span.
  EXPECT_TRUE(has_span(tr.events(1), Phase::Barrier));
}

TEST(Tracer, RemoteGetSpanCoversTheTransfer) {
  // The Get span covers the in-flight transfer (the overlap window), not
  // the wait, so it lasts at least one network latency.
  Team team(MachineModel::testing(2, 1));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    me.barrier();
    if (me.id() == 0) {
      Matrix dst(64, 64);
      SymmetricRegion r = rma.malloc_symmetric(me, 64 * 64);
      RmaHandle h = rma.nbget2d(me, 1, r.base(1), 64, 64, 64, dst.data(), 64);
      rma.wait(me, h);
    } else {
      (void)rma.malloc_symmetric(me, 64 * 64);
    }
  });
  int gets = 0;
  for (const TraceEvent& e : team.tracer_ptr()->events(0)) {
    if (e.type != EvType::Span || e.phase != Phase::Get) continue;
    ++gets;
    EXPECT_GT(e.t1 - e.t0, team.machine().net_latency * 0.9);
  }
  EXPECT_EQ(gets, 1);
}

TEST(Tracer, SrummaPipelineOverlapsGetsWithCompute) {
  // On a cluster run, rank 0's Get spans overlap its Compute spans in
  // virtual time — that is the whole point of the pipeline.
  Team team(MachineModel::linux_myrinet(4));
  team.enable_tracer(TracerConfig{});
  RmaRuntime rma(team);
  run_phantom(team, rma, 1024);
  const std::vector<TraceEvent> ev = team.tracer_ptr()->events(0);
  bool overlapped = false;
  for (const TraceEvent& get : ev) {
    if (get.type != EvType::Span || get.phase != Phase::Get) continue;
    for (const TraceEvent& cmp : ev) {
      if (cmp.type != EvType::Span || cmp.phase != Phase::Compute) continue;
      overlapped |= get.t0 < cmp.t1 && cmp.t0 < get.t1;
    }
  }
  EXPECT_TRUE(overlapped);
}

TEST(Tracer, OneWorkerPooledGanttIsReproducible) {
  // docs/HARNESS.md §4: a single-worker pooled run is reproducible even
  // where NIC contention makes booking order matter (the pooled vs
  // thread-per-rank differential is only bitwise on contention-free
  // machines).  Two runs of the same contended multiply draw the same
  // chart, cell for cell.
  auto draw = [] {
    Team team(MachineModel::linux_myrinet(4));
    team.set_execution(ExecMode::Pooled, 1);
    team.enable_tracer(TracerConfig{});
    RmaRuntime rma(team);
    run_phantom(team, rma, 1024);
    return gantt(*team.tracer_ptr(), 0.0, 0.0, 100, 8);
  };
  const std::string first = draw();
  const std::size_t rows = first.find('|');
  EXPECT_NE(first.find('G', rows), std::string::npos) << first;
  EXPECT_NE(first.find('C', rows), std::string::npos) << first;
  EXPECT_EQ(draw(), first);
}

}  // namespace
}  // namespace srumma
