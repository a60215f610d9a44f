#include "analysis/hb.hpp"

#include <algorithm>
#include <map>

#include "check/rma_checker.hpp"
#include "trace/json.hpp"

namespace srumma::analysis {

namespace {

constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

bool writes_remote(const std::string& kind) {
  return kind == "put" || kind == "acc" || kind == "local-write";
}

bool writes_local(const std::string& kind) {
  // A get fills its origin destination; a declared local write mutates the
  // buffer directly.  put/acc/compute-read only read their local side.
  return kind == "get" || kind == "local-write";
}

check::Footprint remote_fp(const HbOp& op) {
  return check::Footprint{op.rlo, op.rrows, op.rcols, op.rld};
}

check::Footprint local_fp(const HbOp& op) {
  return check::Footprint{op.llo, op.lrows, op.lcols, op.lld};
}

/// Does op1's completion happen-before op2's issue?
bool completion_before_issue(const HbOp& op1, const HbOp& op2) {
  if (!op1.waited) return false;  // never completes — orders after nothing
  if (op1.rank == op2.rank) return op1.wait_line < op2.issue_line;
  // Cross-rank ordering exists only through collective barriers: op1 must
  // complete in a strictly earlier epoch than op2's issue.
  return op1.wait_epoch < op2.issue_epoch;
}

bool unordered(const HbOp& a, const HbOp& b) {
  return !completion_before_issue(a, b) && !completion_before_issue(b, a);
}

bool diag_covers(const trace::JournalRecord& d, const HbOp& a,
                 const HbOp& b) {
  if (d.seq != kNoSeq && (d.seq == a.seq || d.seq == b.seq)) return true;
  return d.rank == a.rank || d.rank == b.rank;
}

}  // namespace

HbResult analyze_journal(const std::vector<trace::JournalRecord>& recs) {
  HbResult res;
  res.n_records = recs.size();

  // Pass 1: reconstruct ops with issue/wait lines and a self-consistent
  // epoch clock (count of this rank's barrier records so far — the same
  // numbering the checker journals, but derived independently).
  std::map<int, std::uint64_t> epoch_of;
  std::map<std::pair<int, std::uint64_t>, std::size_t> open;  // (rank,handle)
  for (std::size_t line = 0; line < recs.size(); ++line) {
    const trace::JournalRecord& r = recs[line];
    if (r.ev == "barrier") {
      epoch_of[r.rank] += 1;
      ++res.n_barriers;
    } else if (r.ev == "diag") {
      res.diags.push_back(r);
    } else if (r.ev == "op") {
      HbOp op;
      op.rank = r.rank;
      op.kind = r.kind;
      op.owner = r.owner;
      op.seq = r.seq;
      op.handle = r.handle;
      op.issue_line = line;
      op.issue_epoch = epoch_of[r.rank];
      op.rlo = r.rlo; op.rrows = r.rrows; op.rcols = r.rcols; op.rld = r.rld;
      op.llo = r.llo; op.lrows = r.lrows; op.lcols = r.lcols; op.lld = r.lld;
      op.site = r.site;
      if (op.handle == 0) {  // declarations complete at issue
        op.waited = true;
        op.wait_line = line;
        op.wait_epoch = op.issue_epoch;
      } else {
        open[{r.rank, r.handle}] = res.ops.size();
      }
      res.ops.push_back(std::move(op));
    } else if (r.ev == "wait") {
      const auto it = open.find({r.rank, r.handle});
      if (it == open.end()) continue;  // double wait / unknown handle
      HbOp& op = res.ops[it->second];
      op.waited = true;
      op.wait_line = line;
      op.wait_epoch = epoch_of[r.rank];
      open.erase(it);
    }
  }

  // Pass 2a: remote conflicts, grouped per owner segment.
  std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> by_seg;
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const HbOp& op = res.ops[i];
    if (op.seq != kNoSeq && op.rcols != 0 && op.rrows != 0)
      by_seg[{op.seq, op.owner}].push_back(i);
  }
  for (const auto& [seg, idxs] : by_seg) {
    for (std::size_t x = 0; x < idxs.size(); ++x) {
      for (std::size_t y = x + 1; y < idxs.size(); ++y) {
        const HbOp& a = res.ops[idxs[x]];
        const HbOp& b = res.ops[idxs[y]];
        if (!writes_remote(a.kind) && !writes_remote(b.kind)) continue;
        if (a.kind == "acc" && b.kind == "acc") continue;  // atomic
        if (!check::footprints_overlap(remote_fp(a), remote_fp(b))) continue;
        if (!unordered(a, b)) continue;
        HbRace race;
        race.op1 = idxs[x];
        race.op2 = idxs[y];
        race.remote = true;
        race.seq = seg.first;
        race.owner = seg.second;
        for (const trace::JournalRecord& d : res.diags)
          if (diag_covers(d, a, b)) { race.matched = true; break; }
        res.races.push_back(race);
      }
    }
  }

  // Pass 2b: local (origin-buffer) conflicts.  llo == 0 means the run was
  // phantom (no real buffers) — nothing to compare.
  std::vector<std::size_t> locals;
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const HbOp& op = res.ops[i];
    if (op.llo != 0 && op.lcols != 0 && op.lrows != 0) locals.push_back(i);
  }
  for (std::size_t x = 0; x < locals.size(); ++x) {
    for (std::size_t y = x + 1; y < locals.size(); ++y) {
      const HbOp& a = res.ops[locals[x]];
      const HbOp& b = res.ops[locals[y]];
      if (!writes_local(a.kind) && !writes_local(b.kind)) continue;
      if (!check::footprints_overlap(local_fp(a), local_fp(b))) continue;
      if (!unordered(a, b)) continue;
      HbRace race;
      race.op1 = locals[x];
      race.op2 = locals[y];
      race.remote = false;
      for (const trace::JournalRecord& d : res.diags)
        if (diag_covers(d, a, b)) { race.matched = true; break; }
      res.races.push_back(race);
    }
  }
  return res;
}

std::string hb_report_json(const std::string& path, const HbResult& res) {
  std::string j = "{\"schema\":\"srumma-analysis-trace/1\",\"journal\":";
  j += trace::json_string(path);
  j += ",\"records\":" + std::to_string(res.n_records);
  j += ",\"ops\":" + std::to_string(res.ops.size());
  j += ",\"barriers\":" + std::to_string(res.n_barriers);
  j += ",\"diags\":" + std::to_string(res.diags.size());
  j += ",\"races\":[";
  for (std::size_t i = 0; i < res.races.size(); ++i) {
    const HbRace& r = res.races[i];
    const HbOp& a = res.ops[r.op1];
    const HbOp& b = res.ops[r.op2];
    if (i > 0) j += ",";
    j += "{\"space\":\"";
    j += r.remote ? "remote" : "local";
    j += "\"";
    if (r.remote) {
      j += ",\"seq\":" + std::to_string(r.seq);
      j += ",\"owner\":" + std::to_string(r.owner);
    }
    j += ",\"rank1\":" + std::to_string(a.rank) + ",\"kind1\":";
    j += trace::json_string(a.kind);
    j += ",\"site1\":";
    j += trace::json_string(a.site);
    j += ",\"rank2\":" + std::to_string(b.rank) + ",\"kind2\":";
    j += trace::json_string(b.kind);
    j += ",\"site2\":";
    j += trace::json_string(b.site);
    j += ",\"matched\":";
    j += r.matched ? "true" : "false";
    j += "}";
  }
  j += "],\"race_count\":" + std::to_string(res.races.size());
  j += ",\"missed\":" + std::to_string(res.missed());
  j += ",\"cross_validated\":";
  j += res.missed() == 0 ? "true" : "false";
  j += "}";
  return j;
}

}  // namespace srumma::analysis
