#include "trace/journal.hpp"

#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "trace/json.hpp"
#include "util/error.hpp"

namespace srumma::trace {

namespace {

// Paths some writer in this process already truncated: the first
// RmaChecker opening a journal starts it fresh, peers (A/B/C on distinct
// runtimes, later multiplies) append.
std::mutex g_opened_mu;
std::set<std::string>& opened_paths() {
  static auto* s = new std::set<std::string>();
  return *s;
}

void append_field(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path) {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(g_opened_mu);
    fresh = opened_paths().insert(path).second;
  }
  out_.open(path, fresh ? std::ios::trunc : std::ios::app);
}

void JournalWriter::record(const JournalRecord& r) {
  std::string line = "{\"ev\":";
  line += json_string(r.ev);
  line += ",\"rank\":";
  line += std::to_string(r.rank);
  if (!r.kind.empty()) {
    line += ",\"kind\":";
    line += json_string(r.kind);
  }
  line += ",\"owner\":";
  line += std::to_string(r.owner);
  append_field(line, "seq", r.seq);
  append_field(line, "handle", r.handle);
  append_field(line, "epoch", r.epoch);
  if (r.rcols != 0) {
    append_field(line, "rlo", r.rlo);
    append_field(line, "rrows", r.rrows);
    append_field(line, "rcols", r.rcols);
    append_field(line, "rld", r.rld);
  }
  if (r.lcols != 0) {
    append_field(line, "llo", r.llo);
    append_field(line, "lrows", r.lrows);
    append_field(line, "lcols", r.lcols);
    append_field(line, "lld", r.lld);
  }
  if (!r.site.empty()) {
    line += ",\"site\":";
    line += json_string(r.site);
  }
  line += "}\n";
  std::lock_guard<std::mutex> lk(mu_);
  out_ << line;
  out_.flush();  // diagnostics may throw right after recording
}

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

std::string parse_string(const std::string& s, std::size_t& i, int lineno) {
  SRUMMA_REQUIRE(i < s.size() && s[i] == '"',
                 "journal line " + std::to_string(lineno) +
                     ": expected a string");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
    ++i;
  }
  SRUMMA_REQUIRE(i < s.size(), "journal line " + std::to_string(lineno) +
                                   ": unterminated string");
  ++i;  // closing quote
  return out;
}

// Parses a signed or unsigned integer token into (uvalue, ivalue).
std::pair<std::uint64_t, long long> parse_number(const std::string& s,
                                                 std::size_t& i, int lineno) {
  const std::size_t start = i;
  if (i < s.size() && s[i] == '-') ++i;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
  SRUMMA_REQUIRE(i > start && !(i == start + 1 && s[start] == '-'),
                 "journal line " + std::to_string(lineno) +
                     ": expected a number");
  const std::string tok = s.substr(start, i - start);
  if (tok[0] == '-') {
    const long long v = std::strtoll(tok.c_str(), nullptr, 10);
    return {static_cast<std::uint64_t>(v), v};
  }
  const std::uint64_t u = std::strtoull(tok.c_str(), nullptr, 10);
  return {u, static_cast<long long>(u)};
}

}  // namespace

std::vector<JournalRecord> read_journal(const std::string& path) {
  std::ifstream in(path);
  SRUMMA_REQUIRE(in.is_open(), "cannot open journal file: " + path);
  std::vector<JournalRecord> out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = 0;
    skip_ws(line, i);
    if (i >= line.size()) continue;
    SRUMMA_REQUIRE(line[i] == '{', "journal line " + std::to_string(lineno) +
                                       ": expected an object");
    ++i;
    JournalRecord r;
    for (;;) {
      skip_ws(line, i);
      if (i < line.size() && line[i] == '}') break;
      const std::string key = parse_string(line, i, lineno);
      skip_ws(line, i);
      SRUMMA_REQUIRE(i < line.size() && line[i] == ':',
                     "journal line " + std::to_string(lineno) +
                         ": expected ':'");
      ++i;
      skip_ws(line, i);
      if (i < line.size() && line[i] == '"') {
        const std::string val = parse_string(line, i, lineno);
        if (key == "ev") r.ev = val;
        else if (key == "kind") r.kind = val;
        else if (key == "site") r.site = val;
      } else {
        const auto [u, v] = parse_number(line, i, lineno);
        if (key == "rank") r.rank = static_cast<int>(v);
        else if (key == "owner") r.owner = static_cast<int>(v);
        else if (key == "seq") r.seq = u;
        else if (key == "handle") r.handle = u;
        else if (key == "epoch") r.epoch = u;
        else if (key == "rlo") r.rlo = u;
        else if (key == "rrows") r.rrows = u;
        else if (key == "rcols") r.rcols = u;
        else if (key == "rld") r.rld = u;
        else if (key == "llo") r.llo = u;
        else if (key == "lrows") r.lrows = u;
        else if (key == "lcols") r.lcols = u;
        else if (key == "lld") r.lld = u;
      }
      skip_ws(line, i);
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    SRUMMA_REQUIRE(i < line.size() && line[i] == '}',
                   "journal line " + std::to_string(lineno) +
                       ": expected '}'");
    SRUMMA_REQUIRE(!r.ev.empty(), "journal line " + std::to_string(lineno) +
                                      ": record without an ev field");
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace srumma::trace
