#include "trace/chrome_trace.hpp"

#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "trace/json.hpp"

namespace srumma::trace {

namespace {

// Compact finite-double formatting (JSON forbids NaN/Inf; virtual times
// are always finite).
std::string num(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

/// One emitted JSON event object; `first` tracks the comma discipline.
class EventList {
 public:
  explicit EventList(std::ostream& os) : os_(os) {}

  std::ostream& begin() {
    os_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
    return os_;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void common_fields(std::ostream& os, const char* name, const char* cat,
                   const char* ph, double ts_us, int pid, int tid) {
  os << "{\"name\":" << json_string(name) << ",\"cat\":\"" << cat
     << "\",\"ph\":\"" << ph << "\",\"ts\":" << num(ts_us)
     << ",\"pid\":" << pid << ",\"tid\":" << tid;
}

[[nodiscard]] bool is_comm_phase(Phase p) {
  switch (p) {
    case Phase::Get:
    case Phase::Put:
    case Phase::Acc:
    case Phase::Send:
    case Phase::Recv:
    case Phase::CacheRead:
      return true;
    default:
      return false;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"schema\":\"srumma-chrome-trace/1\",\"ranks\":" << tracer.ranks()
     << ",\"dropped_events\":[";
  for (int r = 0; r < tracer.ranks(); ++r)
    os << (r > 0 ? "," : "") << tracer.dropped(r);
  os << "]},\"traceEvents\":[";

  EventList ev(os);

  // Track metadata: name the node processes and the rank threads.
  std::set<int> nodes;
  for (int r = 0; r < tracer.ranks(); ++r) nodes.insert(tracer.track(r).node);
  for (int node : nodes) {
    ev.begin() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << node
               << ",\"args\":{\"name\":\"node " << node << "\"}}";
  }
  for (int r = 0; r < tracer.ranks(); ++r) {
    const TrackInfo& ti = tracer.track(r);
    ev.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << ti.node
               << ",\"tid\":" << r << ",\"args\":{\"name\":\"rank " << r
               << " (domain " << ti.domain << ")\"}}";
    ev.begin() << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":"
               << ti.node << ",\"tid\":" << r << ",\"args\":{\"sort_index\":"
               << r << "}}";
  }

  std::uint64_t next_async_id = 1;
  for (int r = 0; r < tracer.ranks(); ++r) {
    const TrackInfo& ti = tracer.track(r);
    for (const TraceEvent& e : tracer.events(r)) {
      const double ts = e.t0 * 1e6;
      switch (e.type) {
        case EvType::Span: {
          const char* name = phase_name(e.phase);
          if (is_comm_phase(e.phase)) {
            // Async pair: in-flight transfers overlap freely.
            const std::uint64_t id = next_async_id++;
            common_fields(ev.begin(), name, "comm", "b", ts, ti.node, r);
            os << ",\"id\":" << id << ",\"args\":{\"bytes\":" << e.arg << "}}";
            common_fields(ev.begin(), name, "comm", "e", e.t1 * 1e6, ti.node,
                          r);
            os << ",\"id\":" << id << "}";
          } else {
            common_fields(ev.begin(), name, "cpu", "X", ts, ti.node, r);
            os << ",\"dur\":" << num((e.t1 - e.t0) * 1e6)
               << ",\"args\":{\"arg\":" << e.arg << "}}";
          }
          break;
        }
        case EvType::Instant: {
          common_fields(ev.begin(), phase_name(e.phase), "event", "i", ts,
                        ti.node, r);
          os << ",\"s\":\"t\",\"args\":{\"arg\":" << e.arg << "}}";
          break;
        }
        case EvType::Counter: {
          // One named counter series per rank, attached to the node pid.
          std::string name = "rank " + std::to_string(r) + " " +
                             counter_name(e.counter);
          common_fields(ev.begin(), name.c_str(), "counter", "C", ts, ti.node,
                        r);
          os << ",\"args\":{\"value\":" << num(e.value) << "}}";
          break;
        }
      }
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const Tracer& tracer) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  write_chrome_trace(f, tracer);
  return static_cast<bool>(f);
}

}  // namespace srumma::trace
