#include "trace/tracer.hpp"

#include <utility>

#include "util/env.hpp"

namespace srumma::trace {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Multiply: return "multiply";
    case Phase::Task: return "task";
    case Phase::Compute: return "dgemm";
    case Phase::Wait: return "wait";
    case Phase::RecoveryWait: return "wait (failed attempt)";
    case Phase::Backoff: return "retry backoff";
    case Phase::Redo: return "checksum redo";
    case Phase::Barrier: return "barrier";
    case Phase::Noise: return "os noise";
    case Phase::Get: return "nbget";
    case Phase::Put: return "nbput";
    case Phase::Acc: return "nbacc";
    case Phase::Send: return "send";
    case Phase::Recv: return "recv";
    case Phase::CacheRead: return "cache read";
    case Phase::TaskIssue: return "task issue";
    case Phase::TaskRearm: return "task rearm";
    case Phase::ShmFallback: return "shm fallback";
    case Phase::Fault: return "fault injected";
    case Phase::OpTimeout: return "op timeout";
    case Phase::Retry: return "retry";
    case Phase::Epoch: return "epoch";
    case Phase::CacheHit: return "cache hit";
    case Phase::CacheJoin: return "cache join";
    case Phase::CacheEvict: return "cache evict";
    case Phase::CacheRearm: return "cache rearm";
    case Phase::CacheRefetch: return "cache refetch";
    case Phase::DomainDead: return "domain dead";
    case Phase::Adopt: return "adopt";
    case Phase::Job: return "job";
    case Phase::JobWait: return "job wait";
    case Phase::JobArrive: return "job arrive";
    case Phase::JobReject: return "job reject";
    case Phase::JobRetry: return "job retry";
  }
  return "?";
}

const char* counter_name(CounterId c) {
  switch (c) {
    case CounterId::InflightBytes: return "inflight bytes";
    case CounterId::InflightOps: return "inflight ops";
    case CounterId::RecoverySeconds: return "recovery seconds";
    case CounterId::CacheBytesSaved: return "cache bytes saved";
  }
  return "?";
}

std::optional<TracerConfig> TracerConfig::from_env() {
  const auto cap = env::integer<std::uint64_t>("SRUMMA_TRACE_CAP");
  auto path = env::text("SRUMMA_TRACE");
  if (!path) return std::nullopt;
  TracerConfig cfg;
  cfg.path = std::move(*path);
  if (cap) cfg.ring_capacity = static_cast<std::size_t>(*cap);
  return cfg;
}

Tracer::Tracer(std::vector<TrackInfo> tracks, TracerConfig cfg)
    : cfg_(std::move(cfg)), cap_(cfg_.ring_capacity) {
  SRUMMA_REQUIRE(!tracks.empty(), "tracer: need at least one rank");
  SRUMMA_REQUIRE(cap_ >= 1, "tracer: ring capacity must be positive");
  tracks_.resize(tracks.size());
  for (std::size_t r = 0; r < tracks.size(); ++r) {
    tracks_[r].info = tracks[r];
    tracks_[r].ring.reserve(std::min<std::size_t>(cap_, 1024));
  }
}

std::vector<TraceEvent> Tracer::events(int rank) const {
  const Track& tr = tracks_[checked(rank)];
  std::vector<TraceEvent> out;
  out.reserve(tr.ring.size());
  // Oldest first: [head, end) then [0, head) once the ring has wrapped.
  for (std::size_t i = tr.head; i < tr.ring.size(); ++i)
    out.push_back(tr.ring[i]);
  for (std::size_t i = 0; i < tr.head; ++i) out.push_back(tr.ring[i]);
  return out;
}

void Tracer::clear() {
  for (Track& tr : tracks_) {
    tr.ring.clear();
    tr.head = 0;
    tr.recorded = 0;
    for (double& c : tr.counters) c = 0.0;
  }
}

}  // namespace srumma::trace
