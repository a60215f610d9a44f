#include "cache/block_cache.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace srumma::cache {

namespace {

/// Packed (ld == rows) copy into / out of an entry's storage.
void pack_into(AlignedVector<double>& data, ConstMatrixView src) {
  const auto rows = static_cast<std::size_t>(src.rows());
  data.resize(rows * static_cast<std::size_t>(src.cols()));
  for (index_t j = 0; j < src.cols(); ++j)
    std::memcpy(data.data() + static_cast<std::size_t>(j) * rows,
                src.data() + j * src.ld(), rows * sizeof(double));
}

void unpack_from(const AlignedVector<double>& data, MatrixView dst) {
  const auto rows = static_cast<std::size_t>(dst.rows());
  SRUMMA_REQUIRE(data.size() == rows * static_cast<std::size_t>(dst.cols()),
                 "block cache: published payload does not match the patch");
  for (index_t j = 0; j < dst.cols(); ++j)
    std::memcpy(dst.data() + j * dst.ld(),
                data.data() + static_cast<std::size_t>(j) * rows,
                rows * sizeof(double));
}

}  // namespace

BlockCacheSet::BlockCacheSet(Team& team, CacheConfig cfg)
    : team_(team),
      cfg_(cfg),
      domains_(static_cast<std::size_t>(team.machine().num_domains())) {}

BlockCacheSet::Domain& BlockCacheSet::domain_for(Rank& me) {
  return domains_[static_cast<std::size_t>(me.domain())];
}

void BlockCacheSet::drop_unpinned(Domain& d) {
  for (auto it = d.entries.begin(); it != d.entries.end();) {
    if (it->second->pins == 0) {
      d.bytes -= it->second->bytes;
      it = d.entries.erase(it);
    } else {
      // A pin outliving the epoch means a Ref leaked past the multiply's
      // exit barrier; keep the entry (its holder may still copy from it)
      // and let the next boundary collect it.
      ++it;
    }
  }
}

void BlockCacheSet::begin_epoch(Rank& me, std::uint64_t default_cap,
                                bool keep_warm) {
  Domain& d = domain_for(me);
  std::lock_guard<std::mutex> lock(d.mu);
  if (d.entered == 0) {
    if (!keep_warm) drop_unpinned(d);
    d.capacity = cfg_.capacity_bytes != 0 ? cfg_.capacity_bytes : default_cap;
    d.open = true;
  }
  d.entered += 1;
}

void BlockCacheSet::end_epoch(Rank& me, bool keep_warm) {
  Domain& d = domain_for(me);
  std::lock_guard<std::mutex> lock(d.mu);
  SRUMMA_REQUIRE(d.left < d.entered, "block cache: end_epoch without begin");
  d.left += 1;
  // The epoch closes only once EVERY rank of the domain has been through
  // it, not when concurrent occupancy drops to zero: the virtual-time
  // simulation gives no real-time overlap guarantee between domain mates
  // (a mate's whole multiply may run before another's starts), and an
  // occupancy-based close would wipe the entries a serialized mate was
  // about to share — making the modeled savings depend on OS scheduling.
  // The caller's collective barriers guarantee every mate's begin_epoch
  // happens before any rank's next-epoch begin_epoch, so `entered` reaches
  // the domain population exactly once per epoch.
  if (d.left == team_.machine().domain_size()) {
    if (!keep_warm) drop_unpinned(d);
    d.open = false;
    d.entered = 0;
    d.left = 0;
  }
}

bool BlockCacheSet::make_room(Rank& me, Domain& d, std::uint64_t need) {
  if (need > d.capacity) return false;
  while (d.bytes + need > d.capacity) {
    auto victim = d.entries.end();
    for (auto it = d.entries.begin(); it != d.entries.end(); ++it) {
      if (it->second->pins != 0) continue;
      if (victim == d.entries.end() ||
          it->second->last_use < victim->second->last_use)
        victim = it;
    }
    if (victim == d.entries.end()) return false;  // everything is pinned
    d.bytes -= victim->second->bytes;
    d.entries.erase(victim);
    me.trace().cache_evictions += 1;
    if (trace::Tracer* tr = me.tracer())
      tr->instant(me.id(), trace::Phase::CacheEvict, me.clock().now());
  }
  return true;
}

Ref BlockCacheSet::acquire(Rank& me, const PatchKey& key,
                           std::uint64_t remote_bytes,
                           const std::function<FetchOutcome()>& fetch,
                           ConstMatrixView fetched) {
  Domain& d = domain_for(me);
  TraceCounters& tc = me.trace();
  trace::Tracer* tr = me.tracer();
  std::lock_guard<std::mutex> lock(d.mu);
  if (!cfg_.enabled || !d.open) {
    tc.cache_bypasses += 1;
    return {};
  }
  const double now = me.clock().now();
  auto it = d.entries.find(key);
  if (it != d.entries.end() && it->second->ready) {
    Entry& e = *it->second;
    // Lower bound on this rank's own fetch completion: an uncontended NIC
    // transfer (no issue overhead, no link queueing).  Sharing is accepted
    // when the publishing get was issued at or before `now` (plain
    // real-machine causality), or when the published bytes become visible
    // within that horizon anyway — waiting for them can then never cost
    // more than fetching them ourselves would.
    const double own_fetch_est =
        me.machine().net_latency +
        static_cast<double>(e.remote_bytes) / me.machine().net_bw;
    if (e.issue_vt <= now || e.ready_vt <= now + own_fetch_est) {
      e.pins += 1;
      e.last_use = ++d.tick;
      // Hit vs in-flight join is a virtual-time distinction: the publishing
      // get's modeled completion may still be in this rank's future even
      // though the bytes are physically present (they are copied at issue).
      const bool join = e.ready_vt > now;
      (join ? tc.cache_joins : tc.cache_hits) += 1;
      tc.cache_bytes_saved += e.remote_bytes;
      if (tr != nullptr) {
        tr->instant(me.id(), join ? trace::Phase::CacheJoin
                                  : trace::Phase::CacheHit,
                    now, e.bytes);
        tr->counter_add(me.id(), trace::CounterId::CacheBytesSaved, now,
                        static_cast<double>(e.remote_bytes));
      }
      return Ref{it->second, Role::Shared, e.generation, false, e.ready_vt};
    }
    // Causality refetch: the published get was issued AFTER this rank's
    // virtual now — real-time thread scheduling ran the publishing mate
    // ahead of the modeled timeline.  On a real machine this rank would
    // have fetched first, so waiting on that future publish would make the
    // cache a slowdown.  Fetch ourselves, and if our get completes earlier
    // pull the entry's stamps back so later sharers see the earliest
    // publish (the payload bytes are owner-equal either way).
    e.pins += 1;
    e.last_use = ++d.tick;
    tc.cache_refetches += 1;
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::CacheRefetch, now, e.bytes);
    Ref ref{it->second, Role::Fetch, e.generation, false, 0.0};
    const FetchOutcome out = fetch();
    if (out.clean) {
      // The entry carries the stamps of the publish with the EARLIEST
      // issue — ours, by the branch condition.  Taking them over even when
      // our completion books later keeps the sharing test monotone: this
      // rank's own next touch of the key (now >= this issue) is guaranteed
      // to share, so C-tiling temporal reuse never degenerates into a
      // refetch chain.
      e.issue_vt = now;
      e.ready_vt = out.completion;
    }
    return ref;
  }

  std::shared_ptr<Entry> ep;
  bool rearmed = false;
  if (it != d.entries.end()) {
    // Dirty entry: the previous fetch drew a fault and was never
    // published.  This requester re-arms it — a fresh fetch generation
    // with fresh fault draws — so a failed single-flight fetch is retried
    // by a waiter, never shared.
    ep = it->second;
    ep->generation += 1;
    rearmed = true;
    tc.cache_rearms += 1;
    if (tr != nullptr)
      tr->instant(me.id(), trace::Phase::CacheRearm, now);
  } else {
    const std::uint64_t bytes = static_cast<std::uint64_t>(key.rows) *
                                static_cast<std::uint64_t>(key.cols) *
                                sizeof(double);
    if (!make_room(me, d, bytes)) {
      tc.cache_bypasses += 1;
      return {};
    }
    ep = std::make_shared<Entry>();
    ep->key = key;
    ep->bytes = bytes;
    ep->remote_bytes = remote_bytes;
    d.entries.emplace(key, ep);
    d.bytes += bytes;
    tc.cache_misses += 1;
  }
  ep->ready = false;
  ep->pins += 1;
  ep->last_use = ++d.tick;
  Ref ref{ep, Role::Fetch, ep->generation, rearmed, 0.0};

  // Issue the fetcher's own nonblocking get while still holding the domain
  // lock: nbget2d performs the payload copy synchronously at issue, so a
  // clean outcome can be published before any domain mate can observe the
  // entry — sharers therefore only ever see ready or dirty, never a
  // half-fetched state, and no real-time blocking is needed.
  const FetchOutcome out = fetch();
  if (out.clean) {
    if (!fetched.empty()) pack_into(ep->data, fetched);
    ep->ready = true;
    ep->issue_vt = now;
    ep->ready_vt = out.completion;
  }
  return ref;
}

void BlockCacheSet::finish_fetch(Rank& me, Ref& ref, bool publishable,
                                 ConstMatrixView src) {
  SRUMMA_REQUIRE(ref.role == Role::Fetch, "finish_fetch: not a fetch ref");
  Domain& d = domain_for(me);
  std::lock_guard<std::mutex> lock(d.mu);
  Entry& e = *ref.entry;
  if (!e.ready && publishable && e.generation == ref.generation) {
    // Late publish: the fetcher's retry/verification loop repaired the
    // patch after a dirty issue.  The bytes become visible when the
    // recovery finished — i.e. now.
    if (!src.empty()) pack_into(e.data, src);
    e.ready = true;
    e.issue_vt = me.clock().now();
    e.ready_vt = e.issue_vt;
  }
  e.pins -= 1;
  ref = {};
}

void BlockCacheSet::consume_shared(Rank& me, Ref& ref, MatrixView dst) {
  SRUMMA_REQUIRE(ref.role == Role::Shared, "consume_shared: not a shared ref");
  const MachineModel& mm = me.machine();
  VClock& clk = me.clock();
  TraceCounters& tc = me.trace();
  trace::Tracer* tr = me.tracer();
  Entry& e = *ref.entry;

  // The publishing get's completion may be in this rank's virtual future:
  // block on it exactly like any exposed completion (traced as Wait so the
  // span/counter reconciliation invariants keep holding).
  const double before = clk.now();
  if (ref.ready_vt > before) {
    tc.time_wait += ref.ready_vt - before;
    clk.sync_to(ref.ready_vt);
    if (tr != nullptr)
      tr->span(me.id(), trace::Phase::Wait, before, ref.ready_vt);
  }

  // Intra-domain copy out of the cache, mirroring the same-domain branch of
  // RmaRuntime::transfer: the origin CPU pays latency + per-rank copy time
  // and queues on the domain's aggregate memory system.  No fault draw —
  // the copy is process-local, not a transport op.
  const double t0 = clk.now();
  const double dbytes = static_cast<double>(e.bytes);
  const double dur = dbytes / mm.shm_bw;
  const double ready = t0 + mm.shm_latency;
  const double agg = team_.network()
                         .domain_mem(me.domain())
                         .book(ready, dbytes / mm.domain_agg_bw());
  clk.sync_to(std::max(ready + dur, agg));
  tc.time_comm += dur;
  tc.bytes_shm += e.bytes;
  if (tr != nullptr)
    tr->span(me.id(), trace::Phase::CacheRead, t0, clk.now(), e.bytes);

  // Real payload: the entry is ready, and a ready entry's *data* is
  // immutable for the rest of the epoch (re-arms only touch dirty entries;
  // causality refetches adjust the virtual-time stamps under the lock but
  // never the bytes, which are owner-equal for every publisher), so reading
  // outside the domain lock is race-free — the acquire that returned this
  // Ref observed `ready` under the lock, ordering the publish before us.
  if (!dst.empty()) unpack_from(e.data, dst);

  Domain& d = domain_for(me);
  std::lock_guard<std::mutex> lock(d.mu);
  e.pins -= 1;
  ref = {};
}

std::size_t BlockCacheSet::resident(int domain) {
  Domain& d = domains_[static_cast<std::size_t>(domain)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.entries.size();
}

std::uint64_t BlockCacheSet::resident_bytes(int domain) {
  Domain& d = domains_[static_cast<std::size_t>(domain)];
  std::lock_guard<std::mutex> lock(d.mu);
  return d.bytes;
}

}  // namespace srumma::cache
