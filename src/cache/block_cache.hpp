#pragma once
// Per-shared-memory-domain cooperative cache of remote block patches with
// single-flight fetch.
//
// SRUMMA's cost model makes intra-domain shared memory nearly free while
// inter-node RMA gets are the scarce resource — yet ranks in one domain
// repeatedly pull the *same* remote patches over the modeled NIC: domain
// mates share whole operand panels (with the column-major grid layout a
// node's ranks share a grid column, hence the B_kj panel), and C tiling
// makes one rank re-fetch the same B patch once per C tile.  The cache
// turns every repeat into an intra-domain copy:
//
//   * the first rank in a domain to need a patch (keyed by the owning
//     SymmetricRegion's allocation seq + the patch rectangle) becomes the
//     *fetcher*: it issues its own nonblocking get and, when the issue is
//     clean, publishes the bytes under the domain lock — at that point the
//     modeled completion time of the get is known, so the entry carries
//     the virtual time at which the data becomes visible (`ready_vt`);
//   * any other request for the same key becomes a *sharer*: it pins the
//     entry and later waits (virtual time) until `ready_vt`, then pays
//     shm latency + its share of the domain's aggregate memory bandwidth
//     for the local copy — no second NIC transfer.  A request whose
//     `ready_vt` is already in the past is a *hit*; one that lands while
//     the fetch is still in flight (in virtual time) is an
//     *in-flight join*;
//   * a fetch that drew a fault (failure, corruption, or a completion past
//     the per-op deadline) is never published: the entry stays *dirty* and
//     the next requester *re-arms* it — it becomes a fetcher itself with
//     fresh fault draws, so a failed single-flight fetch is retried by a
//     waiter, never silently shared.
//
// Entries are pinned while a requester holds a Ref (pins block eviction),
// capacity-bounded with LRU eviction, and invalidated at the multiply /
// epoch boundary — A and B are read-only inside one srumma_multiply
// collective, which is what makes the shared bytes trivially coherent.
// Real payload bytes are stored only for non-phantom matrices; phantom
// (model-only) runs keep the full cost accounting with no storage.
//
// Integration contracts (the caller is src/core/srumma.cpp):
//   * the fetch callback runs under the domain lock and must both issue
//     the caller's own nonblocking get and report {modeled completion,
//     clean-at-issue};
//   * sharer copies register their read with the RMA checker at the true
//     origin (DistMatrix::declare_shared_read) — done by the caller, which
//     knows the matrix;
//   * the tracer sees CacheRead comm spans plus hit/join/evict/re-arm
//     instants and a bytes-saved counter track; TraceCounters aggregates
//     the same events per rank.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/team.hpp"
#include "util/aligned.hpp"
#include "util/matrix.hpp"

namespace srumma::cache {

/// Cache knobs resolved from RmaConfig + environment (RmaRuntime's
/// constructor).
struct CacheConfig {
  bool enabled = false;
  /// Per-domain capacity in bytes; 0 = size from the pipeline's lookahead
  /// footprint at each multiply (the begin_epoch default).
  std::uint64_t capacity_bytes = 0;
};

/// Identity of one remote patch: the owning SymmetricRegion's allocation
/// seq (lockstep-identical across ranks and never reused, so it is a
/// process-wide unique matrix id) plus the global patch rectangle.
struct PatchKey {
  std::uint64_t region = 0;
  index_t i0 = 0;
  index_t j0 = 0;
  index_t rows = 0;
  index_t cols = 0;

  friend auto operator<=>(const PatchKey&, const PatchKey&) = default;
};

/// What the caller's fetch callback reports about the get it issued.
struct FetchOutcome {
  double completion = 0.0;  ///< modeled completion (virtual seconds)
  /// No piece failed, was corrupted, or overran the per-op deadline at
  /// issue time — i.e. the fetched bytes equal the owner's and may be
  /// published for sharers immediately.
  bool clean = false;
};

/// One cached patch.  `ready` entries hold published data (conceptually —
/// storage is empty for phantom matrices) visible from `ready_vt`; dirty
/// entries mark a fetch whose outcome was not publishable and wait for a
/// re-arm.  `generation` guards late publishes against re-arms.
struct Entry {
  PatchKey key;
  std::uint64_t bytes = 0;         ///< modeled payload size (rows*cols*8)
  std::uint64_t remote_bytes = 0;  ///< inter-node portion — saved per share
  std::uint64_t generation = 0;
  bool ready = false;
  double issue_vt = 0.0;  ///< when the publishing get was issued (causality)
  double ready_vt = 0.0;
  int pins = 0;
  std::uint64_t last_use = 0;  ///< LRU tick
  AlignedVector<double> data;  ///< packed (ld == rows); empty when phantom
};

/// The part this rank plays for one acquisition.
enum class Role : std::uint8_t {
  Fetch,   ///< issue the get (and publish it when clean)
  Shared,  ///< consume the published copy, no NIC transfer
  Bypass,  ///< cache not engaged (disabled, no capacity, out of epoch)
};

/// Handle returned by acquire(); must be finished with finish_fetch() /
/// consume_shared() (which unpin) unless the role is Bypass.
struct Ref {
  std::shared_ptr<Entry> entry;
  Role role = Role::Bypass;
  std::uint64_t generation = 0;
  bool rearmed = false;    ///< this fetch replaced a failed predecessor
  double ready_vt = 0.0;   ///< Shared: when the published bytes exist
  [[nodiscard]] bool active() const noexcept { return role != Role::Bypass; }
};

/// All domains' caches for one Team.  Thread-safe: one mutex per domain;
/// ranks only ever touch their own domain's cache.
class BlockCacheSet {
 public:
  BlockCacheSet(Team& team, CacheConfig cfg);

  [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }

  /// Open this rank's domain for one multiply collective.  The first rank
  /// of the domain to enter drops every stale unpinned entry and sets the
  /// capacity: the installed config's, else
  /// `default_capacity_bytes` (the caller's lookahead-footprint estimate).
  /// Must be called after a team barrier that separates multiplies.
  ///
  /// `keep_warm` skips the stale-entry drop at the open: the recovery
  /// epoch (docs/FAULTS.md §7) is a CONTINUATION of the multiply it
  /// follows — A/B stay read-only until the result is collected — so the
  /// panels survivors already fetched stay servable for adoption replay.
  /// Must be rank-uniform across the domain (it is decided by the
  /// rank-uniform "a kill is configured" predicate, never by the racy
  /// "the kill has tripped" observation).
  void begin_epoch(Rank& me, std::uint64_t default_capacity_bytes,
                   bool keep_warm = false);

  /// Leave the epoch.  Entries are invalidated once EVERY rank of the
  /// domain has been through the epoch (entered and left) — not when
  /// concurrent occupancy hits zero, because the virtual-time simulation
  /// gives no real-time overlap guarantee between domain mates and the
  /// modeled savings must not depend on OS scheduling.  `keep_warm` (same
  /// uniformity rule as begin_epoch) retains the entries through the
  /// close for a recovery epoch to inherit; if none follows (the kill
  /// never tripped), the next multiply's plain begin_epoch drops them.
  void end_epoch(Rank& me, bool keep_warm = false);

  /// Single-flight acquisition of `key` (which must be at least partly
  /// remote; `remote_bytes` is its modeled inter-node volume).
  ///
  /// Roles: if the key is absent (or dirty) the caller becomes the
  /// fetcher — `fetch` is invoked under the domain lock, must issue the
  /// caller's own nonblocking get into the caller's buffer, and report
  /// the outcome; a clean outcome publishes `fetched` (the caller's
  /// buffer view — pass an empty view for phantom matrices) right away.
  /// If the key is ready, the caller becomes a sharer and must NOT issue
  /// a get.  Bypass means proceed exactly as without a cache.
  ///
  /// Causality rule: a ready entry is shared only when its publishing get
  /// was issued at or before the requester's virtual now, OR when the
  /// published bytes become visible within the requester's own uncontended
  /// fetch horizon (net latency + bytes / net bandwidth).  Rank threads
  /// run under arbitrary OS scheduling, so a mate whose whole multiply
  /// executes first (real time) publishes entries carrying *late* virtual
  /// issue stamps; blindly sharing one from an earlier virtual now would
  /// wait on a fetch that, on a real machine, had not happened yet —
  /// turning the cache into a slowdown.  A requester that fails both
  /// checks fetches itself (Role::Fetch on the ready entry, counted as a
  /// refetch) and takes over the entry's issue/ready stamps — its issue is
  /// the earliest known — so later requesters (including this rank's own
  /// next touch of the key) are guaranteed to share.  Sharing is therefore
  /// never slower than fetching (beyond the intra-domain copy itself).
  Ref acquire(Rank& me, const PatchKey& key, std::uint64_t remote_bytes,
              const std::function<FetchOutcome()>& fetch,
              ConstMatrixView fetched);

  /// Fetcher epilogue, after the pipeline finished waiting on (and
  /// possibly retrying / checksum-verifying) its own copy.  `publishable`
  /// = the final bytes are known equal to the owner's; a dirty entry then
  /// gets a late publish of `src` at the current virtual time.  Unpins.
  void finish_fetch(Rank& me, Ref& ref, bool publishable, ConstMatrixView src);

  /// Sharer epilogue: advance the clock to the entry's `ready_vt` (traced
  /// as a Wait span, like any exposed completion), charge the intra-domain
  /// copy (shm latency + share of the domain aggregate bandwidth), copy
  /// the published bytes into `dst` (no-op when phantom), and unpin.
  void consume_shared(Rank& me, Ref& ref, MatrixView dst);

  /// Entries currently resident in `domain` (tests).
  [[nodiscard]] std::size_t resident(int domain);
  /// Resident bytes in `domain` (tests).
  [[nodiscard]] std::uint64_t resident_bytes(int domain);

 private:
  struct Domain {
    std::mutex mu;
    std::map<PatchKey, std::shared_ptr<Entry>> entries;
    std::uint64_t bytes = 0;     ///< sum of resident entry payloads
    std::uint64_t capacity = 0;  ///< 0 until an epoch opens
    std::uint64_t tick = 0;      ///< LRU clock
    int entered = 0;             ///< ranks that begin_epoch'd this epoch
    int left = 0;                ///< ranks that end_epoch'd this epoch
    bool open = false;
  };

  Domain& domain_for(Rank& me);
  /// Evict unpinned LRU entries until `need` more bytes fit; false if the
  /// key cannot fit even in an empty cache.
  bool make_room(Rank& me, Domain& d, std::uint64_t need);
  static void drop_unpinned(Domain& d);

  Team& team_;
  CacheConfig cfg_;
  std::vector<Domain> domains_;
};

}  // namespace srumma::cache
