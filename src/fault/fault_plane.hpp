#pragma once
// Deterministic fault-injection plane for the communication layers.
//
// SRUMMA's owner-computes design assumes every one-sided transfer succeeds
// on first issue; this plane lets the runtime prove otherwise on purpose.
// A FaultPlane is attached to a Team (one per team; nullptr when disabled —
// the same zero-cost null-test pattern as the RMA checker) and consulted by
// RmaRuntime at every nb* issue and by msg::Comm when scheduling wire
// transfers.  Injectable fault classes:
//
//   * transient failure   — the handle completes in an error state and the
//                           payload is NOT delivered (RetryPolicy re-issues);
//   * payload corruption  — the transfer completes normally but one element
//                           of the destination buffer has a flipped mantissa
//                           bit (detectable by checksum verification);
//   * delayed completion  — the modeled wire/copy time is multiplied by
//                           delay_factor (a random straggler op);
//   * straggler link      — every inter-node transfer touching one node is
//                           slowed by a constant factor (a persistently slow
//                           link rather than a random event);
//   * dead shm domain     — direct load/store reach-through into segments
//                           owned by one shared-memory domain faults, forcing
//                           the pipeline to degrade ShmFlavor::Direct to Copy;
//   * permanent kill      — one shared-memory domain fail-stops when one of
//                           its ranks reaches a chosen execution point
//                           (prefetch issue, commit-chain advance, barrier
//                           entry).  Every subsequent transfer targeting
//                           the killed domain fails; the RMA layer
//                           promotes retry-budget exhaustion against it
//                           into a team-wide "domain declared dead" epoch
//                           (RmaStatus::DomainDead) and the
//                           distribution/engine layers recover from buddy
//                           replicas (docs/FAULTS.md §7).
//
// Determinism: every random decision is drawn from util/rng seeded by
// (seed, rank, that rank's own op sequence number).  Each rank's decision
// stream depends only on its own issue order, never on thread interleaving,
// so runs replay exactly — including under retries, because a re-issued op
// advances the sequence and draws fresh values.
//
// Faults can be scoped per rank (`only_rank`), per target (`only_peer`) and
// scheduled by op count (`first_op`/`last_op`, per-rank) or virtual time
// (`after_vtime`).  Environment knobs (SRUMMA_FAULT_*) are documented in
// docs/FAULTS.md.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "machine/machine.hpp"
#include "util/matrix.hpp"

namespace srumma::fault {

/// Execution points at which a permanent domain kill can trip.  The kill is
/// structural, not random: reaching the configured point with the configured
/// domain fail-stops that domain, and NO rng draw is consumed — the random
/// fault classes' decision streams are untouched (tested in
/// tests/test_fault_recovery.cpp).
enum class KillPoint {
  None = 0,
  Prefetch,  ///< a killed-domain rank issues an operand prefetch
  Chain,     ///< a killed-domain rank advances a C-tile commit chain
  Barrier,   ///< a killed-domain rank enters a team barrier
};

/// Injection knobs.  All rates are probabilities in [0, 1] per operation.
struct FaultConfig {
  std::uint64_t seed = 0x5eed;

  // -- random per-op faults (RMA layer) -------------------------------------
  double fail_rate = 0.0;     ///< transient nbget/nbput/nbacc failure
  double corrupt_rate = 0.0;  ///< destination-payload bit flip
  double delay_rate = 0.0;    ///< straggler op (wire time multiplied)
  double delay_factor = 8.0;  ///< multiplier for delayed ops (>= 1)

  // -- deterministic structural faults --------------------------------------
  /// Node id whose inter-node links are persistently slow (-1 = none).
  int straggler_node = -1;
  double straggler_factor = 8.0;  ///< wire-time multiplier on that link
  /// Shared-memory domain whose segments fault under direct load/store
  /// (-1 = none).  Copy-path (get/put) access still works.
  int dead_domain = -1;

  // -- permanent fail-stop (docs/FAULTS.md §7) ------------------------------
  /// Shared-memory domain that fail-stops mid-run (-1 = none).  Requires
  /// kill_point; every rank of the domain dies together (node loss model).
  int kill_domain = -1;
  /// Execution point at which the kill trips (None = no kill).
  KillPoint kill_point = KillPoint::None;
  /// Additional gate: the kill only trips at/after this virtual time.
  double kill_after_vtime = 0.0;
  /// Buddy-replication placement: domain d's panels are mirrored onto
  /// domain (d + buddy_offset) mod num_domains.  Must lie in
  /// [1, num_domains) so a domain never buddies itself.
  int buddy_offset = 1;

  // -- scoping & scheduling -------------------------------------------------
  int only_rank = -1;  ///< restrict random faults to ops issued by this rank
  int only_peer = -1;  ///< restrict random faults to ops targeting this owner
  std::uint64_t first_op = 0;  ///< per-rank op index window [first, last]
  std::uint64_t last_op = ~std::uint64_t{0};
  double after_vtime = 0.0;  ///< only ops issued at/after this virtual time

  /// Parse the SRUMMA_FAULT_* environment; nullopt when no knob is set.
  [[nodiscard]] static std::optional<FaultConfig> from_env();
};

/// Outcome of one per-op draw.
struct FaultDecision {
  bool fail = false;
  bool corrupt = false;
  double delay = 1.0;  ///< wire/copy time multiplier (1.0 = undisturbed)
};

class FaultPlane {
 public:
  FaultPlane(const MachineModel& machine, FaultConfig cfg);
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

  /// Draw the fate of one one-sided transfer issued by `rank` against
  /// `owner`.  Advances `rank`'s op sequence; must be called from that
  /// rank's own thread (which every nb* issue path guarantees).
  [[nodiscard]] FaultDecision on_transfer(int rank, int owner,
                                          double issue_vtime) noexcept;

  /// Draw the fate of one two-sided message sent by `rank` to `dst`.
  /// Separate per-rank sequence from on_transfer; only the delay channel
  /// applies (two-sided retry semantics are out of scope).
  [[nodiscard]] double on_message(int rank, int dst,
                                  double issue_vtime) noexcept;

  /// Constant wire-time multiplier for the src -> dst inter-node link
  /// (the straggler-link knob; 1.0 for healthy links).
  [[nodiscard]] double link_delay(int src_node, int dst_node) const noexcept {
    return (cfg_.straggler_node >= 0 && (src_node == cfg_.straggler_node ||
                                         dst_node == cfg_.straggler_node))
               ? cfg_.straggler_factor
               : 1.0;
  }

  /// True when direct load/store into segments owned by `domain` faults.
  [[nodiscard]] bool direct_faults(int domain) const noexcept {
    return (cfg_.dead_domain >= 0 && domain == cfg_.dead_domain) ||
           domain_killed(domain);
  }

  // -- permanent fail-stop (docs/FAULTS.md §7) ------------------------------

  /// Whether a permanent kill is configured (kill_point + kill_domain set).
  [[nodiscard]] bool kill_enabled() const noexcept {
    return cfg_.kill_point != KillPoint::None;
  }
  [[nodiscard]] int kill_domain() const noexcept { return cfg_.kill_domain; }
  [[nodiscard]] int buddy_offset() const noexcept { return cfg_.buddy_offset; }

  /// Arm the kill hooks.  Called by srumma_multiply once buddy replication
  /// has completed, so a domain can never die before its panels are
  /// mirrored — before arming, reach_kill_point never trips.
  void arm_kills() noexcept { armed_.store(true, std::memory_order_release); }

  /// A rank of `domain` reached execution point `p` at virtual time
  /// `vtime`.  Trips the configured kill when armed and matching; returns
  /// whether the caller's domain is (now) killed, so executors can enter
  /// their zombie drain path.  Consumes no rng draw.
  bool reach_kill_point(KillPoint p, int domain, double vtime) noexcept;

  /// True when `domain` has fail-stopped (the kill tripped).  Transfers
  /// targeting a killed domain fail; its ranks drain and stop working.
  [[nodiscard]] bool domain_killed(int domain) const noexcept {
    return cfg_.kill_domain >= 0 && domain == cfg_.kill_domain &&
           killed_.load(std::memory_order_acquire);
  }

  /// Survivor consensus: promote `domain` from "ops keep failing" to
  /// permanently dead.  Called by the RMA layer on retry-budget exhaustion
  /// against a killed domain and by the recovery sync point.  Idempotent.
  void declare_dead(int domain) noexcept {
    if (domain >= 0 && domain < 64)
      dead_mask_.fetch_or(std::uint64_t{1} << domain,
                          std::memory_order_acq_rel);
  }

  /// True once `domain` has been declared dead: no new ops are issued to
  /// it, in-flight handles drain with RmaStatus::DomainDead, and the
  /// distribution layer redirects its blocks to the buddy replicas.
  [[nodiscard]] bool domain_dead(int domain) const noexcept {
    return domain >= 0 && domain < 64 &&
           (dead_mask_.load(std::memory_order_acquire) &
            (std::uint64_t{1} << domain)) != 0;
  }

  /// True when any domain has been declared dead (cheap recovery gate).
  [[nodiscard]] bool any_domain_dead() const noexcept {
    return dead_mask_.load(std::memory_order_acquire) != 0;
  }

  /// Deterministically flip one mantissa bit of one element of a rows x
  /// cols column-major patch (ld >= rows).  `salt` decorrelates repeated
  /// corruptions of one buffer.
  static void corrupt_payload(double* dst, index_t ld, index_t rows,
                              index_t cols, std::uint64_t salt) noexcept;

  /// Restart every rank's op sequence so a re-run replays the same faults
  /// (called by Team::reset).
  void reset() noexcept;

 private:
  [[nodiscard]] bool in_scope(int rank, int peer, std::uint64_t seq,
                              double vtime) const noexcept;

  FaultConfig cfg_;
  MachineModel machine_;
  bool any_random_ = false;
  std::vector<std::atomic<std::uint64_t>> op_seq_;   // per rank, RMA ops
  std::vector<std::atomic<std::uint64_t>> msg_seq_;  // per rank, messages
  // Permanent fail-stop state (cleared by reset()).
  std::atomic<bool> armed_{false};   // kill hooks live (replicas exist)
  std::atomic<bool> killed_{false};  // the configured kill has tripped
  std::atomic<std::uint64_t> dead_mask_{0};  // domains declared dead (bitset)
};

}  // namespace srumma::fault
