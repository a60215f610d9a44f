#pragma once
// Shadow-state race & completion checker for the one-sided runtime.
//
// SRUMMA's correctness rests on discipline the compiler cannot see: a
// nonblocking get must be wait()ed before its destination buffer is read or
// reused, conflicting puts/gets on one global region must be separated by a
// barrier epoch, and direct load/store reach-through to a peer's segment is
// legal only inside a shared-memory domain.  ARMCI imposed these rules by
// specification; this checker imposes them by instrumentation.
//
// The checker mirrors every live SymmetricRegion as an interval map of
// outstanding operations keyed by barrier epoch and handle identity, fed by
// hooks in RmaRuntime (issue/wait/alloc/free), Team::barrier_wait (epoch
// advance, via the epoch-observer callback), DistMatrix (direct-view
// declarations) and the SRUMMA pipeline (compute read/write declarations).
// Diagnosed classes:
//
//   (1) UseBeforeWait      destination buffer of a pending get is read or
//                          re-targeted before wait();
//   (2) UnwaitedAtBarrier  a handle crosses a barrier without wait();
//   (3) EpochConflict      overlapping put/put, put/get, put/acc or
//                          put/local-compute inside one barrier epoch
//                          (same-origin ops ordered by wait() are exempt;
//                          acc/acc is exempt — accumulates are atomic);
//   (4) NonDomainDirect    direct load/store declared on a segment whose
//                          owner is outside the caller's memory domain;
//   (5) PendingAtFree      free_symmetric with transfers still pending;
//       OutOfBounds        an op's footprint exceeds the owner's segment;
//   (6) DoubleWait         wait() on an already-completed handle.
//
// Enabling: env SRUMMA_RMA_CHECK=1, the CMake option
// SRUMMA_RMA_CHECK (compiles the default to on), or RmaConfig::check.  When
// disabled the runtime carries a single null-pointer test per hook — no
// locks, no lookups, no allocation.
//
// Strided footprints are tracked exactly (column stride preserved), so two
// interleaved patches of one owner block do not falsely conflict.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <source_location>
#include <string>
#include <vector>

namespace srumma {
class Team;
}  // namespace srumma

namespace srumma::trace {
class JournalWriter;
}  // namespace srumma::trace

namespace srumma::check {

/// Diagnostic classes (see file comment for the discipline each enforces).
enum class Diag {
  UseBeforeWait,
  UnwaitedAtBarrier,
  EpochConflict,
  NonDomainDirect,
  PendingAtFree,
  OutOfBounds,
  DoubleWait,
};

[[nodiscard]] const char* diag_name(Diag d);

/// What an operation does to the bytes it touches.
enum class OpKind {
  Get,          ///< one-sided read of an owner segment into a local buffer
  Put,          ///< one-sided write of an owner segment
  Acc,          ///< one-sided atomic accumulate into an owner segment
  DirectRead,   ///< declared load/store reach-through to a peer segment
  ComputeRead,  ///< declared local compute read (dgemm operand)
  LocalWrite,   ///< declared local compute write (C tile, GA access view)
};

[[nodiscard]] const char* op_name(OpKind k);

/// A strided byte footprint: `cols` columns of `rows` bytes, `ld` bytes
/// apart, starting at `lo` (an offset within a segment, or an absolute
/// address for origin-local buffers).  cols == 0 means empty.
struct Footprint {
  std::uint64_t lo = 0;
  std::uint64_t rows = 0;  ///< contiguous bytes per column
  std::uint64_t cols = 0;
  std::uint64_t ld = 0;  ///< column stride in bytes (>= rows)

  [[nodiscard]] bool empty() const noexcept { return cols == 0 || rows == 0; }
  /// One past the last byte touched (== lo for an empty footprint).
  [[nodiscard]] std::uint64_t span_end() const noexcept {
    return empty() ? lo : lo + (cols - 1) * ld + rows;
  }
};

/// Exact overlap test between two strided footprints.
[[nodiscard]] bool footprints_overlap(const Footprint& a, const Footprint& b);

/// One recorded diagnostic.
struct CheckReport {
  Diag diag;
  int rank;                  ///< rank the violating call executed on
  std::uint64_t region_seq;  ///< region sequence id, kNoRegion when n/a
  int owner;                 ///< segment owner rank, -1 when n/a
  std::uint64_t lo;          ///< byte interval within the owner segment
  std::uint64_t hi;
  std::uint64_t epoch;   ///< barrier epoch of the violating rank
  std::uint64_t handle;  ///< handle id, 0 when n/a
  std::string site;      ///< issuing call site ("file:line (function)")
  std::string message;   ///< fully formatted diagnostic text
};

inline constexpr std::uint64_t kNoRegion = ~std::uint64_t{0};

/// The shadow-state checker.  One instance per RmaRuntime; all methods are
/// thread-safe (rank threads call them concurrently).
class RmaChecker {
 public:
  /// `throw_on_diagnostic`: throw srumma::Error at the first violation
  /// (the default for env-enabled runs) or only record (tests inspect
  /// reports()).
  RmaChecker(Team& team, bool throw_on_diagnostic);
  ~RmaChecker();
  RmaChecker(const RmaChecker&) = delete;
  RmaChecker& operator=(const RmaChecker&) = delete;

  /// True when the SRUMMA_RMA_CHECK environment variable (or the
  /// SRUMMA_RMA_CHECK CMake default) asks for checking.
  [[nodiscard]] static bool env_enabled();

  // -- allocation lifecycle -------------------------------------------------
  void on_malloc(int rank, std::uint64_t seq, const double* base,
                 std::size_t elems);
  void on_free(int rank, std::uint64_t seq, std::source_location site);

  // -- one-sided operations -------------------------------------------------
  /// Record an issued op and run issue-time diagnostics.  `remote` is the
  /// owner-side pointer (nullptr in phantom mode), `local` the origin-side
  /// buffer (dst of a get, src of a put/acc; may be nullptr).  Returns the
  /// handle identity to store in the RmaHandle.
  std::uint64_t on_issue(int rank, OpKind kind, int owner, const double* remote,
                         Footprint remote_shape, const double* local,
                         Footprint local_shape, std::source_location site);
  void on_wait(int rank, std::uint64_t handle_id, std::source_location site);

  /// Epoch advance: called by Team::barrier_wait as `rank` enters a barrier.
  void on_barrier(int rank);

  // -- discipline declarations ---------------------------------------------
  /// Direct load/store reach-through into (seq, owner) at byte offset
  /// `shape.lo`.  Diagnoses NonDomainDirect when owner is outside the
  /// caller's shared-memory domain.
  void on_direct_access(int rank, int owner, std::uint64_t seq,
                        Footprint shape, std::source_location site);
  /// Local compute read/write of [ptr, shape).  Resolved against the live
  /// segments so owner-segment accesses join the epoch conflict map; always
  /// checked against the rank's pending get destinations.
  void on_compute_access(int rank, const double* ptr, Footprint shape,
                         bool write, std::source_location site);
  /// A read of (seq, owner) consumed through the cooperative block cache:
  /// the rank moved no bytes over the NIC itself, but it semantically read
  /// the owner's segment, so register a completed get at the TRUE origin
  /// (out-of-bounds + epoch-conflict checked).  Unlike on_direct_access the
  /// owner is legitimately outside the caller's domain — the domain mate
  /// that fetched it is the one that touched the wire.
  void on_shared_read(int rank, int owner, std::uint64_t seq, Footprint shape,
                      std::source_location site);

  // -- results --------------------------------------------------------------
  [[nodiscard]] std::vector<CheckReport> reports();
  [[nodiscard]] std::size_t report_count();
  void clear_reports();

 private:
  struct Segment {
    std::uint64_t seq;
    int owner;
    std::uint64_t base;  ///< address (0 for phantom)
    std::uint64_t len;   ///< bytes
  };

  struct OpRecord {
    OpKind kind;
    int rank;               ///< issuing rank
    std::uint64_t handle;   ///< 0 for declarations
    bool completed;         ///< waited (ops) or instantaneous (declarations)
    std::uint64_t epoch;    ///< issuing rank's epoch at issue time
    std::uint64_t seq;      ///< target region, kNoRegion when unresolved
    int owner;              ///< segment owner, -1 when unresolved
    Footprint remote;       ///< footprint within the owner segment (bytes)
    Footprint local;        ///< origin-buffer footprint (absolute addresses)
    std::source_location site;
  };

  // All helpers below require mu_ held.
  const Segment* find_segment(std::uint64_t addr) const;
  const Segment* find_segment_by_id(std::uint64_t seq, int owner) const;
  void check_region_conflicts(const OpRecord& incoming);
  void check_local_reuse(int rank, const Footprint& local,
                         std::source_location site, const char* what);
  void emit(Diag d, int rank, std::uint64_t seq, int owner,
            const Footprint& fp, std::uint64_t epoch, std::uint64_t handle,
            std::source_location site, const std::string& detail);
  /// Journal an op/declaration record when SRUMMA_RMA_JOURNAL is set
  /// (srumma-analyze --trace cross-validates the stream, docs/ANALYSIS.md).
  void journal_op(const OpRecord& op);
  void journal_event(const char* ev, int rank, std::uint64_t seq,
                     std::uint64_t handle);

  Team& team_;
  bool throw_on_diagnostic_;
  std::uint64_t observer_id_;
  std::unique_ptr<trace::JournalWriter> journal_;

  std::mutex mu_;
  std::uint64_t next_handle_ = 1;
  std::vector<std::uint64_t> epoch_;  // per rank
  std::map<std::uint64_t, Segment> segs_by_base_;  // keyed by base address
  std::map<std::pair<std::uint64_t, int>, Segment> segs_by_id_;
  std::map<std::uint64_t, int> free_arrivals_;  // seq -> ranks freed
  std::vector<OpRecord> ops_;
  std::vector<std::set<std::uint64_t>> completed_handles_;  // per rank
  std::vector<CheckReport> reports_;
};

}  // namespace srumma::check
