#pragma once
// Two-sided message passing (the MPI stand-in used by the baselines).
//
// ScaLAPACK pdgemm, SUMMA and Cannon's algorithm are message-passing codes;
// to compare them against SRUMMA on the same simulated machine this layer
// reproduces the MPI behaviours the paper's Section 4.1 measures:
//
//   * eager protocol for messages <= eager_threshold (16 KB, as in the
//     paper): the payload is buffered and the sender returns immediately,
//     paying a copy on each side — nonblocking sends of eager messages
//     overlap fully;
//   * rendezvous protocol above the threshold: sender and receiver must
//     handshake before the payload moves, and — matching the paper's
//     observation that MPI makes no progress outside library calls — a
//     nonblocking rendezvous send/recv only progresses at wait(), which is
//     exactly the overlap cliff of Fig. 7;
//   * "half round-trip" timing semantics for blocking send/recv pairs.
//
// Matching is strict (source, tag) FIFO; wildcards are deliberately not
// provided.  Negative tags are reserved for the built-in collectives.
//
// As everywhere in the library, a nullptr payload runs the op in phantom
// mode: full cost accounting, no data movement.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/team.hpp"
#include "util/matrix.hpp"

namespace srumma {

struct MsgConfig {
  /// Override the machine's eager->rendezvous switch point (bytes).
  std::optional<double> eager_threshold;
};

class Comm;

/// Completion handle for isend.  Eager sends complete at issue; rendezvous
/// sends are *deferred*: nothing moves until wait() (no async progress).
struct SendHandle {
  bool pending = false;
  // deferred rendezvous parameters
  bool deferred = false;
  int dst = -1;
  int tag = 0;
  const double* buf = nullptr;
  std::size_t elems = 0;
};

/// Completion handle for irecv.
struct RecvHandle {
  bool pending = false;
  bool done = false;          // matched & scheduled already
  double completion = 0.0;    // valid when done
  std::shared_ptr<void> slot; // keeps the posted-recv record alive
};

class Comm {
 public:
  /// Construct ONE Comm per team, outside the SPMD body, and share it
  /// across ranks — the mailboxes are the shared channel.  A Comm
  /// constructed inside Team::run is private to its rank and any receive
  /// on it deadlocks.
  explicit Comm(Team& team, MsgConfig cfg = {});
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] Team& team() noexcept { return team_; }
  [[nodiscard]] double eager_threshold() const noexcept { return eager_threshold_; }

  // -- point to point -------------------------------------------------------
  void send(Rank& me, int dst, int tag, const double* buf, std::size_t elems);
  void recv(Rank& me, int src, int tag, double* buf, std::size_t elems);
  SendHandle isend(Rank& me, int dst, int tag, const double* buf,
                   std::size_t elems);
  RecvHandle irecv(Rank& me, int src, int tag, double* buf, std::size_t elems);
  void wait(Rank& me, SendHandle& h);
  void wait(Rank& me, RecvHandle& h);

  /// Simultaneous exchange (deadlock-free): posts the receive, sends, then
  /// completes the receive.  Used by the shift steps of Cannon's algorithm.
  void sendrecv(Rank& me, int dst, int stag, const double* sbuf,
                std::size_t selems, int src, int rtag, double* rbuf,
                std::size_t relems);

  // -- collectives over explicit rank groups --------------------------------
  /// Binomial-tree broadcast; `root` is a rank id and must be in `group`.
  /// Every rank in `group` must call with identical arguments (except buf).
  void bcast(Rank& me, const std::vector<int>& group, int root, double* buf,
             std::size_t elems);

 private:
  struct PostedRecv {
    int src = -1;
    int tag = 0;
    double* buf = nullptr;
    std::size_t elems = 0;
    double posted_vt = 0.0;
    bool done = false;
    double completion = 0.0;
  };

  struct RvState {
    bool done = false;
    double completion = 0.0;
  };

  struct UnexpectedMsg {
    int src = -1;
    int tag = 0;
    std::size_t elems = 0;
    bool eager = true;
    // eager: buffered payload (empty for phantom sends)
    std::vector<double> data;
    double arrival_vt = 0.0;
    // rendezvous RTS: where the payload still lives + how to signal the sender
    const double* src_buf = nullptr;
    double sender_ready_vt = 0.0;
    std::shared_ptr<RvState> rv;
    /// Injected straggler factor, drawn on the *sender's* thread at send
    /// time (fault decisions must never depend on which thread matches the
    /// message) and applied when the wire transfer is scheduled.
    double delay_factor = 1.0;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<PostedRecv>> posted;
    std::deque<UnexpectedMsg> unexpected;
  };

  /// Schedule the payload movement between two ranks; returns completion.
  /// `ready` is when both endpoints are ready for the wire transfer.
  /// `fault_factor` multiplies the wire time (sender-drawn injected delay;
  /// the static straggler-link factor is applied here as well).
  double schedule_wire(int src_rank, int dst_rank, std::size_t bytes,
                       double ready, double* duration_out,
                       double fault_factor = 1.0);

  /// Rendezvous: handshake + wire; both endpoints complete together.
  double schedule_rendezvous(int src_rank, int dst_rank, std::size_t bytes,
                             double sender_ready, double recv_ready,
                             double* duration_out, double fault_factor = 1.0);

  /// Sender-side injected delay draw for one message (1.0 when the fault
  /// plane is off).  Must run on the sending rank's own thread so decision
  /// streams replay independently of message-matching order.
  double draw_msg_delay(Rank& me, int dst);

  void send_blocking_rendezvous(Rank& me, int dst, int tag, const double* buf,
                                std::size_t elems);
  void send_eager(Rank& me, int dst, int tag, const double* buf,
                  std::size_t elems);

  [[nodiscard]] bool is_eager(std::size_t elems) const {
    return static_cast<double>(elems * sizeof(double)) <= eager_threshold_;
  }

  Team& team_;
  double eager_threshold_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::uint64_t> abort_cv_ids_;  // one registry slot per mailbox

  static constexpr int kCollectiveTag = -1001;
};

}  // namespace srumma
