#include "msg/comm.hpp"

#include <algorithm>
#include <cstring>

#include "runtime/abortable_wait.hpp"
#include "trace/tracer.hpp"
#include "util/error.hpp"

namespace srumma {

namespace {
// Position of rank `r` in `group`; throws if absent.
std::size_t group_index(const std::vector<int>& group, int r) {
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i] == r) return i;
  throw Error("collective: calling rank not in group");
}
}  // namespace

Comm::Comm(Team& team, MsgConfig cfg)
    : team_(team),
      eager_threshold_(
          cfg.eager_threshold.value_or(team.machine().eager_threshold)) {
  mailboxes_.reserve(static_cast<std::size_t>(team.size()));
  for (int r = 0; r < team.size(); ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  // Let Team::abort wake ranks parked in mailbox waits promptly.
  abort_cv_ids_.reserve(mailboxes_.size());
  for (auto& box : mailboxes_) abort_cv_ids_.push_back(team_.add_abort_cv(&box->cv));
}

Comm::~Comm() {
  for (const std::uint64_t id : abort_cv_ids_) team_.remove_abort_cv(id);
}

double Comm::draw_msg_delay(Rank& me, int dst) {
  fault::FaultPlane* fp = team_.faults();
  if (fp == nullptr) return 1.0;
  const double factor = fp->on_message(me.id(), dst, me.clock().now());
  if (factor > 1.0) me.trace().faults_delayed += 1;
  return factor;
}

double Comm::schedule_wire(int src_rank, int dst_rank, std::size_t bytes,
                           double ready, double* duration_out,
                           double fault_factor) {
  const MachineModel& mm = team_.machine();
  if (bytes == 0) {
    if (duration_out) *duration_out = 0.0;
    return ready + mm.mpi_latency;
  }
  const double dbytes = static_cast<double>(bytes);
  double completion;
  double dur;
  if (mm.same_domain(src_rank, dst_rank)) {
    // Intra-domain MPI moves data through a staging buffer at the MPI
    // library's internal copy rate (slower than an optimized block copy —
    // the gap the paper's Fig. 6 measures on the Cray X1).
    dur = dbytes / mm.mpi_copy_bw;
    if (fault_factor > 1.0) dur *= fault_factor;
    const double agg = team_.network()
                           .domain_mem(mm.domain_of(src_rank))
                           .book(ready, dbytes / mm.domain_agg_bw());
    completion = std::max(ready + mm.shm_latency + dur, agg);
  } else {
    dur = dbytes / mm.net_bw;
    // Without zero-copy NICs (IBM SP / LAPI), large-message MPI also pays
    // host-CPU staging copies; the paper's Fig. 8 shows MPI and LAPI get
    // reaching similar, sub-wire bandwidth on the SP for this reason.
    if (!mm.zero_copy) dur += dbytes / mm.host_copy_bw;
    if (fault::FaultPlane* fp = team_.faults()) {
      // Injected sender-drawn delay plus the persistent straggler link.
      dur *= fault_factor *
             fp->link_delay(mm.node_of(src_rank), mm.node_of(dst_rank));
    }
    const double c1 = team_.network().nic_out(mm.node_of(src_rank)).book(ready, dur);
    const double c2 = team_.network().nic_in(mm.node_of(dst_rank)).book(ready, dur);
    completion = std::max(c1, c2);
  }
  if (duration_out) *duration_out = dur;
  return completion;
}

double Comm::schedule_rendezvous(int src_rank, int dst_rank, std::size_t bytes,
                                 double sender_ready, double recv_ready,
                                 double* duration_out, double fault_factor) {
  const MachineModel& mm = team_.machine();
  const double start = std::max(sender_ready, recv_ready) +
                       mm.rendezvous_setup * mm.mpi_latency;
  return schedule_wire(src_rank, dst_rank, bytes, start, duration_out,
                       fault_factor);
}

void Comm::send_eager(Rank& me, int dst, int tag, const double* buf,
                      std::size_t elems) {
  const MachineModel& mm = team_.machine();
  const std::size_t bytes = elems * sizeof(double);
  const double issue_vt = me.clock().now();
  // Sender-side: per-message latency plus the copy into the eager buffer.
  me.clock().advance(mm.mpi_latency +
                     static_cast<double>(bytes) / mm.mpi_copy_bw);
  double dur = 0.0;
  double arrival;
  if (mm.same_domain(me.id(), dst)) {
    // Intra-node eager delivery is the buffer copy itself (already charged)
    // plus the shared-memory handoff latency; no extra staged copy.  No
    // wire is scheduled, so no delay is drawn either — a drawn factor
    // would count as a delay fault with no effect on the handoff.
    arrival = me.clock().now() + mm.shm_latency;
  } else {
    // Zero-byte wires are pure latency (schedule_wire ignores the factor),
    // so only draw a delay when there is a payload to stretch.
    const double fault_factor = bytes > 0 ? draw_msg_delay(me, dst) : 1.0;
    arrival =
        schedule_wire(me.id(), dst, bytes, me.clock().now(), &dur, fault_factor);
  }
  me.trace().time_comm += dur;
  me.trace().bytes_msg += bytes;
  me.trace().sends += 1;
  if (trace::Tracer* tr = team_.tracer_ptr())
    tr->span(me.id(), trace::Phase::Send, issue_vt, arrival, bytes);

  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mu);
  // Try to match an already-posted receive.
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    PostedRecv& pr = **it;
    if (!pr.done && pr.src == me.id() && pr.tag == tag) {
      SRUMMA_REQUIRE(pr.elems == elems, "send/recv element count mismatch");
      if (buf != nullptr && pr.buf != nullptr && elems > 0)
        std::memcpy(pr.buf, buf, bytes);
      pr.completion = std::max(pr.posted_vt, arrival) +
                      static_cast<double>(bytes) / mm.mpi_copy_bw;
      pr.done = true;
      box.posted.erase(it);
      box.cv.notify_all();
      return;
    }
  }
  // No receive posted yet: buffer as an unexpected eager message.
  UnexpectedMsg um;
  um.src = me.id();
  um.tag = tag;
  um.elems = elems;
  um.eager = true;
  um.arrival_vt = arrival;
  if (buf != nullptr && elems > 0) um.data.assign(buf, buf + elems);
  box.unexpected.push_back(std::move(um));
  box.cv.notify_all();
}

void Comm::send_blocking_rendezvous(Rank& me, int dst, int tag,
                                    const double* buf, std::size_t elems) {
  const MachineModel& mm = team_.machine();
  const std::size_t bytes = elems * sizeof(double);
  const double issue_vt = me.clock().now();
  me.clock().advance(mm.mpi_latency);  // RTS
  const double sender_ready = me.clock().now();
  // Drawn here, on the sender's thread, even though the wire may be
  // scheduled later from the receiver's thread (see UnexpectedMsg).
  const double fault_factor = draw_msg_delay(me, dst);
  me.trace().bytes_msg += bytes;
  me.trace().sends += 1;

  auto rv = std::make_shared<RvState>();
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::unique_lock<std::mutex> lock(box.mu);
    bool matched = false;
    for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
      PostedRecv& pr = **it;
      if (!pr.done && pr.src == me.id() && pr.tag == tag) {
        SRUMMA_REQUIRE(pr.elems == elems, "send/recv element count mismatch");
        if (buf != nullptr && pr.buf != nullptr && elems > 0)
          std::memcpy(pr.buf, buf, bytes);
        double dur = 0.0;
        const double completion = schedule_rendezvous(
            me.id(), dst, bytes, sender_ready, pr.posted_vt, &dur,
            fault_factor);
        me.trace().time_comm += dur;
        pr.completion = completion;
        pr.done = true;
        rv->done = true;
        rv->completion = completion;
        box.posted.erase(it);
        box.cv.notify_all();
        matched = true;
        break;
      }
    }
    if (!matched) {
      UnexpectedMsg um;
      um.src = me.id();
      um.tag = tag;
      um.elems = elems;
      um.eager = false;
      um.src_buf = buf;
      um.sender_ready_vt = sender_ready;
      um.rv = rv;
      um.delay_factor = fault_factor;
      box.unexpected.push_back(std::move(um));
      box.cv.notify_all();
      // Block until the receiver matches the RTS and schedules the wire.
      wait_abortable(lock, box.cv, team_, [&] { return rv->done; });
      // The receiver charged the wire duration; charge the sender's wait.
    }
  }
  const double before = me.clock().now();
  if (rv->completion > before) {
    me.trace().time_wait += rv->completion - before;
    if (trace::Tracer* tr = team_.tracer_ptr())
      tr->span(me.id(), trace::Phase::Wait, before, rv->completion);
  }
  me.clock().sync_to(rv->completion);
  if (trace::Tracer* tr = team_.tracer_ptr())
    tr->span(me.id(), trace::Phase::Send, issue_vt, rv->completion, bytes);
}

void Comm::send(Rank& me, int dst, int tag, const double* buf,
                std::size_t elems) {
  SRUMMA_REQUIRE(dst >= 0 && dst < team_.size(), "send: bad destination rank");
  SRUMMA_REQUIRE(dst != me.id(), "send: self-messages are not supported");
  if (is_eager(elems)) {
    send_eager(me, dst, tag, buf, elems);
  } else {
    send_blocking_rendezvous(me, dst, tag, buf, elems);
  }
}

SendHandle Comm::isend(Rank& me, int dst, int tag, const double* buf,
                       std::size_t elems) {
  SRUMMA_REQUIRE(dst >= 0 && dst < team_.size(), "isend: bad destination rank");
  SRUMMA_REQUIRE(dst != me.id(), "isend: self-messages are not supported");
  SendHandle h;
  h.pending = true;
  if (is_eager(elems)) {
    // Eager messages are fully buffered: complete at issue, full overlap.
    send_eager(me, dst, tag, buf, elems);
  } else {
    // Rendezvous without asynchronous progress: nothing happens until
    // wait().  This is the MPI overlap cliff the paper measures (Fig. 7).
    h.deferred = true;
    h.dst = dst;
    h.tag = tag;
    h.buf = buf;
    h.elems = elems;
  }
  return h;
}

void Comm::wait(Rank& me, SendHandle& h) {
  SRUMMA_REQUIRE(h.pending, "wait: send handle is not pending");
  if (h.deferred) {
    send_blocking_rendezvous(me, h.dst, h.tag, h.buf, h.elems);
    h.deferred = false;
  }
  h.pending = false;
}

RecvHandle Comm::irecv(Rank& me, int src, int tag, double* buf,
                       std::size_t elems) {
  SRUMMA_REQUIRE(src >= 0 && src < team_.size(), "irecv: bad source rank");
  SRUMMA_REQUIRE(src != me.id(), "irecv: self-messages are not supported");
  const MachineModel& mm = team_.machine();
  const std::size_t bytes = elems * sizeof(double);
  me.trace().recvs += 1;

  RecvHandle h;
  h.pending = true;
  const double pr_post_vt = me.clock().now();
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(me.id())];
  std::lock_guard<std::mutex> lock(box.mu);
  // Try unexpected messages first (FIFO per source/tag).
  for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      SRUMMA_REQUIRE(it->elems == elems, "send/recv element count mismatch");
      if (it->eager) {
        if (buf != nullptr && !it->data.empty())
          std::memcpy(buf, it->data.data(), bytes);
        h.completion = std::max(me.clock().now(), it->arrival_vt) +
                       static_cast<double>(bytes) / mm.mpi_copy_bw;
      } else {
        if (buf != nullptr && it->src_buf != nullptr && elems > 0)
          std::memcpy(buf, it->src_buf, bytes);
        double dur = 0.0;
        h.completion =
            schedule_rendezvous(src, me.id(), bytes, it->sender_ready_vt,
                                me.clock().now(), &dur, it->delay_factor);
        me.trace().time_comm += dur;
        it->rv->completion = h.completion;
        it->rv->done = true;
        box.cv.notify_all();
      }
      h.done = true;
      box.unexpected.erase(it);
      if (trace::Tracer* tr = team_.tracer_ptr())
        tr->span(me.id(), trace::Phase::Recv, pr_post_vt, h.completion, bytes);
      return h;
    }
  }
  // Post the receive for a future sender to match.
  auto pr = std::make_shared<PostedRecv>();
  pr->src = src;
  pr->tag = tag;
  pr->buf = buf;
  pr->elems = elems;
  pr->posted_vt = me.clock().now();
  box.posted.push_back(pr);
  h.slot = pr;
  return h;
}

void Comm::wait(Rank& me, RecvHandle& h) {
  SRUMMA_REQUIRE(h.pending, "wait: recv handle is not pending");
  double completion = h.completion;
  if (!h.done) {
    auto pr = std::static_pointer_cast<PostedRecv>(h.slot);
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(me.id())];
    std::unique_lock<std::mutex> lock(box.mu);
    wait_abortable(lock, box.cv, team_, [&] { return pr->done; });
    completion = pr->completion;
    if (trace::Tracer* tr = team_.tracer_ptr())
      tr->span(me.id(), trace::Phase::Recv, pr->posted_vt, completion,
               pr->elems * sizeof(double));
  }
  const double before = me.clock().now();
  if (completion > before) {
    me.trace().time_wait += completion - before;
    if (trace::Tracer* tr = team_.tracer_ptr())
      tr->span(me.id(), trace::Phase::Wait, before, completion);
  }
  me.clock().sync_to(completion);
  h.pending = false;
  h.done = true;
  h.completion = completion;
  h.slot.reset();
}

void Comm::recv(Rank& me, int src, int tag, double* buf, std::size_t elems) {
  RecvHandle h = irecv(me, src, tag, buf, elems);
  wait(me, h);
}

void Comm::sendrecv(Rank& me, int dst, int stag, const double* sbuf,
                    std::size_t selems, int src, int rtag, double* rbuf,
                    std::size_t relems) {
  RecvHandle rh = irecv(me, src, rtag, rbuf, relems);
  send(me, dst, stag, sbuf, selems);
  wait(me, rh);
}

void Comm::bcast(Rank& me, const std::vector<int>& group, int root,
                 double* buf, std::size_t elems) {
  const int n = static_cast<int>(group.size());
  SRUMMA_REQUIRE(n >= 1, "bcast: empty group");
  const int my_idx = static_cast<int>(group_index(group, me.id()));
  if (n == 1) return;
  const int root_idx = static_cast<int>(group_index(group, root));
  const int vrank = (my_idx - root_idx + n) % n;
  auto abs_rank = [&](int v) {
    return group[static_cast<std::size_t>((v + root_idx) % n)];
  };

  // Binomial tree: receive from the parent, then forward to children.
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      recv(me, abs_rank(vrank - mask), kCollectiveTag, buf, elems);
      break;
    }
    mask <<= 1;
  }
  // mask is now the lowest set bit of vrank (or >= n at the root); every
  // smaller bit of vrank is zero, so vrank + mask addresses a child.
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      send(me, abs_rank(vrank + mask), kCollectiveTag, buf, elems);
    }
    mask >>= 1;
  }
}

}  // namespace srumma
