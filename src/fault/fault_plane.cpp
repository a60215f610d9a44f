#include "fault/fault_plane.hpp"

#include <cstring>
#include <string>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace srumma::fault {

namespace {

// splitmix64 finalizer: mixes (seed, rank, seq) into one well-distributed
// word used to seed the per-decision Rng.  Matches the style of the
// deterministic noise jitter in Rank::consume_cpu.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t combine(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t rank, std::uint64_t seq) noexcept {
  std::uint64_t x = seed;
  x = mix(x + 0x9e3779b97f4a7c15ULL * (stream + 1));
  x = mix(x + 0x9e3779b97f4a7c15ULL * (rank + 1));
  x = mix(x + 0x9e3779b97f4a7c15ULL * (seq + 1));
  return x;
}

// `id` must be -1 (none) or one of the machine's `count` `what`.
void require_id(const char* field, int id, int count, const char* what) {
  SRUMMA_REQUIRE(id >= -1 && id < count,
                 std::string("FaultConfig: ") + field + " " +
                     std::to_string(id) + " out of range for a machine with " +
                     std::to_string(count) + " " + what);
}

}  // namespace

std::optional<FaultConfig> FaultConfig::from_env() {
  FaultConfig cfg;
  bool any = false;
  const auto read = [&any](auto& field, auto value) {
    if (!value) return;
    field = *value;
    any = true;
  };
  read(cfg.seed, env::integer<std::uint64_t>("SRUMMA_FAULT_SEED"));
  read(cfg.fail_rate, env::real("SRUMMA_FAULT_FAIL_RATE"));
  read(cfg.corrupt_rate, env::real("SRUMMA_FAULT_CORRUPT_RATE"));
  read(cfg.delay_rate, env::real("SRUMMA_FAULT_DELAY_RATE"));
  read(cfg.delay_factor, env::real("SRUMMA_FAULT_DELAY_FACTOR"));
  read(cfg.straggler_node, env::integer<int>("SRUMMA_FAULT_STRAGGLER_NODE"));
  read(cfg.straggler_factor, env::real("SRUMMA_FAULT_STRAGGLER_FACTOR"));
  read(cfg.dead_domain, env::integer<int>("SRUMMA_FAULT_DEAD_DOMAIN"));
  read(cfg.kill_domain, env::integer<int>("SRUMMA_FAULT_KILL_DOMAIN"));
  if (const auto w = env::word("SRUMMA_FAULT_KILL_POINT")) {
    cfg.kill_point = *w == "prefetch" ? KillPoint::Prefetch
                     : *w == "chain"  ? KillPoint::Chain
                     : *w == "barrier" ? KillPoint::Barrier
                                       : KillPoint::None;
    any = true;
  }
  read(cfg.kill_after_vtime, env::real("SRUMMA_FAULT_KILL_AFTER_VTIME"));
  read(cfg.buddy_offset, env::integer<int>("SRUMMA_FAULT_BUDDY_OFFSET"));
  read(cfg.only_rank, env::integer<int>("SRUMMA_FAULT_ONLY_RANK"));
  read(cfg.only_peer, env::integer<int>("SRUMMA_FAULT_ONLY_PEER"));
  read(cfg.first_op, env::integer<std::uint64_t>("SRUMMA_FAULT_FIRST_OP"));
  read(cfg.last_op, env::integer<std::uint64_t>("SRUMMA_FAULT_LAST_OP"));
  read(cfg.after_vtime, env::real("SRUMMA_FAULT_AFTER_VTIME"));
  if (!any) return std::nullopt;
  return cfg;
}

FaultPlane::FaultPlane(const MachineModel& machine, FaultConfig cfg)
    : cfg_(cfg),
      machine_(machine),
      op_seq_(static_cast<std::size_t>(machine.total_ranks())),
      msg_seq_(static_cast<std::size_t>(machine.total_ranks())) {
  SRUMMA_REQUIRE(cfg_.fail_rate >= 0.0 && cfg_.fail_rate <= 1.0 &&
                     cfg_.corrupt_rate >= 0.0 && cfg_.corrupt_rate <= 1.0 &&
                     cfg_.delay_rate >= 0.0 && cfg_.delay_rate <= 1.0,
                 "FaultConfig: rates must lie in [0, 1]");
  SRUMMA_REQUIRE(cfg_.delay_factor >= 1.0 && cfg_.straggler_factor >= 1.0,
                 "FaultConfig: delay factors must be >= 1");
  // Install-time range validation (docs/FAULTS.md): an id outside this
  // machine would never fire and leave a clean-looking fault-free run, so
  // a typo'd SRUMMA_FAULT_* id fails loudly here instead.
  const int domains = machine_.num_domains();
  const int ranks = machine_.total_ranks();
  require_id("dead_domain", cfg_.dead_domain, domains,
             "shared-memory domain(s)");
  require_id("kill_domain", cfg_.kill_domain, domains,
             "shared-memory domain(s)");
  require_id("straggler_node", cfg_.straggler_node, machine_.num_nodes,
             "node(s)");
  require_id("only_rank", cfg_.only_rank, ranks, "rank(s)");
  require_id("only_peer", cfg_.only_peer, ranks, "rank(s)");
  if (cfg_.kill_point != KillPoint::None || cfg_.kill_domain >= 0) {
    SRUMMA_REQUIRE(cfg_.kill_point != KillPoint::None && cfg_.kill_domain >= 0,
                   "FaultConfig: kill_domain and kill_point must be set "
                   "together (SRUMMA_FAULT_KILL_DOMAIN + "
                   "SRUMMA_FAULT_KILL_POINT)");
    SRUMMA_REQUIRE(domains >= 2,
                   "FaultConfig: killing a domain needs at least two "
                   "shared-memory domains (no survivors otherwise)");
    SRUMMA_REQUIRE(domains <= 64,
                   "FaultConfig: the dead-domain bitset supports at most 64 "
                   "domains");
    SRUMMA_REQUIRE(cfg_.buddy_offset >= 1 && cfg_.buddy_offset < domains,
                   "FaultConfig: buddy_offset " +
                       std::to_string(cfg_.buddy_offset) +
                       " must lie in [1, " + std::to_string(domains) +
                       ") so a domain never buddies itself");
  }
  any_random_ =
      cfg_.fail_rate > 0.0 || cfg_.corrupt_rate > 0.0 || cfg_.delay_rate > 0.0;
  reset();
}

bool FaultPlane::reach_kill_point(KillPoint p, int domain,
                                  double vtime) noexcept {
  if (cfg_.kill_point == KillPoint::None || domain != cfg_.kill_domain)
    return false;
  if (killed_.load(std::memory_order_acquire)) return true;
  if (!armed_.load(std::memory_order_acquire)) return false;
  if (p != cfg_.kill_point) return false;
  if (vtime < cfg_.kill_after_vtime) return false;
  killed_.store(true, std::memory_order_release);
  return true;
}

bool FaultPlane::in_scope(int rank, int peer, std::uint64_t seq,
                          double vtime) const noexcept {
  if (cfg_.only_rank >= 0 && rank != cfg_.only_rank) return false;
  if (cfg_.only_peer >= 0 && peer != cfg_.only_peer) return false;
  if (seq < cfg_.first_op || seq > cfg_.last_op) return false;
  return vtime >= cfg_.after_vtime;
}

FaultDecision FaultPlane::on_transfer(int rank, int owner,
                                      double issue_vtime) noexcept {
  FaultDecision d;
  if (!any_random_) return d;
  const std::uint64_t seq =
      op_seq_[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed);
  if (!in_scope(rank, owner, seq, issue_vtime)) return d;
  Rng rng(combine(cfg_.seed, /*stream=*/0,
                  static_cast<std::uint64_t>(rank), seq));
  // Fixed draw order so adding one knob never shifts another's stream.
  const double u_fail = rng.uniform();
  const double u_corrupt = rng.uniform();
  const double u_delay = rng.uniform();
  d.fail = u_fail < cfg_.fail_rate;
  // A failed transfer delivers nothing, so corruption only applies to
  // transfers that complete.
  d.corrupt = !d.fail && u_corrupt < cfg_.corrupt_rate;
  if (u_delay < cfg_.delay_rate) d.delay = cfg_.delay_factor;
  return d;
}

double FaultPlane::on_message(int rank, int dst, double issue_vtime) noexcept {
  if (!any_random_ || cfg_.delay_rate <= 0.0) return 1.0;
  const std::uint64_t seq =
      msg_seq_[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed);
  if (!in_scope(rank, dst, seq, issue_vtime)) return 1.0;
  Rng rng(combine(cfg_.seed, /*stream=*/1,
                  static_cast<std::uint64_t>(rank), seq));
  return rng.uniform() < cfg_.delay_rate ? cfg_.delay_factor : 1.0;
}

void FaultPlane::corrupt_payload(double* dst, index_t ld, index_t rows,
                                 index_t cols, std::uint64_t salt) noexcept {
  if (dst == nullptr || rows <= 0 || cols <= 0) return;  // phantom buffer
  const std::uint64_t h = mix(salt + 0x9e3779b97f4a7c15ULL);
  const auto i = static_cast<index_t>(h % static_cast<std::uint64_t>(rows));
  const auto j = static_cast<index_t>((h >> 20) %
                                      static_cast<std::uint64_t>(cols));
  double& cell = dst[i + j * ld];
  std::uint64_t bits;
  std::memcpy(&bits, &cell, sizeof(bits));
  // Flip one mantissa bit: the value stays finite, but any bitwise
  // comparison against the owner's copy detects it.
  bits ^= std::uint64_t{1} << (h % 52);
  std::memcpy(&cell, &bits, sizeof(bits));
}

void FaultPlane::reset() noexcept {
  for (auto& c : op_seq_) c.store(0, std::memory_order_relaxed);
  for (auto& c : msg_seq_) c.store(0, std::memory_order_relaxed);
  armed_.store(false, std::memory_order_release);
  killed_.store(false, std::memory_order_release);
  dead_mask_.store(0, std::memory_order_release);
}

}  // namespace srumma::fault
