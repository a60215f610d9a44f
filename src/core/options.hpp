#pragma once
// SRUMMA configuration knobs.
//
// The defaults reproduce the algorithm exactly as the paper describes it
// (Section 3.1): nonblocking gets with double buffering, shared-memory
// tasks first, diagonal-shift remote ordering, A-block reuse, direct
// load/store access within the shared-memory domain.  Every knob exists so
// the ablation benches can turn one paper design choice off at a time.

#include <cstdint>

#include "util/matrix.hpp"

#include "blas/gemm.hpp"

namespace srumma {

/// Task-list ordering refinements (paper Section 3.1, step 2).
struct OrderingPolicy {
  /// Move tasks whose blocks live in my shared-memory domain to the front,
  /// so the remote-get pipeline starts while computing on local data.
  bool shm_first = true;
  /// Rotate the remote tasks so ranks on one node start fetching from
  /// *different* nodes (Fig. 4), spreading the contention.
  bool diagonal_shift = true;
  /// Group tasks so a fetched A block is used by consecutive products
  /// before its buffer is reused.
  bool a_reuse = true;
  /// Regroup the remote run so every set of tasks sharing one A patch is
  /// contiguous (repairing the split the diagonal-shift rotation can cut
  /// through one A-reuse run).  Keeps same-patch fetches adjacent, which
  /// also maximizes in-flight joins in the cooperative block cache.
  /// Aggregate-initialized policies ({a, b, c}) leave it off.
  bool a_group = false;

  [[nodiscard]] static OrderingPolicy naive() {
    return {false, false, false, false};
  }
  [[nodiscard]] static OrderingPolicy full() {
    return {true, true, true, true};
  }
};

/// Shared-memory access flavor (paper Section 3.2).
enum class ShmFlavor {
  /// Pass in-place views of peer blocks straight to dgemm.  Fast when
  /// remote memory is cacheable (SGI Altix), slow when it is not (Cray X1).
  Direct,
  /// Copy peer blocks to a local buffer first, then run dgemm at full rate.
  Copy,
};

/// Task-execution engine selection (docs/ENGINE.md).
enum class EngineMode : std::uint8_t {
  /// Defer to the SRUMMA_ENGINE environment variable (unset/0 = Off).
  Auto,
  /// The paper's static ordered pipeline (Fig. 3): in-order waits, slot
  /// rotation, failed operands re-armed in place.  Deterministic timing.
  Off,
  /// Dependency-driven task engine (src/engine): per-task operand
  /// ownership, out-of-order execution across C tiles and fetch re-arm on
  /// failure.  C is bitwise-identical to the pipeline (docs/ENGINE.md).
  On,
};

struct SrummaOptions {
  blas::Trans ta = blas::Trans::No;
  blas::Trans tb = blas::Trans::No;
  double alpha = 1.0;
  double beta = 0.0;

  OrderingPolicy ordering = OrderingPolicy::full();
  ShmFlavor shm_flavor = ShmFlavor::Direct;
  /// Which executor consumes the task plan (docs/ENGINE.md).
  EngineMode engine = EngineMode::Auto;
  /// Nonblocking prefetch pipeline (Fig. 3).  Off = issue each get and wait
  /// immediately; the blocking arm of the Fig. 9 experiment.
  bool nonblocking = true;
  /// Prefetch depth: how many tasks ahead gets are issued (paper: 1, the
  /// classic double buffer).  Deeper pipelines trade buffer memory for
  /// resilience to bursty contention; an extension beyond the paper,
  /// ablated in bench_ablation_blocksize.  Ignored when !nonblocking.
  /// 0 = auto: the latency-bandwidth-product heuristic
  /// clamp(ceil(net_latency * net_bw / patch_bytes), 1, 8).
  int lookahead = 0;

  /// Maximum K-segment length.  0 = auto-tune: pick a chunk that gives the
  /// double-buffered pipeline several tasks per owner segment (the paper's
  /// "optimum block sizes were chosen empirically").  Explicit values cap
  /// segments at that length after cutting at block-owner boundaries.
  index_t k_chunk = 0;
  /// Maximum local C tile edge.  0 = compute the whole local block as one
  /// tile.  Smaller tiles bound buffer memory and enable A-block reuse.
  index_t c_chunk = 0;
  /// Optional per-rank buffer memory budget in bytes (0 = unlimited).  When
  /// set, the driver shrinks c_chunk (and if needed k_chunk) until the
  /// pipeline's patch buffers fit — the "memory efficient" operating mode.
  /// Explicit c_chunk/k_chunk values are only ever shrunk, never grown.
  std::uint64_t max_buffer_bytes = 0;

  /// Verify every freshly fetched copy-path operand patch against the
  /// owners' segments before dgemm consumes it (the checksum stand-in; see
  /// docs/FAULTS.md).  A mismatch — e.g. an injected payload corruption —
  /// triggers a refetch of the patch before the block product runs, so the
  /// multiply survives corrupt transfers at the cost of a local memory scan
  /// per fetched patch.  No effect on direct-access or phantom operands.
  bool verify_checksums = false;
};

}  // namespace srumma
