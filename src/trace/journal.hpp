#pragma once
// JSONL event journal for the shadow-state RMA checker (docs/ANALYSIS.md).
//
// When SRUMMA_RMA_JOURNAL=<path> is set (and the checker is enabled), the
// checker appends one flat JSON object per observed event: op issues with
// their exact strided footprints, waits, barriers, allocation lifecycle and
// every diagnostic it raised.  `srumma-analyze --trace` replays the stream
// through an independent happens-before race detector and cross-validates
// the epoch model: an HB race with no matching recorded diagnostic is a
// hard failure.
//
// The format is deliberately flat (string and unsigned-integer values only,
// no nesting) so the reader below stays a ~100-line tolerant scanner with
// no JSON library dependency.  Unknown keys are ignored, which lets the
// writer grow fields without breaking old readers.

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace srumma::trace {

/// One journal line.  `ev` discriminates:
///   "op"      an issued operation or declaration (kind = get/put/acc/
///             direct-read/compute-read/local-write); handle == 0 means it
///             completed synchronously (declarations, cache shared reads)
///   "wait"    a wait() call on `handle` by `rank`
///   "barrier" `rank` entered a barrier (closes its epoch)
///   "alloc"   symmetric region `seq` registered (rrows = segment bytes)
///   "free"    symmetric region `seq` freed by `rank`
///   "diag"    a checker diagnostic (kind = diagnostic name; the remote
///             footprint degenerates to the reported [lo, hi) interval)
struct JournalRecord {
  std::string ev;
  int rank = -1;
  std::string kind;
  int owner = -1;
  std::uint64_t seq = ~std::uint64_t{0};
  std::uint64_t handle = 0;
  std::uint64_t epoch = 0;
  // Remote footprint: byte offsets within the owner segment (empty when
  // rcols == 0 or rrows == 0).
  std::uint64_t rlo = 0, rrows = 0, rcols = 0, rld = 0;
  // Local (origin-buffer) footprint: absolute addresses.
  std::uint64_t llo = 0, lrows = 0, lcols = 0, lld = 0;
  std::string site;
};

/// Append-mode JSONL writer.  The first writer a process opens for a given
/// path truncates it (one journal per run); later writers — one RmaChecker
/// per runtime, and A/B/C may live on distinct runtimes — append to the
/// same stream.  record() is internally serialized.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path);
  [[nodiscard]] bool ok() const { return out_.is_open(); }
  void record(const JournalRecord& r);

 private:
  std::mutex mu_;
  std::ofstream out_;
};

/// Parse a journal file.  Throws srumma::Error on unreadable files or
/// malformed lines; unknown keys are skipped.
[[nodiscard]] std::vector<JournalRecord> read_journal(const std::string& path);

}  // namespace srumma::trace
