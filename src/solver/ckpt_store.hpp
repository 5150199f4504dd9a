#pragma once
// Unified delta checkpoint store (DESIGN.md §12).
//
// The paper's terascale runs live or die by checkpoint/restart economics:
// restart files are "the bulk of the analysis data" and the workflow
// (section 9) manages them continuously. PR 2/3 kept full-state copies in
// both tiers — the in-memory SnapshotRing and the on-disk RestartSeries
// rewrote whole generations synchronously inside the step loop. This
// subsystem reworks both after Portus's checkpoint server (PAPERS.md):
//
//   base + deltas   a full "base" image every K generations, block-level
//                   dirty deltas (raw new blocks, per-block checksums)
//                   chained between them; folding the oldest delta into
//                   the base on prune keeps the retained chain closed;
//   generation      every generation carries a validity bit, so recovery
//   table           skips known-bad entries in O(1) without re-reading
//                   files, and a lost manifest degrades to a directory
//                   scan that classifies files by header magic;
//   write-behind    a dedicated persister thread drains a bounded queue
//                   through the iosim retry/backoff policy, so a series
//                   write costs the step path one encode + enqueue; a
//                   crash (or exhausted retry budget) mid-persist marks
//                   only that generation invalid — the previous one
//                   stays restorable (files land by atomic temp+rename).
//
// Restores are bitwise identical to the PR-2 full-copy path: a base file
// IS a restart file (same bytes), and delta blocks store the raw new
// values, so base + replay reproduces the image exactly.
//
// Fault sites: "checkpoint.write" (per append, as before),
// "checkpoint.delta" (delta encode), "checkpoint.persist" (per persist
// attempt, retried), "restart.read" (per chain load).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "solver/config.hpp"
#include "solver/solver.hpp"

namespace s3d::solver {

/// Restart-file magic (shared with write_restart/read_restart: a base
/// generation is byte-identical to a standalone restart file).
constexpr std::uint64_t kRestartMagic = 0x53334452535452ull;  // "S3DRSTR"
/// Delta-generation magic ("S3DDLT"); same .rst naming, distinguished by
/// header peek.
constexpr std::uint64_t kDeltaMagic = 0x533344444c54ull;

/// One flat snapshot: clock, step counter and a payload of doubles. The
/// disk store carries the restart payload (interior of each conserved
/// variable then the Newton warm-start T field, x fastest); the ring
/// carries the full ghosted fields. Both delta through the same codec.
struct CkptImage {
  int nx = 0, ny = 0, nz = 0, nv = 0;  ///< dims of the disk payload
  double t = 0.0;
  std::int64_t steps = 0;
  std::vector<double> data;
};

/// Dirty blocks of one image against its predecessor: raw new values, so
/// applying them onto the predecessor reproduces the image bitwise.
struct CkptDelta {
  std::uint64_t total = 0;            ///< doubles in the full image
  std::vector<std::uint32_t> blocks;  ///< dirty block indices, ascending
  std::vector<double> payload;        ///< concatenated block contents
};

/// memcmp-based block diff (granule = `block` doubles; sizes must match).
CkptDelta diff_image(const std::vector<double>& prev,
                     const std::vector<double>& next, int block);
/// In-place replay of `d` onto `data` (sized d.total).
void apply_delta(std::vector<double>& data, const CkptDelta& d, int block);

/// Interior-only gather of the solver's restart payload (the exact
/// variable/row order of write_restart).
CkptImage image_from_solver(const Solver& s);
/// Scatter an image back; checks dims ("restart grid/variable mismatch")
/// and restores the clock (invalidating the cached dt).
void commit_image(const CkptImage& img, Solver& s);

/// Byte-identical to the PR-2 restart-file format (magic, dims, t, steps,
/// payload, trailing FNV-1a over header fields + payload).
std::string serialize_base(const CkptImage& img);
/// Parse + verify a base/restart image. `expect` (nx, ny, nz, nv) is
/// enforced before the checksum when given; errors carry `path`.
CkptImage parse_base(const std::string& image, const std::string& path,
                     const int* expect);

/// Durable write: stage to <path>.tmp, flush, rename into place.
void atomic_write_file(const std::string& path, const std::string& image);
/// Whole-file slurp; a missing/unreadable file throws
/// "cannot open <kind>: <path> (missing or unreadable)".
std::string read_file_image(const std::string& path, const char* kind);

/// In-memory delta ring backing SnapshotRing: the front entry is a full
/// base image, later entries are chained block deltas, and the newest
/// image is kept materialized so restores cost one copy. Evicting the
/// front folds the next delta into the base; with opt.delta off every
/// entry is a full copy (the PR-3 ring).
class DeltaRing {
 public:
  DeltaRing(int depth, const CkptOptions& opt);

  void push(CkptImage img);
  /// The newest image, materialized (requires !empty()).
  const CkptImage& newest() const;
  void pop_newest();

  bool empty() const { return ring_.empty(); }
  int size() const { return static_cast<int>(ring_.size()); }
  long newest_step() const;
  /// Payload bytes actually retained (entries + materialized head).
  std::size_t bytes() const;

 private:
  void rebuild_head();
  struct Entry {
    double t = 0.0;
    std::int64_t steps = 0;
    bool is_base = true;
    std::vector<double> base;  ///< full payload when is_base
    CkptDelta delta;           ///< vs the previous entry otherwise
  };
  int depth_;
  CkptOptions opt_;
  std::deque<Entry> ring_;  ///< oldest first; front always a base
  CkptImage head_;          ///< materialization of ring_.back()
};

/// One generation-table entry.
struct CkptGen {
  long gen = -1;
  bool is_base = true;
  long prev = -1;  ///< predecessor generation in the delta chain
  int chain = 0;   ///< deltas since the chain's base (0 for a base)
  bool valid = true;      ///< cleared on failure: recovery skips in O(1)
  bool persisted = false; ///< file durable on disk
  std::uint64_t bytes = 0;
};

/// Cumulative store accounting (bench_resilience reports these).
struct CkptStats {
  long bases = 0;
  long deltas = 0;
  long folds = 0;               ///< prune-time delta-into-base folds
  std::uint64_t logical_bytes = 0;  ///< full-image bytes represented
  std::uint64_t written_bytes = 0;  ///< bytes actually serialized
  long enqueued = 0;
  long persisted = 0;
  long persist_failures = 0;  ///< generations invalidated by persist
  long invalidated = 0;       ///< validity bits cleared (incl. cascades)
  int queue_hwm = 0;          ///< persist-queue high-water mark
  double persist_ms_total = 0.0;  ///< wall time inside persist I/O
  /// written/logical compression: 1 = no dedup, smaller = better.
  double dedup_ratio() const {
    return logical_bytes == 0
               ? 1.0
               : static_cast<double>(written_bytes) /
                     static_cast<double>(logical_bytes);
  }
};

/// The on-disk store behind RestartSeries: generation table + delta
/// files + (optional) write-behind persister. File naming and the base
/// format are unchanged from PR 2 (`dir/stem.g<NNNNNN>.rst` plus
/// `dir/stem.manifest`), so existing directories remain readable.
class CkptStore {
 public:
  CkptStore(std::string dir, std::string stem, int keep_last,
            CkptOptions opt);
  ~CkptStore();
  CkptStore(const CkptStore&) = delete;
  CkptStore& operator=(const CkptStore&) = delete;

  const std::string& dir() const { return dir_; }
  const std::string& stem() const { return stem_; }
  int keep_last() const { return keep_last_; }
  const CkptOptions& options() const { return opt_; }

  std::string path(long gen) const;
  std::string manifest_path() const;

  /// Checkpoint the solver as generation `gen`: encode (base or delta
  /// against the previous generation) and persist — synchronously, or
  /// via the write-behind queue (one bounded enqueue on this thread).
  void append(const Solver& s, long gen);

  /// Known generations, newest first (table ∪ directory scan). Drains
  /// the persist queue first, so listed generations are settled.
  std::vector<long> generations() const;

  /// Validate-and-load one generation (base + delta replay). On failure
  /// the offending generation — and every later delta chained through
  /// it — is marked invalid. Drains the persist queue first.
  bool try_load(long gen, Solver& s, std::string* err = nullptr) const;

  /// Load the newest generation at or below `max_gen` that validates: an
  /// O(1) table walk picks each candidate (invalid entries are skipped
  /// without touching disk), try_load verifies it. Returns the generation
  /// or -1; newly discovered failures are reported through `skipped`
  /// ("gen N: why").
  long restore_latest(Solver& s, std::vector<std::string>* skipped = nullptr,
                      long max_gen = std::numeric_limits<long>::max()) const;

  /// Block until every queued generation has been persisted (no-op when
  /// synchronous).
  void drain() const;

  CkptStats stats() const;

 private:
  struct Task {
    long gen = -1;
    std::string image;   ///< serialized bytes (empty: dropped write)
    bool dropped = false;
  };

  // --- table / manifest (mu_ held unless noted) ---
  void load_table();             ///< manifest parse + directory scan
  void sync_scan_locked();       ///< fold unknown on-disk files into the table
  void write_manifest_locked() const;
  std::optional<CkptGen> classify_file(long gen) const;  ///< header peek (no lock)
  void invalidate_cascade_locked(long gen) const;
  long newest_valid_locked(long max_gen) const;  ///< -1: none

  // --- persist path ---
  void enqueue(Task task);
  void persist_one(Task task);   ///< retry loop + atomic write + prune
  void prune_fold();             ///< drop beyond keep_last, folding first
  void drain_locked(std::unique_lock<std::mutex>& lk) const;
  void worker_loop(int owner_rank);

  bool chain_for_locked(long gen, std::vector<CkptGen>* chain,
                        std::string* err) const;

  std::string dir_, stem_;
  int keep_last_;
  CkptOptions opt_;
  int owner_rank_ = 0;  ///< rank label for trace/fault on the persister

  mutable std::mutex mu_;
  mutable std::map<long, CkptGen> table_;
  mutable std::optional<CkptImage> shadow_;  ///< last appended/loaded image
  mutable long shadow_gen_ = -1;
  mutable bool force_base_ = false;  ///< self-heal after a persist failure
  mutable CkptStats stats_;

  // write-behind machinery
  std::deque<Task> queue_;
  mutable bool working_ = false;
  bool stop_ = false;
  std::thread worker_;
  mutable std::condition_variable cv_work_;   ///< queue became non-empty
  mutable std::condition_variable cv_space_;  ///< queue has room
  mutable std::condition_variable cv_idle_;   ///< queue empty and idle
};

}  // namespace s3d::solver
