// Multi-level checkpoint storage hierarchy (SCR-style) — the one checkpoint
// store every job runs.
//
// The paper charges every checkpoint to one stable device and every restore
// to the single retained generation chain. Real partial-redundancy
// deployments (LLNL's SCR is the blueprint) write most checkpoints to cheap
// *cache* levels — node-local storage, partner copies, XOR-encoded sets that
// survive k rank losses — and only drain every few checkpoints to the slow
// parallel filesystem. Most restarts are then served from a cache level at a
// fraction of the PFS fetch cost, which shifts the paper's redundancy-vs-
// checkpointing crossovers.
//
// The hierarchy is an ordered set of levels, fastest first:
//
//   kLocal    node-local cache. A rank kill wipes that rank's images, so a
//             generation here only survives failures that killed nobody —
//             it serves software-level restarts, never node losses.
//   kPartner  each rank's image is copied to a partner rank (2x write
//             volume). Survives any dead set with no two cyclically
//             adjacent deaths inside a partner group; a correlated loss
//             that kills a rank *and* its partner defeats the level.
//   kXor      images XOR/RS-encoded across groups of `group_size` ranks
//             (1 + 1/(G-1) write volume). Survives up to `xor_tolerance`
//             dead ranks per group.
//   kPfs      the parallel filesystem. Rank kills never touch it — only
//             latent image corruption does — and it persists across
//             restarts. Must be the last (slowest) level when present.
//
// Epoch routing is SCR's interval scheme: checkpoint epoch e is written,
// blocking, to the slowest *cache* level whose `interval` divides e; if the
// PFS level's interval also divides e the images additionally drain to the
// PFS — blocking by default, or asynchronously (HierarchyParams::
// async_flush) so the drain overlaps useful work. An async flush in flight
// when the job is killed is lost; one still in flight when the workload
// finishes must be drained, and that terminal wait is the job's `flush`
// wallclock component (wallclock == useful + ckpt + rework + restart +
// flush stays an exact tiling).
//
// Restart fetches from the cheapest surviving level: walk levels fastest
// first, drop every level the failure's dead set defeats, and within the
// first surviving level run the existing newest-first checksum fallback.
// Per-level latent corruption is drawn from the pure FaultProcess oracle,
// salted with the level index.
//
// The flat store is the degenerate case: StorageHierarchy::flat() lowers the
// single-device settings into one PFS level due every epoch. That level's
// public id is -1 (see public_id()), the one fact every caller asks to keep
// the lowered store looking flat from outside: flat oracle streams, no
// level on its journal events, no per-level metrics or report rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/storage.hpp"
#include "ckpt/store.hpp"
#include "util/knob.hpp"

namespace redcr::ckpt {

/// What a level is made of — decides write volume, which failures destroy
/// it, and whether it persists across restarts.
enum class LevelKind {
  kLocal,
  kPartner,
  kXor,
  kPfs,
};

/// Parses "local", "partner", "xor", "pfs"; throws std::invalid_argument
/// naming the bad token otherwise.
[[nodiscard]] LevelKind parse_level_kind(const std::string& token);
[[nodiscard]] const char* level_kind_name(LevelKind kind) noexcept;

/// One storage level of the hierarchy.
struct LevelParams {
  LevelKind kind = LevelKind::kPfs;
  /// Write-side device model (aggregate bandwidth, per-write latency).
  StorageParams device;
  /// Restart-fetch bandwidth, bytes/s. 0 (default) = the fetch is free —
  /// subsumed in the job's flat restart cost R, which is also what the flat
  /// pipeline assumes. Set > 0 to charge P·S/read_bandwidth per restore
  /// served by this level.
  double read_bandwidth = 0.0;
  /// Generations retained at this level (newest-first fallback depth).
  int retention = 1;
  /// Write every `interval`-th checkpoint epoch to this level.
  int interval = 1;
  /// Per-image latent corruption probability at this level (drawn from the
  /// FaultProcess oracle at commit, consulted at restore-time validation).
  double corruption_prob = 0.0;
  /// Per-image, per-attempt visible write-failure probability.
  double write_failure_prob = 0.0;
  /// Partner/XOR group size; 0 = all ranks form one group.
  int group_size = 0;
  /// k: rank losses one XOR group survives (ignored for other kinds).
  int xor_tolerance = 1;

  /// Bytes actually written per rank image of size `image` at this level
  /// (partner copies double it; XOR adds the parity share).
  [[nodiscard]] double write_factor(int num_ranks) const noexcept;
  /// Effective group size given the world size.
  [[nodiscard]] int effective_group(int num_ranks) const noexcept;
  /// True for levels rank kills cannot touch (today: the PFS).
  [[nodiscard]] bool survives_rank_loss() const noexcept {
    return kind == LevelKind::kPfs;
  }

  /// Rejects bad knobs with a one-line std::invalid_argument naming the
  /// level index and the offending field.
  void validate(int index, int num_ranks) const;

  bool operator==(const LevelParams&) const = default;
};

/// The whole hierarchy configuration. Empty levels = the flat store.
struct HierarchyParams {
  /// Ordered fastest (cheapest) first; a kPfs level, when present, must be
  /// unique and last.
  std::vector<LevelParams> levels;
  /// Drain PFS writes in the background, overlapping useful work, instead
  /// of blocking inside the checkpoint.
  bool async_flush = false;

  [[nodiscard]] bool enabled() const noexcept { return !levels.empty(); }
  /// Index of the PFS level, -1 if the hierarchy has none.
  [[nodiscard]] int pfs_level() const noexcept;
  /// True when any per-level fault probability can fire (the signal to
  /// instantiate a FaultProcess even when the flat CkptFaultParams are all
  /// zero).
  [[nodiscard]] bool any_fault_prob() const noexcept;
  /// Validates level count/order and every per-level knob; throws
  /// std::invalid_argument with an actionable message.
  void validate(int num_ranks) const;

  bool operator==(const HierarchyParams&) const = default;
};

/// A level's spec keys, bound to `level`: bw, lat, rbw, ret, interval, corr,
/// wfail, group and k. The four integer keys are counts.
[[nodiscard]] util::FlagSet level_keys(LevelParams& level);

/// Parses a CLI hierarchy spec: levels separated by ';', each
/// "kind[,key=value...]" with keys from level_keys() — e.g.
///   "local,bw=5e10;xor,bw=2e10,group=4,k=1;pfs,bw=2e9,interval=4"
/// Throws std::invalid_argument naming the offending level/key.
[[nodiscard]] HierarchyParams parse_hierarchy(const std::string& spec);

/// One asynchronous PFS drain in flight: the controller reserves the PFS
/// device at checkpoint publish and the generation commits only when the
/// background write completes (`ready_at`). A flush still pending when a
/// failure kills the job is lost; one still pending when the workload
/// finishes is drained, and that terminal wait is the job's `flush`
/// wallclock component. Image validity (write failures + latent corruption)
/// is pre-drawn at launch — it is a pure function of the image coordinates.
struct PendingFlush {
  sim::Time start = 0.0;     ///< when the drain was launched
  sim::Time ready_at = 0.0;  ///< when the last image becomes durable
  int level = -1;            ///< destination level (the PFS)
  Generation gen;            ///< what commits once the drain completes
  bool committed = false;
};

/// Job-scope state of the hierarchy: one generation store per level plus
/// lifetime counters. Per-episode devices are built separately (they hold
/// the episode engine); this object persists across episodes.
class StorageHierarchy {
 public:
  /// Validates `params` against the world size (throws std::invalid_argument).
  StorageHierarchy(HierarchyParams params, int num_ranks);

  /// The flat single-device store lowered to a one-level hierarchy: `level`
  /// (its device, retention and fault probabilities) becomes a lone PFS
  /// level whose public id is -1.
  [[nodiscard]] static StorageHierarchy flat(LevelParams level, int num_ranks);

  struct Level {
    LevelParams params;
    CheckpointStore store;        ///< its commits() counts the level's commits
    std::uint64_t fetches = 0;    ///< restores served by this level
    std::uint64_t defeated = 0;   ///< restores where a failure destroyed it

    Level(LevelParams p) : params(p), store(p.retention) {}
  };

  [[nodiscard]] const HierarchyParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] Level& level(int i) { return levels_[static_cast<size_t>(i)]; }
  [[nodiscard]] const Level& level(int i) const {
    return levels_[static_cast<size_t>(i)];
  }
  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] int pfs_level() const noexcept { return pfs_level_; }

  /// Is this the lowered flat store (see flat())?
  [[nodiscard]] bool is_flat() const noexcept { return flat_; }
  /// The id level `level` is known by outside the store — in journal events,
  /// per-level metrics, report rows and fault-oracle streams: its index, or
  /// -1 for the lowered flat store.
  [[nodiscard]] int public_id(int level) const noexcept {
    return flat_ ? -1 : level;
  }

  /// The cache (non-PFS) level epoch `epoch` writes to: the slowest one
  /// whose interval divides it, or -1 if the hierarchy is PFS-only.
  [[nodiscard]] int cache_level_for(int epoch) const noexcept;
  /// Does epoch `epoch` also drain to the PFS level?
  [[nodiscard]] bool pfs_due(int epoch) const noexcept;
  /// Period of the interval-routing pattern: epochs e and e + period route
  /// identically (the lcm of all level intervals). 0 when the lcm exceeds
  /// the memo-table cap — routing then falls back to the per-call scan and
  /// the fast-forward driver treats every epoch base as its own class.
  [[nodiscard]] int routing_period() const noexcept { return period_; }

  /// Does this level survive a failure that left `dead` (per physical rank)
  /// dead? Pure function of the level kind/grouping and the dead set.
  [[nodiscard]] bool level_survives(int level,
                                    const std::vector<char>& dead) const;

  /// Commits a generation at `level`.
  void commit(int level, Generation gen);

  /// Outcome of a restart-time fetch.
  struct FetchResult {
    bool found = false;
    /// Some *surviving* level held generations that then failed validation
    /// (→ abort: re-reading the same corrupt images cannot make progress).
    /// Levels the failure destroyed do not count — an all-destroyed
    /// hierarchy restarts from scratch instead, like an empty one.
    bool had_generations = false;
    int level = -1;             ///< serving level (when found)
    Generation generation;      ///< meaningful only when found
    int fallback_depth = 0;     ///< generations discarded inside the server
    double fetch_seconds = 0.0; ///< read cost at the serving level
    int levels_defeated = 0;    ///< levels the dead set destroyed
    /// Indices of the destroyed levels, fastest first — the executor's
    /// journal turns each into a "level-defeated" event billed to the
    /// failure. Only levels that actually held generations count (matching
    /// `levels_defeated`).
    std::vector<int> defeated_levels;
  };

  /// The cheapest-surviving-level restart fetch (see file comment).
  /// `image_bytes` is the per-rank image size the fetch reads back.
  FetchResult fetch(const std::vector<char>& dead, util::Bytes image_bytes);

  /// One generation removed by invalidate_unverified(), with the level it
  /// was stored at — the executor journals a "ckpt-invalidated" event per
  /// entry, billed to the infection that tainted it.
  struct Invalidated {
    int level = -1;
    Generation gen;
  };

  /// Erases every *unverified* generation at every level — called at SDC
  /// detection time: those image sets hold corrupt state and must not serve
  /// restores. Returns the removed generations, fastest level first and
  /// newest-first within a level.
  std::vector<Invalidated> invalidate_unverified();

 private:
  HierarchyParams params_;
  int num_ranks_;
  int pfs_level_ = -1;
  bool flat_ = false;
  std::vector<Level> levels_;
  // Interval routing repeats with period lcm(intervals); the hot loop in
  // cache_level_for is replaced by one table lookup per checkpoint epoch.
  int period_ = 0;
  std::vector<int> route_;     // route_[e % period_] = cache level for e
  std::vector<char> pfs_due_;  // pfs_due_[e % period_]
};

}  // namespace redcr::ckpt
