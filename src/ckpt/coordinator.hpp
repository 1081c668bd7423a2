// Coordinated checkpoint controller.
//
// Mirrors the paper's experimental setup (Section 5): a background timer
// requests a checkpoint every δ seconds (δ computed from Daly's formula by
// the caller); application processes participate at iteration boundaries.
//
// Agreement: a naive "check a flag at the next boundary" scheme deadlocks —
// a rank that missed the flag proceeds into iteration k+1 and blocks on
// messages a flag-observing rank will never send. Instead, every rank calls
// `maybe_checkpoint()` at every iteration boundary; the call runs a small
// max-agreement reduction (in the uncounted quiesce tag band), so all ranks
// take the *same* decision at the *same* boundary. This is the application-
// level analogue of piggybacking the checkpoint request on an existing
// per-iteration collective. It requires every rank to execute the same
// number of iterations (SPMD), which all bundled workloads do.
//
// A full checkpoint is: quiesce (bookmark-exchange or counting) -> every
// rank writes its image to the storage levels the epoch routes to
// (BLCR-style per-process image, cost from the storage model) -> closing
// barrier -> rank 0 records the snapshot, commits the generations and
// re-arms the timer. The elapsed span is the paper's `c`. The store is
// always a ckpt::StorageHierarchy; the flat single-device store is its
// one-level special case (StorageHierarchy::flat).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ckpt/quiesce.hpp"
#include "ckpt/storage.hpp"
#include "failure/faults.hpp"
#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "sim/cotask.hpp"
#include "simmpi/world.hpp"

namespace redcr::failure {
class SdcMonitor;
}  // namespace redcr::failure

namespace redcr::ckpt {

class StorageHierarchy;
struct Generation;
struct PendingFlush;

/// The latest durable coordinated snapshot.
struct Snapshot {
  bool valid = false;
  long iteration = 0;       ///< all ranks restart from this app iteration
  sim::Time completed_at = 0.0;
  int epoch = 0;
  /// Episode-local *work* time (elapsed minus checkpoint time) captured by
  /// this snapshot — the executor's retained-work accounting unit.
  double work_elapsed = 0.0;
};

struct CkptConfig {
  /// δ: delay from checkpoint completion (or episode start) to the next
  /// checkpoint request, seconds.
  double interval = 600.0;
  /// Per-process image size, bytes.
  util::Bytes image_bytes = 256.0 * 1024 * 1024;
  /// Use the scalable counting quiesce instead of the literal O(P²)
  /// bookmark exchange.
  bool use_counting_quiesce = true;
  /// Disable checkpointing entirely (failure-free baseline runs).
  bool enabled = true;

  // --- Optional optimizations from the paper's background section ---------

  /// Incremental checkpointing: after the first full image of a run, each
  /// image only writes this fraction of image_bytes (the dirty pages).
  /// 1.0 = always full (default, matches the paper's experiments).
  double incremental_fraction = 1.0;
  /// Forked checkpointing: the application resumes after a short fork pause
  /// while the image drains to storage in the background; the snapshot only
  /// becomes restorable once every image is durable. Reduces checkpoint
  /// *overhead* at unchanged checkpoint *latency* (background §2). A write
  /// mode of a single-level store without async flush.
  bool forked = false;
  /// Pause charged to every rank for the fork + copy-on-write setup.
  util::Seconds fork_cost = 0.5;

  // --- Unreliable C/R (defaults reproduce the reliable pipeline) ----------

  /// Fault oracle for write failures / latent corruption (not owned; null =
  /// reliable storage). Draws are keyed by each level's public id.
  const failure::FaultProcess* faults = nullptr;
  /// Retry/backoff policy for failed image writes (blocking mode only; a
  /// forked-mode write failure degrades to a latently invalid image since
  /// the application has already resumed).
  failure::RetryPolicy write_retry;
  /// Episode index, salt of the per-epoch fault streams.
  std::uint64_t episode = 0;
  /// Job-lifetime useful work at episode start; committed generations carry
  /// useful_work_base + work_elapsed as the executor's restore target.
  double useful_work_base = 0.0;
  /// Live SDC infection monitor (not owned; null = no SDC fault model).
  /// Consulted at every generation publish: a checkpoint committed while a
  /// rank infection is live records those infections and becomes
  /// *unverified* — invalidated when voting finally detects the strain.
  const failure::SdcMonitor* sdc = nullptr;

  // --- Checkpoint store ---------------------------------------------------

  /// Job-scope storage hierarchy the generations commit into (not owned;
  /// required when checkpointing is enabled). Every epoch writes (blocking,
  /// with retry) to the slowest eligible cache level, plus a PFS drain when
  /// the PFS interval divides — blocking by default, or asynchronous
  /// (HierarchyParams::async_flush) so the drain overlaps post-checkpoint
  /// useful work. The flat store is a lone PFS level due every epoch.
  StorageHierarchy* hierarchy = nullptr;
  /// Episode-scope devices, parallel to hierarchy levels (not owned).
  std::vector<StableStorage*> level_devices;
  /// Job-wide checkpoint epochs completed before this episode; the global
  /// epoch ordinal `epoch_base + epoch` routes the per-level intervals so
  /// the PFS cadence spans episode boundaries.
  int epoch_base = 0;
};

/// Passive observation tables the fast-forward executor attaches to its
/// failure-free *prototype* episodes (null on real runs: every site is one
/// branch). Each record carries the engine time it was taken at, so the
/// driver can answer any "state as of instant t" query — boundary entries,
/// in-checkpoint windows, closes, publishes, commits and async-flush
/// launches — for an episode that is a time-shifted prefix of the
/// prototype.
struct FfProbe {
  /// First entry into maybe_checkpoint per iteration (engine time); grows
  /// on demand, NaN = boundary not reached yet.
  std::vector<double> hook_entry;
  /// First-rank checkpoint entry times, in epoch order.
  std::vector<double> epoch_entry;
  /// Rank-0 close of each completed epoch.
  struct Close {
    double total_ckpt_after = 0.0;  ///< cumulative checkpoint time after
    double time = 0.0;              ///< engine time of the close
  };
  std::vector<Close> closes;
  /// Every snapshot publish, in order; completed_at is its engine time (the
  /// close, or later for a forked publish).
  std::vector<Snapshot> publishes;
  /// Every generation commit, in commit (= time) order.
  struct Commit {
    int level = 0;      ///< hierarchy level index
    Snapshot snapshot;  ///< the committed generation's snapshot
    double time = 0.0;  ///< engine time of the commit: the close for a
                        ///< blocking write, the drain's end for a forked
                        ///< write or an async flush
  };
  std::vector<Commit> commits;
  /// Async PFS flush launches.
  struct Flush {
    double start = 0.0;  ///< launch time (== the epoch's close time)
    double ready = 0.0;  ///< drain completion time
  };
  std::vector<Flush> flushes;
  /// Boundary whose first entry stops the prototype's engine (-1 = none):
  /// the driver advances a shared prototype no further than the divergence
  /// boundary of the episode it is answering for.
  long stop_hook = -1;

  /// Records the first entry into boundary `iteration`; true when that is
  /// the first entry into `stop_hook`.
  bool record_hook(long iteration, double now) {
    const auto i = static_cast<std::size_t>(iteration);
    if (i >= hook_entry.size())
      hook_entry.resize(i + 1, std::numeric_limits<double>::quiet_NaN());
    if (!std::isnan(hook_entry[i])) return false;
    hook_entry[i] = now;
    return iteration == stop_hook;
  }
};

class CheckpointController {
 public:
  CheckpointController(sim::Engine& engine, CkptConfig config,
                       int num_physical);
  ~CheckpointController();  // out of line: PendingFlush is incomplete here

  /// Starts the checkpoint timer (call once per episode, before run()).
  void arm();

  /// Called by every rank at every iteration boundary. Returns true if a
  /// checkpoint was taken at this boundary (the caller should then persist
  /// its application-level state for `snapshot().iteration`).
  sim::CoTask<bool> maybe_checkpoint(simmpi::Endpoint& endpoint,
                                     long iteration);

  [[nodiscard]] const Snapshot& snapshot() const noexcept { return snapshot_; }
  /// Checkpoints that actually published a snapshot (epochs abandoned after
  /// exhausted write retries do not count).
  [[nodiscard]] int checkpoints_completed() const noexcept {
    return completed_epochs_ - failed_epochs_;
  }
  /// Epochs whose image write exhausted its retries (no snapshot published).
  [[nodiscard]] int failed_epochs() const noexcept { return failed_epochs_; }
  /// Image-write attempts that failed visibly this episode.
  [[nodiscard]] std::uint64_t write_failures() const noexcept {
    return write_failures_;
  }
  /// Total wallclock spent inside checkpoints so far this episode (spans
  /// from first-rank entry to barrier completion, rank-0 measured).
  [[nodiscard]] double total_checkpoint_time() const noexcept {
    return total_checkpoint_time_;
  }
  /// True while a checkpoint is actually being *performed* (some rank has
  /// entered and the closing barrier has not finished); the failure injector
  /// consults this to reproduce the paper's "no failures during checkpoint"
  /// experimental condition. Note: requested-but-not-yet-started epochs do
  /// not count — a request that fires after the application's last boundary
  /// would otherwise latch this true forever.
  [[nodiscard]] bool in_checkpoint() const noexcept {
    return entered_count_ > 0;
  }
  /// Time spent so far in a still-running checkpoint (0 if none); the
  /// executor uses it to attribute a kill that lands mid-checkpoint.
  [[nodiscard]] double in_progress_elapsed(sim::Time now) const noexcept {
    return entered_count_ > 0 ? now - epoch_entry_time_ : 0.0;
  }
  [[nodiscard]] const QuiesceStats& last_quiesce() const noexcept {
    return last_quiesce_;
  }
  [[nodiscard]] const CkptConfig& config() const noexcept { return config_; }

  // --- Asynchronous PFS flush ---------------------------------------------

  /// Flushes launched / committed so far this episode.
  [[nodiscard]] const std::vector<PendingFlush>& pending_flushes() const
      noexcept {
    return pending_flushes_;
  }
  [[nodiscard]] int flushes_completed() const noexcept {
    return flushes_completed_;
  }
  [[nodiscard]] int flushes_lost() const noexcept { return flushes_lost_; }
  /// Commits every pending flush whose drain completed by `now` — the
  /// engine stop may have raced the in-episode commit events.
  void commit_ready_flushes(sim::Time now);
  /// Terminal drain at workload finish: commits every remaining flush and
  /// returns the extra wallclock the drain needs beyond `now` (the job's
  /// `flush` accounting component).
  double drain_remaining_flushes(sim::Time now);
  /// A kill destroyed every flush still in flight: drops them and returns
  /// how many were lost. `cause` is the journal event id of the killing
  /// failure (0 when no journal is attached); each dropped flush journals a
  /// "flush-lost" event billed to it.
  int drop_remaining_flushes(std::uint64_t cause = 0);

  /// Attaches an observability recorder (nullptr detaches). Records
  /// per-rank quiesce / image-write / barrier spans, a job-track span per
  /// completed checkpoint, the "time.ckpt_*" phase counters and the
  /// "quiesce.rounds" histogram.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches a causal journal (nullptr detaches). Appends per-epoch
  /// "ckpt-end" / "ckpt-commit" (per level, with the level's device seconds
  /// as `dur`), "ckpt-write-failed", "ckpt-epoch-abandoned" and the
  /// "flush-launch" / "flush-commit" / "flush-lost" drain events. Levels
  /// appear under their public id (none for the flat store).
  void set_journal(obs::Journal* journal) { journal_ = journal; }

  /// Attaches the fast-forward observation tables (nullptr detaches; not
  /// owned). Only prototype episodes attach one.
  void set_ff_probe(FfProbe* probe) noexcept { ff_probe_ = probe; }

 private:
  /// Max-agreement over the locally observed requested-epoch counter.
  sim::CoTask<int> agree_epoch(simmpi::Endpoint& endpoint, long iteration);

  /// The storage levels an epoch routes to: its blocking writes (the due
  /// cache level, then a synchronous PFS drain; -1 = none) and whether an
  /// async PFS flush launches at publish.
  struct Route {
    int cache = -1;
    int pfs_sync = -1;
    bool flush = false;
  };
  [[nodiscard]] Route route(int epoch) const;

  /// The actual coordinated checkpoint (quiesce, image write, barrier).
  sim::CoTask<void> run_checkpoint(simmpi::Endpoint& endpoint, long iteration,
                                   int epoch);

  /// One rank's image write to storage level `level`: blocking with
  /// retry/backoff, or (forked mode) one background attempt.
  sim::CoTask<void> write_level(simmpi::Endpoint& endpoint, int level,
                                int epoch, util::Bytes image);

  /// Rank 0's post-barrier publish: records the snapshot, commits the
  /// epoch's generations at every due blocking level that wrote (at once,
  /// or once the images drained in forked mode) and launches the async PFS
  /// flush when one is due.
  void publish(long iteration, int epoch, double work_elapsed, Route routed);

  /// Commits `gen` at `level` at engine time `time` (probe record).
  void commit_generation(int level, Generation gen, double time);

  /// Commits pending flush `idx` if its drain has completed (idempotent).
  void commit_flush(std::size_t idx);

  /// Adds one to the per-level counter "ckpt.level<id>.<what>" (no-op
  /// without a recorder, and for the flat store).
  void add_level_metric(int level, const char* what);
  /// Journals one "ckpt-write-failed" event (no-op without a journal).
  void journal_write_failed(int rank, int level, int epoch, int attempt,
                            double device_time);
  /// Journals one "ckpt-commit" event for `level` whose epoch consumed
  /// `device_seconds` of device time (no-op without a journal).
  void journal_commit(int level, int epoch, long iteration,
                      double device_seconds);

  sim::Engine& engine_;
  CkptConfig config_;
  int num_physical_;
  int requested_epochs_ = 0;
  int completed_epochs_ = 0;
  int failed_epochs_ = 0;         // epochs with an exhausted image write
  std::uint64_t write_failures_ = 0;
  std::vector<int> done_epoch_;   // per physical rank
  // Per-(level, rank) image validity for the current epoch and per-level
  // exhausted-retries flags (an exhausted level simply does not commit this
  // epoch; the epoch is abandoned only if *no* due level commits or
  // launches a flush).
  std::vector<std::vector<char>> epoch_level_ok_;
  std::vector<char> epoch_level_exhausted_;
  // Journal accounting: device busy_until() per level snapshotted at epoch
  // entry; the delta at commit is the device seconds the epoch consumed at
  // that level (exact — level writes serialize).
  std::vector<double> epoch_level_busy_;
  std::vector<PendingFlush> pending_flushes_;
  int flushes_completed_ = 0;
  int flushes_lost_ = 0;
  Snapshot snapshot_;
  sim::Time epoch_entry_time_ = 0.0;  // first-rank entry of current epoch
  int entered_count_ = 0;             // ranks inside the current checkpoint
  double total_checkpoint_time_ = 0.0;
  QuiesceStats last_quiesce_;
  obs::Recorder* recorder_ = nullptr;  // optional, not owned
  obs::Journal* journal_ = nullptr;    // optional, not owned
  FfProbe* ff_probe_ = nullptr;        // optional, not owned
};

}  // namespace redcr::ckpt
