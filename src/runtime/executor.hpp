// JobExecutor: runs a workload to completion under (partial) redundancy,
// coordinated checkpointing and Poisson failure injection — the simulated
// analogue of the paper's experimental campaign (Section 5).
//
// Execution is a sequence of *episodes*. Each episode builds a fresh
// simulation world (the restart relaunches every process), spawns one
// application process per *physical* rank behind a RedComm, arms the
// checkpoint timer and the failure injector, and runs until either every
// rank finishes the workload or a sphere (a virtual process with all
// replicas dead) dies. A sphere death charges the restart cost R and the
// next episode resumes from the last coordinated snapshot's iteration.
//
// Accounting invariant (tested): wallclock == useful_work + checkpoint_time
// + rework_time + restart_time, where useful work is work retained by the
// final state, and rework is work that was redone after failures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "apps/workload.hpp"
#include "ckpt/coordinator.hpp"
#include "ckpt/hierarchy.hpp"
#include "ckpt/store.hpp"
#include "failure/faults.hpp"
#include "failure/injector.hpp"
#include "failure/sdc.hpp"
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "red/red_comm.hpp"
#include "runtime/exec_mode.hpp"
#include "runtime/trace.hpp"

namespace redcr::runtime {

/// Which replication protocol carries the application's traffic.
enum class Replication {
  kPush,  ///< RedMPI-style: every sender replica pushes to every receiver
          ///< replica (the paper's library; supports voting and wildcards)
  kPull,  ///< VolpexMPI-style: receivers pull one copy from one live sender
          ///< replica (availability-oriented; no voting, no wildcards)
};

struct JobConfig {
  /// N: virtual processes.
  std::size_t num_virtual = 128;
  /// r: redundancy degree in [1, 8]; fractional values give partial
  /// redundancy per the paper's partition (Eqs. 5-8).
  double redundancy = 1.0;
  Replication replication = Replication::kPush;
  red::RedConfig red;
  net::NetworkParams network;
  ckpt::StorageParams storage;
  /// Per-process checkpoint image size (drives the emergent cost c).
  util::Bytes image_bytes = 256.0 * 1024 * 1024;
  /// δ: checkpoint interval. Must be > 0 when checkpointing is enabled;
  /// harnesses compute it from Daly's formula (Eq. 15).
  double checkpoint_interval = 0.0;
  bool checkpoint_enabled = true;
  bool use_counting_quiesce = true;
  /// Incremental checkpointing: fraction of the image written after each
  /// episode's first full checkpoint (1.0 = always full, the paper's setup).
  double ckpt_incremental_fraction = 1.0;
  /// Forked checkpointing: image writes drain in the background.
  bool ckpt_forked = false;
  /// R: dead time charged per restart, seconds.
  double restart_cost = 500.0;
  failure::FailureParams fail;
  bool inject_failures = true;
  // --- Unreliable C/R (defaults reproduce the reliable pipeline) ----------
  /// Checkpoint-pipeline fault probabilities (write failure, latent image
  /// corruption, restart failure). All zero by default.
  failure::CkptFaultParams ckpt_faults;
  /// Checkpoint generations retained for fallback (SCR-style). 1 = newest
  /// only, the original behavior.
  int ckpt_retention = 1;
  /// Retry/backoff for visibly failed image writes (blocking mode).
  failure::RetryPolicy ckpt_write_retry;
  /// Multi-level storage hierarchy. Empty = the flat single-device store:
  /// `storage`, `ckpt_retention` and the write-failure/corruption
  /// probabilities of `ckpt_faults` are lowered into one PFS level (see
  /// make_storage). When enabled, those flat settings are ignored for
  /// checkpoint images — each level carries its own device, retention and
  /// probabilities — and `ckpt_forked` must be off (async flush is the
  /// hierarchy's overlapped drain). Restores fetch from the cheapest level
  /// that survived the failure's dead set.
  ckpt::HierarchyParams hierarchy;
  /// Silent-data-corruption fault model (in-flight copy flips + at-rest
  /// rank infections, drawn from the seeded oracle). Disabled by default.
  /// Requires Replication::kPush — detection *is* the push protocol's
  /// replica voting, which the pull protocol does not perform. A dual
  /// sphere detects (uncorrectable mismatch → rollback to the last
  /// *verified* checkpoint), a triple sphere corrects and keeps going, an
  /// unreplicated sphere lets the infection pass silently.
  failure::SdcParams sdc;
  /// Retry/backoff for failed restart phases. Every attempt — including
  /// the first — charges restart_cost; retries additionally pay the
  /// backoff. Exhausting it ends the job in a JobAbort.
  failure::RetryPolicy restart_retry;
  /// Live failure semantics (rMPI-style degradation): survivors stop
  /// exchanging with dead replicas and dead replicas freeze, instead of the
  /// paper's bookkeeping-only injection. Requires checkpoint_enabled ==
  /// false (a frozen rank cannot join the collective quiesce); restart
  /// after a sphere death then replays from iteration 0.
  bool live_failure_semantics = false;
  /// Execution engine. kFastForward/kAuto reconstruct each episode's result
  /// arithmetically from failure-free prototype runs, which every job of the
  /// same shape on a thread shares, and the fault oracle, with a per-episode
  /// fall-back to the event engine whenever message-level semantics could
  /// matter. The contract is bit-identical JobReports and obs counters
  /// versus kEvent for every configuration.
  ExecMode engine = ExecMode::kEvent;
  /// Safety valve: give up after this many episodes (reported as
  /// !completed). A job whose MTBF is far below its checkpoint cost can
  /// otherwise livelock, which is exactly Eq. 14's λ·t_RR ≥ 1 regime.
  int max_episodes = 10000;
  /// Optional observability sink (not owned; must outlive the executor).
  /// When set, the whole stack records into it: phase-time counters that
  /// reproduce the accounting invariant, per-rank checkpoint spans, failure
  /// instants, and traffic/engine counters. All timestamps are simulated
  /// job time, so the recorded output is a pure function of the config.
  obs::Recorder* recorder = nullptr;
  /// Optional causal event journal (not owned; must outlive the executor).
  /// When set, every causally meaningful event — replica/sphere deaths,
  /// per-level checkpoint commits, flush launches/losses, restart attempts,
  /// fetches, restores, rework, aborts — is appended with a stable event id,
  /// and every waste event carries the id of the root sphere-death as its
  /// `cause`, so obs::blame() can bill each second of rework/restart/flush
  /// loss to exactly one fault. Null = off: every instrumentation site is a
  /// single branch and runs stay byte-identical to a journal-free build.
  obs::Journal* journal = nullptr;

  /// Field-wise equality over every member and the parameter structs it
  /// holds, each of which defaults its own operator==. The fast-forward
  /// driver keys its per-thread prototypes on it, so a field added later
  /// takes part in that key automatically. NaN never compares equal, so a
  /// config holding one simply never shares prototypes.
  bool operator==(const JobConfig&) const = default;
};

/// Structured end-of-job outcome when the unreliable C/R pipeline gives up:
/// the job did not complete and *cannot make progress* — either the restart
/// phase kept failing, or no retained checkpoint generation validated.
struct JobAbort {
  enum class Reason {
    kRestartRetriesExhausted,  ///< every restart attempt failed
    kNoValidCheckpoint,        ///< all retained generations failed validation
  };
  Reason reason = Reason::kRestartRetriesExhausted;
  /// Job wallclock at which the abort was declared, seconds.
  double time = 0.0;
  /// Episode whose failure triggered the abort.
  int episode = 0;
  /// Restart attempts paid for the fatal failure.
  int restart_attempts = 0;
  /// One-line human-readable description.
  [[nodiscard]] std::string describe() const;
};

struct JobReport {
  bool completed = false;
  /// Set when the job ended in a structured abort (implies !completed).
  std::optional<JobAbort> abort;
  /// Total wallclock including all restarts, seconds.
  double wallclock = 0.0;
  double useful_work = 0.0;
  double checkpoint_time = 0.0;
  double rework_time = 0.0;
  double restart_time = 0.0;
  int episodes = 0;
  int job_failures = 0;        ///< sphere deaths (= restarts)
  int physical_failures = 0;   ///< replica deaths incl. harmless ones
  int checkpoints = 0;
  std::uint64_t messages = 0;  ///< physical messages injected
  std::uint64_t engine_events = 0;
  std::size_t num_physical = 0;
  double network_contention_wait = 0.0;
  std::uint64_t red_mismatches_detected = 0;
  std::uint64_t red_mismatches_corrected = 0;
  /// Voted deliveries compared across replicas (previously recorded per
  /// comm but silently dropped from the report).
  std::uint64_t red_messages_compared = 0;
  /// Deliveries that surfaced a tainted payload with no observable
  /// divergence (r=1 spheres, or a consistently infected copy set).
  std::uint64_t red_mismatches_undetected = 0;
  // --- Unreliable C/R (all zero under the reliable pipeline) --------------
  int restart_attempts = 0;    ///< restart attempts paid (>= job_failures)
  int failed_restarts = 0;     ///< restart attempts that failed
  int failed_checkpoints = 0;  ///< epochs abandoned after write retries
  int fallback_restores = 0;   ///< restores that fell back past the newest
  std::uint64_t ckpt_write_failures = 0;  ///< image-write attempts that failed
  double wasted_write_time = 0.0;  ///< device seconds burned by failed writes
  // --- Storage hierarchy (all zero/empty for the flat store) --------------
  /// Terminal async-flush drain wallclock: time spent waiting, after the
  /// workload finished, for in-flight PFS drains to land. The accounting
  /// invariant becomes wallclock == useful + checkpoint + rework + restart
  /// + flush.
  double flush_time = 0.0;
  /// Restore-time fetch seconds (read cost at the serving level); a subset
  /// of restart_time, broken out for the cache-vs-PFS cost studies.
  double fetch_time = 0.0;
  int flushes_completed = 0;  ///< async PFS drains that landed
  int flushes_lost = 0;       ///< async PFS drains destroyed by a kill
  /// Per-storage-level lifetime counters (one entry per configured
  /// hierarchy level; the flat store reports none).
  struct LevelReport {
    std::string kind;                 ///< "local", "partner", "xor", "pfs"
    std::uint64_t writes = 0;         ///< successful device writes
    std::uint64_t write_failures = 0; ///< visibly failed write attempts
    std::uint64_t commits = 0;        ///< generations committed
    std::uint64_t fetches = 0;        ///< restores served by this level
    std::uint64_t defeated = 0;       ///< restores that found it destroyed
  };
  std::vector<LevelReport> levels;
  // --- Silent data corruption (all zero when the SDC model is off) --------
  /// Episodes ended by an uncorrectable divergence (each pays a restart and
  /// rolls back to the newest *verified* checkpoint).
  int sdc_rollbacks = 0;
  std::uint64_t sdc_injected = 0;    ///< injections (in-flight + at-rest)
  std::uint64_t sdc_corrected = 0;   ///< deliveries where voting outvoted a strain
  std::uint64_t sdc_undetected = 0;  ///< tainted deliveries that passed voting
  /// Unverified checkpoint generations invalidated at detection time.
  int sdc_invalidated_ckpts = 0;
  /// Summed injection→detection latency across the job's rollbacks.
  double sdc_detection_latency = 0.0;
  /// Rework seconds billed to SDC rollbacks (a subset of rework_time; the
  /// accounting invariant is untouched — SDC waste tiles into rework).
  double sdc_rework = 0.0;
  /// Physical ranks still carrying an undetected infection when the job
  /// completed (> 0 = the result is silently corrupt — the r=1 story).
  std::uint64_t sdc_infected_final = 0;
  /// Per-episode timeline (render with runtime::render_trace).
  std::vector<EpisodeTrace> trace;
  // --- Fast-forward engine diagnostics ------------------------------------
  /// How the fast-forward engine covered the job. These fields are the ONE
  /// exception to the bit-identity contract: they describe the engine, not
  /// the simulated job, and stay all-zero under ExecMode::kEvent (the
  /// differential harness compares everything but this block).
  struct FastForwardStats {
    int episodes_fast = 0;    ///< episodes reconstructed from prototypes,
                              ///< killed and completing alike
    int fallbacks = 0;        ///< episodes replayed on the event engine
                              ///< (plus 1 when the whole config fell back)
    std::uint64_t epochs_skipped = 0;  ///< checkpoint epochs of
                                       ///< reconstructed episodes
    std::uint64_t replay_events = 0;   ///< engine events processed inside
                                       ///< replayed episodes only
  };
  FastForwardStats ff;
};

/// Everything one episode hands back to the job loop. Produced either by the
/// event engine (EpisodeRig) or reconstructed arithmetically by the
/// fast-forward driver — bit-identically, field by field.
struct EpisodeResult {
  bool finished = false;                       // workload ran to completion
  sim::Time elapsed = 0.0;                     // episode wallclock
  double checkpoint_time = 0.0;                // incl. partial at kill
  ckpt::Snapshot snapshot;                     // last durable snapshot
  std::optional<failure::JobFailure> failure;  // set when a sphere died
  int checkpoints = 0;
  int failed_checkpoints = 0;                  // write-exhausted epochs
  std::uint64_t write_failures = 0;
  double wasted_write_time = 0.0;
  std::size_t physical_failures = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  double contention_wait = 0.0;
  std::uint64_t mismatches_detected = 0;
  std::uint64_t mismatches_corrected = 0;
  std::uint64_t messages_compared = 0;
  std::uint64_t mismatches_undetected = 0;
  // --- Silent data corruption ---------------------------------------------
  /// The uncorrectable detection that stopped the episode, if one fired.
  std::optional<failure::SdcDetection> sdc;
  failure::SdcStats sdc_stats;
  /// Ranks still infected when the episode ended (silent infections).
  std::uint64_t sdc_infected_end = 0;
  // --- Storage levels -----------------------------------------------------
  std::vector<char> dead_ranks;       // per physical rank at episode end
  double flush_drain = 0.0;           // terminal drain beyond the finish
  int flushes_completed = 0;
  int flushes_lost = 0;
  std::vector<std::uint64_t> level_writes;          // per level
  std::vector<std::uint64_t> level_write_failures;  // per level
};

/// The job's one checkpoint store: the configured hierarchy, or — with no
/// levels configured — the flat settings lowered to a one-level hierarchy
/// (ckpt::StorageHierarchy::flat) that still looks flat from outside.
/// Forked checkpointing stays a write mode of that level (ckpt_forked
/// reaches the controller through CkptConfig::forked).
[[nodiscard]] ckpt::StorageHierarchy make_storage(const JobConfig& config,
                                                  int num_physical);

/// The job's fault oracle, or none: one exists exactly when the C/R fault
/// probabilities, a hierarchy level's probabilities or the SDC model can
/// draw from it. The hierarchy's per-level probabilities ride the same
/// oracle (and the same seed knob), so a hierarchy with faults needs one even
/// when the flat probabilities are all zero.
[[nodiscard]] std::optional<failure::FaultProcess> make_fault_process(
    const JobConfig& config);

/// Can the checkpoint pipeline itself fail or fall back — C/R fault
/// probabilities, retention beyond one generation, or a configured
/// hierarchy? Fault-pipeline accounting (report lines, restart and restore
/// metrics) is emitted only then, so a reliable run's exports stay
/// byte-identical to the pre-fault pipeline.
[[nodiscard]] bool ckpt_unreliable(const JobConfig& config) noexcept;

/// Creates the per-physical-rank workload instance. Called once per physical
/// rank before the first episode; instances persist across episodes (they
/// carry the application's checkpointed state). Arguments: virtual rank,
/// virtual world size.
using WorkloadFactory =
    std::function<std::unique_ptr<apps::Workload>(int virtual_rank,
                                                  int num_virtual)>;

class JobExecutor {
 public:
  JobExecutor(JobConfig config, WorkloadFactory factory);

  /// Runs the job to completion (or max_episodes) and returns the report.
  JobReport run();

  /// Convenience: measures the failure-free, checkpoint-free execution time
  /// (the paper's Table-5 quantity t_Red as observed).
  static JobReport run_failure_free(JobConfig config, WorkloadFactory factory);

  [[nodiscard]] const red::ReplicaMap& replica_map() const noexcept {
    return map_;
  }

 private:
  EpisodeResult run_episode(long start_iteration, std::uint64_t episode_index,
                            ckpt::StorageHierarchy& storage, int epoch_base,
                            const failure::FaultProcess* faults,
                            double useful_work_base,
                            const std::vector<failure::InfectionRecord>&
                                seed_infections);

  JobConfig config_;
  red::ReplicaMap map_;
  /// Kept (not just consumed) so the fast-forward driver can build its own
  /// prototype workload instances without disturbing the job's.
  WorkloadFactory factory_;
  std::vector<std::unique_ptr<apps::Workload>> workloads_;  // per physical
};

}  // namespace redcr::runtime
