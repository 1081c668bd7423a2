// Fast-forward execution: skip the inter-failure event churn, bit-identically.
//
// In the paper's bookkeeping failure mode, an injected death does not change
// a single simulated message — the injector only marks replicas dead and
// stops the engine when a sphere loses its last one. Every killed episode's
// event stream is therefore an exact time-shifted *prefix* of a
// failure-free run of the same configuration (the prototype): an episode
// resumed at iteration S executes hooks S..total-1, and its k-th hook lands
// at the prototype's k-th hook time. The fast-forward driver exploits this:
//
//  1. It reads the episode's failures from the injector's own
//     FailureSchedule and replays the injector's event walk over them
//     arithmetically (the same delay and poll-granularity float
//     operations, so the kill instant is bit-identical);
//  2. it answers the walk's "in a checkpoint at t?" queries and
//     reconstructs the killed episode's full EpisodeResult — checkpoint
//     charges, the generation commits the prototype recorded before the
//     kill (blocking writes at their close, forked writes and async PFS
//     flushes once drained) replayed with their oracle draws, flush
//     launch/loss bookkeeping, message/event/contention counters — from
//     observation tables (ckpt::FfProbe + stream logs) attached to one
//     lazily-advanced prototype episode per epoch-base congruence class;
//  3. it drops back to the full event engine for any episode the
//     reconstruction cannot cover: the final (completing) episode, any walk
//     query at or past the divergence boundary, and any timestamp tie
//     between an injector event and an application event.
//
// The contract is bit-identical JobReports, accounting invariants and obs
// counters versus ExecMode::kEvent for every supported configuration; the
// differential harness in tests/test_fastforward.cpp enforces it. Whole
// configurations the gate cannot prove safe (live semantics, SDC, attached
// recorder/journal, visible write failures, non-uniform workloads) run on
// the event engine unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/episode_rig.hpp"

namespace redcr::runtime {

class FastForwardDriver {
 public:
  /// `config`, `map` and `factory` must outlive the driver; the factory is
  /// used to build the prototypes' own workload instances so the job's are
  /// never disturbed.
  FastForwardDriver(const JobConfig& config, const red::ReplicaMap& map,
                    const WorkloadFactory& factory);
  ~FastForwardDriver();

  /// Can the whole job, checkpointing into `storage`, run fast-forward?
  /// False means the event engine runs every episode (the driver is not
  /// even built); `reason`, when non-null, receives a one-line explanation
  /// for the explicit-request warning.
  [[nodiscard]] static bool supported(
      const JobConfig& config, const ckpt::StorageHierarchy& storage,
      const std::vector<std::unique_ptr<apps::Workload>>& workloads,
      std::string* reason = nullptr);

  /// Attempts to cover one episode arithmetically. Returns the
  /// reconstructed result — including the generation commits into
  /// `storage` the event engine would have made — or nullopt when the
  /// episode must replay on the event engine (it would complete, a walk
  /// query crossed the divergence boundary, a timestamp tie was detected,
  /// or the prototype is poisoned).
  std::optional<EpisodeResult> try_episode(long start_iteration,
                                           std::uint64_t episode_index,
                                           ckpt::StorageHierarchy& storage,
                                           int epoch_base,
                                           const failure::FaultProcess* faults,
                                           double useful_work_base);

 private:
  struct Prototype;
  Prototype& prototype_for(int klass, const failure::FaultProcess* faults);
  /// Advances the prototype so every event at time <= t has been processed;
  /// false = the prototype is poisoned (deadlock, exception, log overflow).
  bool ensure(Prototype& p, sim::Time t);

  const JobConfig& config_;
  const red::ReplicaMap& map_;
  const WorkloadFactory& factory_;
  /// Failure-schedule oracle (never spawned; schedule() only).
  failure::FailureInjector injector_;
  /// Per-episode scratch: the episode's failure schedule, reused.
  failure::FailureSchedule schedule_;
  /// An empty store of the job's shape; each prototype commits into its own
  /// copy.
  const ckpt::StorageHierarchy pristine_;
  /// Interval-routing period: prototypes are cached per epoch_base %
  /// period_ congruence class (1 for a single routing class, e.g. the flat
  /// store).
  int period_ = 1;
  std::vector<std::unique_ptr<Prototype>> prototypes_;
};

}  // namespace redcr::runtime
