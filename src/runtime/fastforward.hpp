// Fast-forward execution: skip the inter-failure event churn, bit-identically.
//
// In the paper's bookkeeping failure mode, an injected death does not change
// a single simulated message — the injector only marks replicas dead and
// stops the engine when a sphere loses its last one. An episode resumed at
// iteration S is therefore, minus its injector, the failure-free episode
// from S (a *prototype*). Up to the instant the iteration-0 prototype first
// enters boundary total - S (where the episode's ranks finish instead) it is
// also a time-shifted prefix of that prototype: its k-th hook lands at the
// iteration-0 prototype's k-th hook time. The fast-forward driver exploits
// both:
//
//  1. It reads the episode's failures from the injector's own
//     FailureSchedule and replays the injector's event walk over them
//     arithmetically (the same delay and poll-granularity float
//     operations, so the kill instant is bit-identical);
//  2. it answers the walk's "in a checkpoint at t?" queries from the
//     iteration-0 prototype of the episode's routing class while the
//     episode is a prefix of it, and from the prototype started at S from
//     that divergence boundary on — each advanced lazily, no further than
//     the walk needs;
//  3. it reconstructs a killed episode's full EpisodeResult — checkpoint
//     charges, the generation commits made before the kill (blocking writes
//     at their close, forked writes and async PFS flushes once drained)
//     replayed with their oracle draws, flush launch/loss bookkeeping,
//     message/event/contention counters — from the observation tables
//     (ckpt::FfProbe + stream logs) of the prototype the walk ended on, and
//     a completing episode's from the collected result of the prototype
//     started at S, plus the walk's injector events and replica deaths;
//  4. it drops back to the full event engine for any episode it cannot
//     prove: a timestamp tie between an injector event and an application
//     event (the kill and the finish included), a death at t = 0, or a
//     landing at or past the instant a prototype stopped being able to
//     answer (exception, stall, log overflow).
//
// Prototypes belong to the thread, not to the job. One entry per thread
// holds every prototype of one job *shape* — the JobConfig minus its failure
// process, plus each rank's workload — so every job of that shape on the
// thread reuses them, and a job of another shape replaces the entry
// (DESIGN.md §14).
//
// The contract is bit-identical JobReports, accounting invariants and obs
// counters versus ExecMode::kEvent for every supported configuration,
// whatever the thread ran before; the differential harness in
// tests/test_fastforward.cpp enforces it. Whole configurations the gate
// cannot prove safe (live semantics, SDC, attached recorder/journal, visible
// write failures, non-uniform workloads, no failure injection) run on the
// event engine unchanged.
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
  /// Binds to the calling thread's prototype entry for the job's shape,
  /// replacing the entry when it holds another shape. `config`, `map`,
  /// `factory` and `workloads` (the job's own, one per physical rank) must
  /// outlive the driver; the factory builds the workloads of any prototype
  /// this job adds, so the job's instances are never disturbed. Those
  /// workloads stay in the entry after the job, so they must not refer to
  /// anything the job owns.
  FastForwardDriver(
      const JobConfig& config, const red::ReplicaMap& map,
      const WorkloadFactory& factory,
      const std::vector<std::unique_ptr<apps::Workload>>& workloads);
  ~FastForwardDriver();

  /// Can the whole job, checkpointing into `storage`, run fast-forward?
  /// False means the event engine runs every episode (the driver is not
  /// even built); `reason`, when non-null, receives a one-line explanation
  /// for the explicit-request warning.
  [[nodiscard]] static bool supported(
      const JobConfig& config, const ckpt::StorageHierarchy& storage,
      const std::vector<std::unique_ptr<apps::Workload>>& workloads,
      std::string* reason = nullptr);

  /// Attempts to cover one episode arithmetically, killed or completing.
  /// Returns the reconstructed result — including the generation commits
  /// into `storage` the event engine would have made — or nullopt when the
  /// episode must replay on the event engine (a timestamp tie, a death at
  /// t = 0, or a landing no prototype can answer).
  std::optional<EpisodeResult> try_episode(long start_iteration,
                                           std::uint64_t episode_index,
                                           ckpt::StorageHierarchy& storage,
                                           int epoch_base,
                                           const failure::FaultProcess* faults,
                                           double useful_work_base);

 private:
  struct Prototype;
  struct Shape;

  /// The calling thread's entry, rebuilt for this job's shape if needed.
  static Shape& shape_for(
      const JobConfig& config, const WorkloadFactory& factory,
      const std::vector<std::unique_ptr<apps::Workload>>& workloads);
  /// The entry's prototype started at `start_iteration` in routing class
  /// `klass`, built and started on first use.
  Prototype& prototype(long start_iteration, int klass);
  std::unique_ptr<Prototype> build(long start_iteration, int klass) const;
  /// Processes every event of `p` at time <= t, stopping early at the first
  /// entry into boundary `stop_hook` (>= 0), or not at all once `p` has
  /// finished or cannot answer t.
  static void advance(Prototype& p, sim::Time t, long stop_hook);

  const JobConfig& config_;
  const red::ReplicaMap& map_;
  const WorkloadFactory& factory_;
  /// Failure-schedule oracle (never spawned; schedule() only).
  failure::FailureInjector injector_;
  /// Per-episode scratch: the episode's failure schedule, reused.
  failure::FailureSchedule schedule_;
  Shape& shape_;
};

}  // namespace redcr::runtime
