// Failure injection (paper Section 5, first background process).
//
// Each physical node fails as a Poisson process with per-node MTBF θ. Per
// episode (a run from the last checkpoint until completion or job failure),
// the injector draws each node's first failure time from Exp(θ) — valid by
// memorylessness, since a restart relaunches every process on fresh spare
// nodes (assumption 5). The injector runs as a simulated background process:
// it sleeps until each failure instant, marks the physical process dead in
// the sphere monitor, and reports a *job* failure as soon as every replica
// of some virtual process (sphere) is dead — failures of single replicas do
// not interrupt the application (Fig. 7). The walk reads one
// FailureSchedule, and so does the fast-forward driver's replay of it.
//
// Matching the paper's experimental condition, failures are (optionally)
// deferred while a checkpoint is in progress (`protected_phase` hook);
// restart phases happen between episodes, where the injector does not run.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "red/red_comm.hpp"
#include "red/replica_map.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace redcr::failure {

using red::Rank;

struct FailureParams {
  /// θ: per-node MTBF, seconds.
  util::Seconds node_mtbf = util::hours(6);
  /// Root seed; per-node, per-episode streams are derived from it.
  std::uint64_t seed = 42;
  /// If false (paper's experiments), failures landing inside a protected
  /// phase (checkpoint) are deferred to the end of that phase.
  bool inject_during_checkpoint = false;
  /// Weibull shape k of the failure-time distribution, with the scale set
  /// so the mean stays node_mtbf. k = 1 is the paper's exponential
  /// assumption; k < 1 models infant mortality, k > 1 wear-out (the
  /// "other failure distributions" of related work [3]).
  double weibull_shape = 1.0;

  /// Rejects NaN/non-positive MTBF and Weibull shape, and a pair whose
  /// Weibull scale θ/Γ(1 + 1/k) is not finite and > 0 (k below about
  /// 0.00586, where Γ overflows and every draw is 0 or NaN, or an infinite
  /// θ), with a one-line std::invalid_argument naming the offending knob.
  void validate() const;

  bool operator==(const FailureParams&) const = default;
};

/// The inverse CDF every failure time goes through: Weibull with mean θ has
/// scale θ/Γ(1 + 1/k), and a rank with uniform u in [0, 1) first fails at
/// scale·(−ln(1 − u))^(1/k). For k = 1 this is exactly the exponential
/// inverse CDF, and pow is skipped: glibc's pow is accurate to under 1 ULP,
/// so pow(x, 1.0) is x itself and the draws stay bit-identical.
struct FailureLaw {
  double scale = 1.0;     ///< θ/Γ(1 + 1/k), seconds
  double exponent = 1.0;  ///< 1/k

  [[nodiscard]] static FailureLaw of(const FailureParams& params) noexcept {
    const double exponent = 1.0 / params.weibull_shape;
    return {params.node_mtbf / std::tgamma(1.0 + exponent), exponent};
  }

  [[nodiscard]] double failure_time(double u) const noexcept {
    const double x = -std::log1p(-u);
    return scale * (exponent == 1.0 ? x : std::pow(x, exponent));
  }
};

/// Tracks which physical processes are dead and whether any sphere (virtual
/// process) has lost all of its replicas. Implements red::Liveness so the
/// redundancy layer can degrade live traffic around dead replicas.
class SphereMonitor final : public red::Liveness {
 public:
  explicit SphereMonitor(const red::ReplicaMap& map);

  /// Marks a physical process dead; returns true if this killed its sphere.
  bool mark_dead(Rank physical);

  [[nodiscard]] bool is_dead(Rank physical) const override;
  [[nodiscard]] bool sphere_dead(Rank virtual_rank) const;
  [[nodiscard]] std::optional<Rank> first_dead_sphere() const noexcept {
    return dead_sphere_;
  }
  [[nodiscard]] std::size_t dead_processes() const noexcept {
    return dead_count_;
  }

 private:
  const red::ReplicaMap* map_;
  std::vector<bool> dead_;                 // by physical rank
  std::vector<unsigned> alive_in_sphere_;  // by virtual rank
  std::optional<Rank> dead_sphere_;
  std::size_t dead_count_ = 0;
};

/// Outcome reported by the injector when a sphere dies.
struct JobFailure {
  sim::Time time = 0.0;
  Rank sphere = -1;
  /// Journal event id of this failure's "sphere-death" event — the root
  /// fault everything downstream (restart attempts, fetch, rework, lost
  /// flushes, aborts) is attributed to. 0 when no journal is attached.
  std::uint64_t cause = 0;
};

/// One physical process's failure.
struct Failure {
  sim::Time time = 0.0;
  Rank rank = -1;
};

/// An episode's failures in (time, physical rank) order — the injector's
/// firing order — up to and including the first one that completes a
/// sphere. That failure kills the job and ends the walk, so nothing past it
/// is ever read. Built in O(n): one pass takes the minimum over spheres of
/// each sphere's last replica, a second collects the failures at or before
/// it, and only those (a few, when failures are frequent) are sorted.
class FailureSchedule {
 public:
  /// Rebuilds the schedule of `times` (first failure time by physical
  /// rank, one per rank of `map`), reusing this schedule's storage. The
  /// reference build: every rank's time is read.
  void build(const red::ReplicaMap& map, std::span<const sim::Time> times);

  /// Rebuilds the schedule of the times `law` gives `uniforms` (one per
  /// physical rank), transforming only the ranks the walk can read: the
  /// same passes run in (uniform, rank) order, and the ranks at or before
  /// the killer, plus the first one after it, go through `law`. When the
  /// transformed times cannot prove every other rank fires later
  /// (DESIGN.md §14), it falls back to build() over every rank's time. The
  /// result equals that build's bit for bit either way.
  void build(const red::ReplicaMap& map, const FailureLaw& law,
             std::span<const double> uniforms);

  /// The failures in firing order; the last one kills the job. Empty only
  /// before the first build().
  [[nodiscard]] std::span<const Failure> failures() const noexcept {
    return failures_;
  }
  /// The sphere the last failure completes.
  [[nodiscard]] Rank sphere() const noexcept { return sphere_; }
  /// How many uniform builds of this schedule fell back to the full
  /// transform. Tests read it; no report, metric or journal does.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }

 private:
  friend class FailureInjector;  // draws into uniforms_

  std::vector<Failure> failures_;
  std::vector<double> uniforms_;  // FailureInjector::schedule's draws
  Rank sphere_ = -1;
  std::uint64_t fallbacks_ = 0;
};

class FailureInjector {
 public:
  FailureInjector(const red::ReplicaMap& map, FailureParams params);

  /// First failure time of every physical node for the given episode,
  /// indexed by physical rank. Deterministic in (seed, episode): node p's
  /// uniform is the first of stream root.split(episode).split(p), so it does
  /// not depend on how many draws other nodes consume.
  [[nodiscard]] std::vector<sim::Time> draw_failure_times(
      std::uint64_t episode) const;

  /// The episode's failure schedule, equal to the schedule of
  /// draw_failure_times(episode), built from the ranks' uniforms into `out`
  /// (which keeps its storage across calls, so a caller that walks many
  /// episodes allocates once).
  void schedule(std::uint64_t episode, FailureSchedule& out) const;
  /// The schedule of hand-built `times` (indexed by physical rank).
  [[nodiscard]] static FailureSchedule schedule(
      const red::ReplicaMap& map, std::span<const sim::Time> times);

  /// Closed-form episode analysis (no engine needed): the time and sphere
  /// of the job failure implied by `times` — the last failure of their
  /// schedule, so equal death times go to the sphere whose last replica
  /// fires first. Used to cross-check the simulated injector.
  [[nodiscard]] static std::optional<JobFailure> first_sphere_death(
      const red::ReplicaMap& map, std::span<const sim::Time> times);

  /// The background injector process. Marks failures in `monitor` as they
  /// occur; on sphere death invokes `on_job_failure` (which typically stops
  /// the engine). `protected_phase` (may be empty) defers failures while it
  /// returns true, unless params.inject_during_checkpoint is set.
  /// `on_replica_death` (may be empty) fires for *every* death — live
  /// failure semantics hook it to abort pending receives from the corpse.
  [[nodiscard]] sim::Task run(sim::Engine& engine, SphereMonitor& monitor,
                              std::uint64_t episode,
                              std::function<bool()> protected_phase,
                              std::function<void(JobFailure)> on_job_failure,
                              std::function<void(Rank)> on_replica_death = {});

  [[nodiscard]] const FailureParams& params() const noexcept { return params_; }

  /// Attaches an observability recorder (nullptr detaches). Records a
  /// "replica-death" instant on the dying rank's track, a "sphere-death"
  /// instant on the job track, and the "failure.*" counters.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Attaches a causal journal (nullptr detaches). Appends "replica-death"
  /// and "sphere-death" events; the sphere-death event id is threaded into
  /// JobFailure::cause so the executor can attribute downstream waste.
  void set_journal(obs::Journal* journal) { journal_ = journal; }

 private:
  /// root.split(episode), the parent of the episode's per-node streams.
  [[nodiscard]] util::Xoshiro256ss episode_stream(std::uint64_t episode) const;

  const red::ReplicaMap* map_;
  FailureParams params_;
  FailureLaw law_;
  obs::Recorder* recorder_ = nullptr;  // optional, not owned
  obs::Journal* journal_ = nullptr;    // optional, not owned
};

}  // namespace redcr::failure
