#include "failure/injector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace redcr::failure {

SphereMonitor::SphereMonitor(const red::ReplicaMap& map)
    : map_(&map),
      dead_(map.num_physical(), false),
      alive_in_sphere_(map.num_virtual()) {
  for (std::size_t v = 0; v < map.num_virtual(); ++v)
    alive_in_sphere_[v] = map.degree(static_cast<Rank>(v));
}

bool SphereMonitor::mark_dead(Rank physical) {
  if (physical < 0 || static_cast<std::size_t>(physical) >= dead_.size())
    throw std::out_of_range("SphereMonitor::mark_dead: rank out of range");
  auto idx = static_cast<std::size_t>(physical);
  if (dead_[idx]) return false;  // already dead; idempotent
  dead_[idx] = true;
  ++dead_count_;
  const Rank sphere = map_->virtual_of(physical);
  auto& alive = alive_in_sphere_[static_cast<std::size_t>(sphere)];
  assert(alive > 0);
  if (--alive == 0) {
    if (!dead_sphere_) dead_sphere_ = sphere;
    return true;
  }
  return false;
}

bool SphereMonitor::is_dead(Rank physical) const {
  if (physical < 0 || static_cast<std::size_t>(physical) >= dead_.size())
    throw std::out_of_range("SphereMonitor::is_dead: rank out of range");
  return dead_[static_cast<std::size_t>(physical)];
}

bool SphereMonitor::sphere_dead(Rank virtual_rank) const {
  if (virtual_rank < 0 ||
      static_cast<std::size_t>(virtual_rank) >= alive_in_sphere_.size())
    throw std::out_of_range("SphereMonitor::sphere_dead: rank out of range");
  return alive_in_sphere_[static_cast<std::size_t>(virtual_rank)] == 0;
}

void FailureParams::validate() const {
  // !(x > 0) also catches NaN.
  if (!(node_mtbf > 0.0))
    throw std::invalid_argument(
        "redcr::failure::FailureParams: node_mtbf must be > 0 s, got " +
        std::to_string(node_mtbf));
  if (!(weibull_shape > 0.0))
    throw std::invalid_argument(
        "redcr::failure::FailureParams: weibull_shape must be > 0, got " +
        std::to_string(weibull_shape));
}

FailureInjector::FailureInjector(const red::ReplicaMap& map,
                                 FailureParams params)
    : map_(&map), params_(params) {
  params_.validate();
}

std::vector<sim::Time> FailureInjector::draw_failure_times(
    std::uint64_t episode) const {
  std::vector<sim::Time> times;
  draw_failure_times(episode, times);
  return times;
}

void FailureInjector::draw_failure_times(std::uint64_t episode,
                                         std::vector<sim::Time>& times) const {
  util::Xoshiro256ss root(params_.seed);
  util::Xoshiro256ss episode_stream = root.split(episode);
  // Weibull with mean θ: scale λ = θ / Γ(1 + 1/k); draw λ(-ln(1-u))^{1/k}.
  // For k = 1 this is exactly the exponential inverse CDF, and pow is
  // skipped: glibc's pow is accurate to under 1 ULP, so pow(x, 1.0) is x
  // itself and the draws stay bit-identical.
  const double k = params_.weibull_shape;
  const double exponent = 1.0 / k;
  const double scale = params_.node_mtbf / std::tgamma(1.0 + exponent);
  times.resize(map_->num_physical());
  for (std::size_t p = 0; p < times.size(); ++p) {
    // Independent per-node stream: results do not depend on how many draws
    // other nodes consume.
    util::Xoshiro256ss node_stream = episode_stream.split(p);
    const double x = -std::log1p(-node_stream.uniform01());
    times[p] = scale * (exponent == 1.0 ? x : std::pow(x, exponent));
  }
}

void FailureSchedule::build(const red::ReplicaMap& map,
                            std::span<const sim::Time> times) {
  assert(times.size() == map.num_physical());
  // Firing order: by time, equal times by physical rank.
  const auto fires_before = [&](std::size_t a, std::size_t b) {
    return times[a] != times[b] ? times[a] < times[b] : a < b;
  };
  // A sphere dies with its last replica; the job with the first such death.
  std::size_t killer = 0;
  for (std::size_t v = 0; v < map.num_virtual(); ++v) {
    const auto replicas = map.replicas(static_cast<Rank>(v));
    auto last = static_cast<std::size_t>(replicas.front());
    for (const Rank p : replicas.subspan(1)) {
      if (fires_before(last, static_cast<std::size_t>(p)))
        last = static_cast<std::size_t>(p);
    }
    if (v == 0 || fires_before(last, killer)) killer = last;
  }
  failures_.clear();
  for (std::size_t p = 0; p < times.size(); ++p) {
    if (!fires_before(killer, p))
      failures_.push_back(Failure{times[p], static_cast<Rank>(p)});
  }
  std::sort(failures_.begin(), failures_.end(),
            [](const Failure& a, const Failure& b) {
              return a.time != b.time ? a.time < b.time : a.rank < b.rank;
            });
  sphere_ = map.virtual_of(static_cast<Rank>(killer));
}

void FailureInjector::schedule(std::uint64_t episode,
                               std::vector<sim::Time>& times,
                               FailureSchedule& out) const {
  draw_failure_times(episode, times);
  out.build(*map_, times);
}

FailureSchedule FailureInjector::schedule(const red::ReplicaMap& map,
                                          std::span<const sim::Time> times) {
  FailureSchedule out;
  out.build(map, times);
  return out;
}

std::optional<JobFailure> FailureInjector::first_sphere_death(
    const red::ReplicaMap& map, std::span<const sim::Time> times) {
  const FailureSchedule order = schedule(map, times);
  if (order.failures().empty()) return std::nullopt;
  return JobFailure{order.failures().back().time, order.sphere()};
}

sim::Task FailureInjector::run(sim::Engine& engine, SphereMonitor& monitor,
                               std::uint64_t episode,
                               std::function<bool()> protected_phase,
                               std::function<void(JobFailure)> on_job_failure,
                               std::function<void(Rank)> on_replica_death) {
  // Walk the upcoming failures in firing order; the last one kills the job.
  const FailureSchedule order = schedule(*map_, draw_failure_times(episode));

  // Granularity of the "wait for the protected phase to end" poll; far
  // below any checkpoint duration, far above the network timescale.
  constexpr sim::Time kPhasePoll = 0.25;

  for (const Failure& failure : order.failures()) {
    const sim::Time when = failure.time;
    const Rank p = failure.rank;
    if (when > engine.now())
      co_await sim::delay(engine, when - engine.now());
    if (!params_.inject_during_checkpoint && protected_phase) {
      // Paper Section 6 (observation 5): the experiments do not trigger
      // failures while a checkpoint is in progress; defer to phase end.
      const bool deferred = protected_phase();
      while (protected_phase()) co_await sim::delay(engine, kPhasePoll);
      if (deferred && recorder_ != nullptr)
        recorder_->add("failure.deferred");
    }
    const bool sphere_died = monitor.mark_dead(p);
    if (recorder_ != nullptr) {
      recorder_->instant("replica-death", "failure",
                         obs::rank_pid(p), engine.now());
      recorder_->add("failure.replica_deaths");
    }
    if (journal_ != nullptr) {
      obs::Journal::Event ev;
      ev.t = engine.now();
      ev.type = "replica-death";
      ev.episode = static_cast<int>(episode);
      ev.rank = p;
      journal_->append(std::move(ev));
    }
    if (on_replica_death) on_replica_death(p);
    if (sphere_died) {
      const Rank sphere = map_->virtual_of(p);
      if (recorder_ != nullptr) {
        recorder_->instant("sphere-death", "failure", obs::kJobPid,
                           engine.now());
        recorder_->add("failure.sphere_deaths");
      }
      // The root-fault event: its id is the cause everything this failure
      // triggers (restart, rework, lost flushes, abort) is billed to.
      std::uint64_t cause = 0;
      if (journal_ != nullptr) {
        obs::Journal::Event ev;
        ev.t = engine.now();
        ev.type = "sphere-death";
        ev.episode = static_cast<int>(episode);
        ev.rank = p;
        ev.sphere = static_cast<int>(sphere);
        cause = journal_->append(std::move(ev));
      }
      on_job_failure(JobFailure{engine.now(), sphere, cause});
      co_return;  // the job is down; this episode is over
    }
  }
}

}  // namespace redcr::failure
