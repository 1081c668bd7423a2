#include "failure/injector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/text.hpp"

namespace redcr::failure {

namespace {

/// The rank whose failure completes the first sphere to lose its last
/// replica, with `before` the strict order ranks fail in.
template <class Before>
std::size_t first_sphere_completion(const red::ReplicaMap& map,
                                    const Before& before) {
  std::size_t killer = 0;
  for (std::size_t v = 0; v < map.num_virtual(); ++v) {
    const auto replicas = map.replicas(static_cast<Rank>(v));
    auto last = static_cast<std::size_t>(replicas.front());
    for (const Rank p : replicas.subspan(1)) {
      if (before(last, static_cast<std::size_t>(p)))
        last = static_cast<std::size_t>(p);
    }
    if (v == 0 || before(last, killer)) killer = last;
  }
  return killer;
}

/// Firing order of two failures: by time, equal times by physical rank.
bool fires_first(const Failure& a, const Failure& b) noexcept {
  return a.time != b.time ? a.time < b.time : a.rank < b.rank;
}

}  // namespace

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
        util::shortest(node_mtbf));
  if (!(weibull_shape > 0.0))
    throw std::invalid_argument(
        "redcr::failure::FailureParams: weibull_shape must be > 0, got " +
        util::shortest(weibull_shape));
  // Γ(1 + 1/k) overflows for k below about 0.00586, and θ = inf has no
  // finite scale: every draw would be 0, inf or NaN (0·inf).
  const double scale = FailureLaw::of(*this).scale;
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    char what[192];
    std::snprintf(what, sizeof what,
                  "redcr::failure::FailureParams: weibull_shape %g with "
                  "node_mtbf %g s gives a Weibull scale "
                  "node_mtbf/tgamma(1 + 1/weibull_shape) of %g; it must be "
                  "finite and > 0",
                  weibull_shape, node_mtbf, scale);
    throw std::invalid_argument(what);
  }
}

FailureInjector::FailureInjector(const red::ReplicaMap& map,
                                 FailureParams params)
    : map_(&map), params_(params), law_(FailureLaw::of(params)) {
  params_.validate();
}

util::Xoshiro256ss FailureInjector::episode_stream(
    std::uint64_t episode) const {
  return util::Xoshiro256ss(params_.seed).split(episode);
}

std::vector<sim::Time> FailureInjector::draw_failure_times(
    std::uint64_t episode) const {
  const util::Xoshiro256ss stream = episode_stream(episode);
  std::vector<sim::Time> times(map_->num_physical());
  for (std::size_t p = 0; p < times.size(); ++p)
    times[p] = law_.failure_time(stream.split_uniform01(p));
  return times;
}

void FailureSchedule::build(const red::ReplicaMap& map,
                            std::span<const sim::Time> times) {
  assert(times.size() == map.num_physical());
  // Firing order: by time, equal times by physical rank.
  const auto fires_before = [&](std::size_t a, std::size_t b) {
    return times[a] != times[b] ? times[a] < times[b] : a < b;
  };
  const std::size_t killer = first_sphere_completion(map, fires_before);
  failures_.clear();
  for (std::size_t p = 0; p < times.size(); ++p) {
    if (!fires_before(killer, p))
      failures_.push_back(Failure{times[p], static_cast<Rank>(p)});
  }
  std::sort(failures_.begin(), failures_.end(), fires_first);
  sphere_ = map.virtual_of(static_cast<Rank>(killer));
}

void FailureSchedule::build(const red::ReplicaMap& map, const FailureLaw& law,
                            std::span<const double> uniforms) {
  assert(uniforms.size() == map.num_physical());
  const std::size_t n = uniforms.size();
  // Rank order: by uniform, equal uniforms by physical rank. The law is
  // non-decreasing in u, so this is the firing order up to rounding.
  const auto draws_before = [&](std::size_t a, std::size_t b) {
    return uniforms[a] != uniforms[b] ? uniforms[a] < uniforms[b] : a < b;
  };
  const std::size_t killer = first_sphere_completion(map, draws_before);
  // Transform the ranks at or before the killer; find the first after it.
  failures_.clear();
  std::size_t next = n;
  for (std::size_t p = 0; p < n; ++p) {
    if (!draws_before(killer, p)) {
      failures_.push_back(
          Failure{law.failure_time(uniforms[p]), static_cast<Rank>(p)});
    } else if (next == n || draws_before(p, next)) {
      next = p;
    }
  }
  // Only the killer's sphere lies wholly inside the transformed set. If
  // every rank after it in rank order provably fires strictly after every
  // transformed one, the full build reads exactly these failures. log1p
  // and pow are within a few ULP while their results are normal numbers
  // (the range bound on t_next), and pow scales its input's error by the
  // exponent, so a rank drawn at or after `next` cannot fire before
  // t_next·(1 − 2⁻³²·max(1, 1/k)).
  double limit = std::numeric_limits<double>::infinity();  // one sphere
  bool in_range = true;
  if (next < n) {
    const double t_next = law.failure_time(uniforms[next]);
    limit = t_next * (1.0 - 0x1.0p-32 * std::max(1.0, law.exponent));
    in_range = t_next >= 0x1.0p-1020 * std::max(1.0, law.scale) &&
             t_next <= std::numeric_limits<double>::max();
  }
  // `f.time < limit` is false for NaN, so a NaN time falls back too.
  const bool separated =
      in_range && std::all_of(failures_.begin(), failures_.end(),
                            [&](const Failure& f) { return f.time < limit; });
  if (!separated) {
    ++fallbacks_;
    std::vector<sim::Time> times(n);
    for (std::size_t p = 0; p < n; ++p)
      times[p] = law.failure_time(uniforms[p]);
    build(map, times);
    return;
  }
  // In firing order the job dies with the killer sphere's last member.
  std::sort(failures_.begin(), failures_.end(), fires_first);
  sphere_ = map.virtual_of(static_cast<Rank>(killer));
  std::size_t cut = failures_.size();
  while (map.virtual_of(failures_[cut - 1].rank) != sphere_) --cut;
  failures_.resize(cut);
}

void FailureInjector::schedule(std::uint64_t episode,
                               FailureSchedule& out) const {
  const util::Xoshiro256ss stream = episode_stream(episode);
  out.uniforms_.resize(map_->num_physical());
  for (std::size_t p = 0; p < out.uniforms_.size(); ++p)
    out.uniforms_[p] = stream.split_uniform01(p);
  out.build(*map_, law_, out.uniforms_);
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
  FailureSchedule order;
  schedule(episode, order);

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
