#include "runtime/fastforward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace redcr::runtime {

namespace {

/// Hard cap on a prototype's engine time log (one entry per event). A
/// prototype past it is poisoned and its congruence class falls back to the
/// event engine — correctness is never at stake, only the speedup.
constexpr std::size_t kMaxLogEntries = std::size_t{1} << 24;

/// Entries strictly before `t` in a sorted time log.
std::uint64_t count_before(const std::vector<sim::Time>& log, double t) {
  return static_cast<std::uint64_t>(
      std::lower_bound(log.begin(), log.end(), t) - log.begin());
}

/// Interval-routing congruence classes = lcm of the level intervals; 0 past
/// the prototype-count cap (each class pays one full prototype episode).
int routing_classes(const ckpt::HierarchyParams& hierarchy) {
  constexpr long kMaxClasses = 64;
  long period = 1;
  for (const auto& lp : hierarchy.levels) {
    period = std::lcm(period, static_cast<long>(lp.interval));
    if (period > kMaxClasses) return 0;
  }
  return static_cast<int>(period);
}

const std::vector<failure::InfectionRecord> kNoInfections;

}  // namespace

/// One failure-free prototype episode (start_iteration 0, no injector),
/// advanced lazily with run_until and never collected. Its probe tables and
/// stream logs answer every "state as of instant t" query for episodes in
/// its epoch-base congruence class.
struct FastForwardDriver::Prototype {
  std::vector<std::unique_ptr<apps::Workload>> workloads;
  ckpt::StorageHierarchy storage;  // scratch
  ckpt::FfProbe probe;
  std::vector<sim::Time> engine_log;
  std::vector<sim::Time> messages_log;
  std::vector<std::pair<sim::Time, double>> contention_log;
  std::vector<sim::Time> compared_log;
  std::vector<std::vector<sim::Time>> level_write_logs;  // per level
  std::unique_ptr<EpisodeRig> rig;
  long total_iterations = 0;
  bool finished = false;
  bool poisoned = false;
  sim::Time finish_time = 0.0;

  explicit Prototype(const ckpt::StorageHierarchy& pristine)
      : storage(pristine) {}
};

FastForwardDriver::FastForwardDriver(const JobConfig& config,
                                     const red::ReplicaMap& map,
                                     const WorkloadFactory& factory)
    : config_(config),
      map_(map),
      factory_(factory),
      injector_(map, config.fail),
      pristine_(make_storage(config, static_cast<int>(map.num_physical()))),
      period_(routing_classes(pristine_.params())) {
  prototypes_.resize(static_cast<std::size_t>(std::max(period_, 1)));
}

FastForwardDriver::~FastForwardDriver() = default;

bool FastForwardDriver::supported(
    const JobConfig& config, const ckpt::StorageHierarchy& storage,
    const std::vector<std::unique_ptr<apps::Workload>>& workloads,
    std::string* reason) {
  const auto unsupported = [reason](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (!config.inject_failures)
    return unsupported(
        "no failure injection — the episode completes, and completing "
        "episodes always replay on the event engine");
  if (config.live_failure_semantics)
    return unsupported(
        "live failure semantics change message traffic after each death");
  if (config.sdc.enabled())
    return unsupported(
        "the SDC fault model is message-level (voting, infections)");
  if (config.recorder != nullptr || config.journal != nullptr)
    return unsupported(
        "an attached recorder/journal sink consumes per-event output");
  for (int l = 0; l < storage.num_levels(); ++l) {
    if (storage.level(l).params.write_failure_prob != 0.0)
      return unsupported(
          "visible image-write failures perturb per-episode timing");
  }
  if (routing_classes(storage.params()) == 0)
    return unsupported(
        "the hierarchy's interval-routing period exceeds the "
        "prototype-class cap");
  for (const auto& w : workloads) {
    if (w == nullptr || !w->fast_forward_safe())
      return unsupported(
          "a workload's timing is not a pure function of its remaining "
          "iteration count");
  }
  return true;
}

FastForwardDriver::Prototype& FastForwardDriver::prototype_for(
    int klass, const failure::FaultProcess* faults) {
  auto& slot = prototypes_[static_cast<std::size_t>(klass)];
  if (slot != nullptr) return *slot;

  auto p = std::make_unique<Prototype>(pristine_);
  p->workloads.reserve(map_.num_physical());
  for (std::size_t i = 0; i < map_.num_physical(); ++i) {
    const int virtual_rank = map_.virtual_of(static_cast<red::Rank>(i));
    p->workloads.push_back(
        factory_(virtual_rank, static_cast<int>(map_.num_virtual())));
    if (p->workloads.back() == nullptr) {
      p->poisoned = true;
      slot = std::move(p);
      return *slot;
    }
    p->workloads.back()->restore(0);
  }
  p->total_iterations = p->workloads.front()->total_iterations();

  EpisodeRig::Options opts;
  opts.start_iteration = 0;
  opts.episode_index = 0;
  opts.epoch_base = klass;
  opts.useful_work_base = 0.0;
  opts.inject = false;
  p->rig = std::make_unique<EpisodeRig>(config_, map_, p->workloads,
                                        p->storage, faults, kNoInfections,
                                        opts);

  // Attach the observation tables before anything is scheduled.
  p->rig->engine().set_time_log(&p->engine_log);
  p->rig->world().set_messages_log(&p->messages_log);
  p->rig->network().set_contention_log(&p->contention_log);
  p->rig->set_compared_log(&p->compared_log);
  p->level_write_logs.resize(
      static_cast<std::size_t>(p->rig->num_level_devices()));
  for (int l = 0; l < p->rig->num_level_devices(); ++l)
    p->rig->level_device(l).set_write_log(
        &p->level_write_logs[static_cast<std::size_t>(l)]);
  p->rig->controller().set_ff_probe(&p->probe);
  p->rig->start();

  slot = std::move(p);
  return *slot;
}

bool FastForwardDriver::ensure(Prototype& p, sim::Time t) {
  if (p.poisoned) return false;
  if (p.finished) return true;
  sim::Engine& engine = p.rig->engine();
  if (t <= engine.now()) return true;
  try {
    engine.run_until(t);
  } catch (...) {
    p.poisoned = true;
    return false;
  }
  if (p.rig->episode_completed()) {
    p.finished = true;
    p.finish_time = p.rig->finish_time();
  } else if (engine.pending_events() == 0) {
    p.poisoned = true;  // stalled prototype — simulation deadlock
    return false;
  }
  if (p.engine_log.size() > kMaxLogEntries) {
    p.poisoned = true;
    return false;
  }
  return true;
}

std::optional<EpisodeResult> FastForwardDriver::try_episode(
    long start_iteration, std::uint64_t episode_index,
    ckpt::StorageHierarchy& storage, int epoch_base,
    const failure::FaultProcess* faults, double useful_work_base) {
  const int klass =
      period_ > 1 ? epoch_base % period_ : 0;
  Prototype& p = prototype_for(klass, faults);
  if (p.poisoned) return std::nullopt;

  const long total = p.total_iterations;
  const long remaining = total - start_iteration;
  if (remaining <= 0) return std::nullopt;

  // Divergence boundary B: the first prototype instant the episode's event
  // stream stops being a prefix. An episode with R iterations left diverges
  // where the prototype first enters hook R (its ranks run on; the
  // episode's are finishing); a full-length episode diverges only at the
  // prototype's own completion. +inf while the prototype has not reached
  // the boundary yet — every processed instant is then provably shared.
  const auto boundary = [&]() -> double {
    if (remaining < total) {
      const auto r = static_cast<std::size_t>(remaining);
      if (r < p.probe.hook_entry.size() && !std::isnan(p.probe.hook_entry[r]))
        return p.probe.hook_entry[r];
      return std::numeric_limits<double>::infinity();
    }
    return p.finished ? p.finish_time
                      : std::numeric_limits<double>::infinity();
  };

  // One walk landing: advance the prototype through t, reject instants at
  // or past the divergence boundary, and reject exact timestamp ties with
  // any application event (the event engine would order the injector
  // against it by sequence number, which the arithmetic walk cannot see).
  const auto landing_ok = [&](double t) -> bool {
    if (!ensure(p, t)) return false;
    if (t >= boundary()) return false;
    const auto it =
        std::lower_bound(p.engine_log.begin(), p.engine_log.end(), t);
    if (it != p.engine_log.end() && *it == t) return false;
    return true;
  };

  // Historical in_checkpoint(): with C epochs closed before t, a checkpoint
  // is in progress iff epoch C+1 was entered before t.
  const auto in_ckpt = [&](double t) -> bool {
    const auto& closes = p.probe.closes;
    const auto c = static_cast<std::size_t>(
        std::lower_bound(closes.begin(), closes.end(), t,
                         [](const ckpt::FfProbe::Close& cl, double v) {
                           return cl.time < v;
                         }) -
        closes.begin());
    return p.probe.epoch_entry.size() > c && p.probe.epoch_entry[c] < t;
  };

  // --- The injector's event walk, replayed arithmetically -----------------
  // FailureInjector::run's walk over the same schedule, with the same
  // `now + (when - now)` delay landings and 0.25 s protected-phase polls.
  injector_.schedule(episode_index, schedule_);
  const auto failures = schedule_.failures();
  // A death at t = 0 would interleave with the spawn burst by sequence
  // number; the walk cannot reproduce that ordering.
  if (!(failures.front().time > 0.0)) return std::nullopt;

  constexpr sim::Time kPhasePoll = 0.25;  // injector.cpp's poll granularity
  double t = 0.0;
  std::uint64_t injector_events = 1;  // the spawn's resume at t = 0
  for (const failure::Failure& f : failures) {
    if (f.time > t) {
      t = t + (f.time - t);  // exact float replica of schedule_after
      ++injector_events;
      if (!landing_ok(t)) return std::nullopt;
    }
    if (!config_.fail.inject_during_checkpoint) {
      while (in_ckpt(t)) {
        t = t + kPhasePoll;
        ++injector_events;
        if (!landing_ok(t)) return std::nullopt;
      }
    }
  }

  // --- Reconstruction: the killed episode's result, field by field --------
  // The last failure completes a sphere, so the job dies where the walk
  // ends (cause 0: no journal under the supported-config gate).
  const double kill = t;
  const long shift = start_iteration;
  const auto num_physical = static_cast<int>(map_.num_physical());

  EpisodeResult res;
  res.finished = false;
  res.failure = failure::JobFailure{kill, schedule_.sphere(), 0};
  res.elapsed = kill;

  const auto& closes = p.probe.closes;
  const auto c = static_cast<std::size_t>(
      std::lower_bound(closes.begin(), closes.end(), kill,
                       [](const ckpt::FfProbe::Close& cl, double v) {
                         return cl.time < v;
                       }) -
      closes.begin());
  res.checkpoints = static_cast<int>(c);
  res.failed_checkpoints = 0;
  res.write_failures = 0;
  res.wasted_write_time = 0.0;
  const double completed_ckpt = c > 0 ? closes[c - 1].total_ckpt_after : 0.0;
  const bool mid_checkpoint =
      p.probe.epoch_entry.size() > c && p.probe.epoch_entry[c] < kill;
  res.checkpoint_time =
      completed_ckpt +
      (mid_checkpoint ? kill - p.probe.epoch_entry[c] : 0.0);

  // Generation commits before the kill, in commit order: a blocking write
  // commits at its close, a forked write once its images drained, an async
  // flush when its drain landed. Oracle draws use the *real* episode
  // coordinates — the scratch prototype's own commits never leave its
  // sandbox — and visible write failures are excluded by the gate, so an
  // image's validity is its latent-corruption draw alone.
  for (const auto& cm : p.probe.commits) {
    if (cm.time > kill) break;
    ckpt::Generation gen;
    gen.snapshot = cm.snapshot;
    gen.snapshot.iteration += shift;
    gen.episode = episode_index;
    gen.cumulative_useful = useful_work_base + cm.snapshot.work_elapsed;
    gen.image_ok.assign(static_cast<std::size_t>(num_physical), 1);
    gen.checksum = ckpt::generation_checksum(
        episode_index, cm.snapshot.epoch, gen.snapshot.iteration);
    if (faults != nullptr) {
      const double corr = storage.level(cm.level).params.corruption_prob;
      for (int r = 0; r < num_physical; ++r) {
        if (faults->level_image_corrupts(storage.public_id(cm.level), corr,
                                         episode_index, cm.snapshot.epoch, r))
          gen.image_ok[static_cast<std::size_t>(r)] = 0;
      }
    }
    storage.commit(cm.level, std::move(gen));
  }
  // Async PFS flushes launched before the kill: ready in time committed
  // above (the executor's commit_ready_flushes settles even stop-raced
  // ones), still in flight is destroyed by the kill.
  for (const auto& fl : p.probe.flushes) {
    if (!(fl.start < kill)) break;
    if (fl.ready <= kill) {
      ++res.flushes_completed;
    } else {
      ++res.flushes_lost;
    }
  }
  // The last snapshot published before the kill (a forked publish lands
  // after its close).
  const auto& pubs = p.probe.publishes;
  const auto npub = static_cast<std::size_t>(
      std::lower_bound(pubs.begin(), pubs.end(), kill,
                       [](const ckpt::Snapshot& pub, double v) {
                         return pub.completed_at < v;
                       }) -
      pubs.begin());
  if (npub > 0) {
    res.snapshot = pubs[npub - 1];
    res.snapshot.iteration += shift;
  }
  res.dead_ranks.assign(static_cast<std::size_t>(num_physical), 0);
  for (const failure::Failure& f : failures)
    res.dead_ranks[static_cast<std::size_t>(f.rank)] = 1;
  res.level_writes.reserve(p.level_write_logs.size());
  for (const auto& log : p.level_write_logs)
    res.level_writes.push_back(count_before(log, kill));
  res.level_write_failures.assign(p.level_write_logs.size(), 0);

  res.physical_failures = failures.size();
  res.messages = count_before(p.messages_log, kill);
  res.events = count_before(p.engine_log, kill) + injector_events;
  {
    const auto it = std::lower_bound(
        p.contention_log.begin(), p.contention_log.end(), kill,
        [](const std::pair<sim::Time, double>& e, double v) {
          return e.first < v;
        });
    res.contention_wait =
        it != p.contention_log.begin() ? std::prev(it)->second : 0.0;
  }
  res.messages_compared = count_before(p.compared_log, kill);
  return res;
}

}  // namespace redcr::runtime
