#include "runtime/fastforward.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace redcr::runtime {

namespace {

/// Hard cap on a prototype's engine time log (one entry per event). Landings
/// at or past the event that overflows it fall back to the event engine —
/// correctness is never at stake, only the speedup.
constexpr std::size_t kMaxLogEntries = std::size_t{1} << 24;

/// Prototypes started past iteration 0 that one entry keeps, most recently
/// used first: a job's completing episode and its tail kills read the one
/// started at their own iteration, and jobs of one shape restart from a
/// handful of snapshot iterations.
constexpr std::size_t kMaxResumed = 4;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// The job's shape: its config with the failure process reset to the
/// defaults. The walk reads the failure process per job; no prototype does.
JobConfig shape_of(const JobConfig& config) {
  const JobConfig defaults;
  JobConfig shape = config;
  shape.fail = defaults.fail;
  shape.inject_failures = defaults.inject_failures;
  shape.engine = defaults.engine;
  shape.max_episodes = defaults.max_episodes;
  return shape;
}

/// First-rank entry into boundary `hook`; NaN until the prototype gets there.
double hook_entry(const ckpt::FfProbe& probe, long hook) {
  const auto h = static_cast<std::size_t>(hook);
  return h < probe.hook_entry.size()
             ? probe.hook_entry[h]
             : std::numeric_limits<double>::quiet_NaN();
}

/// Epochs closed strictly before `t`.
std::size_t closes_before(const ckpt::FfProbe& probe, double t) {
  return static_cast<std::size_t>(
      std::lower_bound(probe.closes.begin(), probe.closes.end(), t,
                       [](const ckpt::FfProbe::Close& cl, double v) {
                         return cl.time < v;
                       }) -
      probe.closes.begin());
}

const std::vector<failure::InfectionRecord> kNoInfections;

}  // namespace

/// One failure-free episode from `start_iteration` (no injector), advanced
/// lazily with run_until. Its probe tables and stream logs answer every
/// "state as of instant t" query for the episodes it covers; once finished
/// it is collected, and its result is every completing episode's from
/// `start_iteration`.
struct FastForwardDriver::Prototype {
  long start_iteration = 0;
  int klass = 0;
  std::vector<std::unique_ptr<apps::Workload>> workloads;
  ckpt::StorageHierarchy storage;  // scratch
  ckpt::FfProbe probe;
  std::vector<sim::Time> engine_log;
  std::vector<sim::Time> messages_log;
  std::vector<std::pair<sim::Time, double>> contention_log;
  std::vector<sim::Time> compared_log;
  std::vector<std::vector<sim::Time>> level_write_logs;  // per level
  std::unique_ptr<EpisodeRig> rig;
  bool finished = false;
  sim::Time finish_time = 0.0;
  /// The collected result once finished. Collection settles the async
  /// flushes, so their terminal-drain commits are the probe's last commits.
  EpisodeResult result;
  /// The first instant the prototype cannot answer for: the throwing
  /// event's time, a stalled run's last event, or the event that overflowed
  /// the log; +inf while healthy. Every earlier landing is answered whatever
  /// the prototype ran into later, so no answer depends on how far earlier
  /// jobs advanced it.
  sim::Time poison_time = kInf;

  Prototype(const ckpt::StorageHierarchy& pristine, long start, int k)
      : start_iteration(start), klass(k), storage(pristine) {}
  // The rig holds references into the prototype.
  Prototype(const Prototype&) = delete;
  Prototype& operator=(const Prototype&) = delete;
};

/// The thread's entry: one job shape and every prototype of it. It owns, at
/// stable addresses, everything a prototype rig references.
struct FastForwardDriver::Shape {
  JobConfig config;
  red::ReplicaMap map;
  /// One workload per physical rank; a job shares the entry only if each
  /// of its workloads has the same shape as these.
  std::vector<std::unique_ptr<apps::Workload>> reference;
  /// An empty store of the shape; each prototype commits into its own copy.
  ckpt::StorageHierarchy pristine;
  /// The prototypes' own fault oracle, built under the executor's
  /// condition. A job's oracle dies with the job; the prototypes outlive it.
  std::optional<failure::FaultProcess> faults;
  /// Interval-routing period: prototypes are kept per epoch_base % period
  /// congruence class (1 for a single routing class, e.g. the flat store).
  int period = 1;
  long total_iterations = 0;
  /// Started at iteration 0, one per routing class.
  std::vector<std::unique_ptr<Prototype>> origin;
  /// Started past iteration 0, most recently used first.
  std::vector<std::unique_ptr<Prototype>> resumed;

  Shape(JobConfig shape, const WorkloadFactory& factory)
      : config(std::move(shape)),
        map(config.num_virtual, config.redundancy),
        pristine(make_storage(config, static_cast<int>(map.num_physical()))),
        faults(make_fault_process(config)),
        period(routing_classes(pristine.params())) {
    reference.reserve(map.num_physical());
    for (std::size_t i = 0; i < map.num_physical(); ++i) {
      reference.push_back(
          factory(map.virtual_of(static_cast<red::Rank>(i)),
                  static_cast<int>(map.num_virtual())));
      if (reference.back() == nullptr) {
        reference.clear();  // matches no job, so it is rebuilt for each
        break;
      }
    }
    if (!reference.empty())
      total_iterations = reference.front()->total_iterations();
    origin.resize(static_cast<std::size_t>(std::max(period, 1)));
  }
  // Every prototype rig holds references into the entry.
  Shape(const Shape&) = delete;
  Shape& operator=(const Shape&) = delete;

  [[nodiscard]] bool matches(
      const JobConfig& shape,
      const std::vector<std::unique_ptr<apps::Workload>>& workloads) const {
    if (reference.size() != workloads.size() || !(config == shape))
      return false;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      if (!reference[i]->same_shape(*workloads[i])) return false;
    }
    return true;
  }
};

FastForwardDriver::FastForwardDriver(
    const JobConfig& config, const red::ReplicaMap& map,
    const WorkloadFactory& factory,
    const std::vector<std::unique_ptr<apps::Workload>>& workloads)
    : config_(config),
      map_(map),
      factory_(factory),
      injector_(map, config.fail),
      shape_(shape_for(config, factory, workloads)) {}

FastForwardDriver::~FastForwardDriver() = default;

FastForwardDriver::Shape& FastForwardDriver::shape_for(
    const JobConfig& config, const WorkloadFactory& factory,
    const std::vector<std::unique_ptr<apps::Workload>>& workloads) {
  // One entry per thread, never shared: a prototype's simmpi::Request
  // handles and util::BlockPool lists are single-threaded (DESIGN.md §8).
  thread_local std::unique_ptr<Shape> entry;
  JobConfig shape = shape_of(config);
  if (entry == nullptr || !entry->matches(shape, workloads)) {
    entry.reset();  // free the old shape's prototypes before building
    entry = std::make_unique<Shape>(std::move(shape), factory);
  }
  return *entry;
}

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
        "no failure injection — the job is one completing episode with "
        "nothing to skip, and its prototype would log the whole job");
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

FastForwardDriver::Prototype& FastForwardDriver::prototype(
    long start_iteration, int klass) {
  if (start_iteration == 0) {
    auto& slot = shape_.origin[static_cast<std::size_t>(klass)];
    if (slot == nullptr) slot = build(0, klass);
    return *slot;
  }
  auto& resumed = shape_.resumed;
  const auto it = std::find_if(
      resumed.begin(), resumed.end(), [&](const auto& p) {
        return p->start_iteration == start_iteration && p->klass == klass;
      });
  if (it != resumed.end()) {
    std::rotate(resumed.begin(), it, std::next(it));
  } else {
    if (resumed.size() == kMaxResumed) resumed.pop_back();
    resumed.insert(resumed.begin(), build(start_iteration, klass));
  }
  return *resumed.front();
}

std::unique_ptr<FastForwardDriver::Prototype> FastForwardDriver::build(
    long start_iteration, int klass) const {
  const Shape& s = shape_;
  auto p = std::make_unique<Prototype>(s.pristine, start_iteration, klass);
  p->workloads.reserve(s.map.num_physical());
  for (std::size_t i = 0; i < s.map.num_physical(); ++i) {
    p->workloads.push_back(
        factory_(s.map.virtual_of(static_cast<red::Rank>(i)),
                 static_cast<int>(s.map.num_virtual())));
    if (p->workloads.back() == nullptr) {
      p->poison_time = 0.0;  // cannot run at all
      return p;
    }
    p->workloads.back()->restore(0);
  }

  EpisodeRig::Options opts;
  opts.start_iteration = start_iteration;
  opts.episode_index = 0;
  opts.epoch_base = klass;
  opts.useful_work_base = 0.0;
  opts.inject = false;
  p->rig = std::make_unique<EpisodeRig>(
      s.config, s.map, p->workloads, p->storage,
      s.faults ? &*s.faults : nullptr, kNoInfections, opts);

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
  return p;
}

void FastForwardDriver::advance(Prototype& p, sim::Time t, long stop_hook) {
  if (p.finished || !(t < p.poison_time)) return;
  if (stop_hook >= 0 && !std::isnan(hook_entry(p.probe, stop_hook))) return;
  sim::Engine& engine = p.rig->engine();
  // At t == now() the engine may have stopped at a stop hook with events
  // of that instant still queued; running on to t finishes them.
  if (t < engine.now()) return;
  p.probe.stop_hook = stop_hook;
  engine.clear_stop();
  try {
    engine.run_until(t);
    if (p.rig->episode_completed()) {
      p.finished = true;
      p.finish_time = p.rig->finish_time();
      p.result = p.rig->collect();
      // It never runs again: keep its tables, free its simulated world.
      p.rig.reset();
      p.workloads.clear();
    } else if (!engine.stop_requested() && engine.pending_events() == 0) {
      // Stalled — a simulation deadlock: nothing follows its last event.
      p.poison_time = p.engine_log.empty() ? 0.0 : p.engine_log.back();
    }
  } catch (...) {
    p.poison_time = engine.now();  // the throwing event's instant
  }
  if (p.engine_log.size() > kMaxLogEntries)
    p.poison_time = std::min(p.poison_time, p.engine_log[kMaxLogEntries]);
}

std::optional<EpisodeResult> FastForwardDriver::try_episode(
    long start_iteration, std::uint64_t episode_index,
    ckpt::StorageHierarchy& storage, int epoch_base,
    const failure::FaultProcess* faults, double useful_work_base) {
  const long remaining = shape_.total_iterations - start_iteration;
  if (remaining <= 0 || start_iteration < 0) return std::nullopt;
  const int klass = shape_.period > 1 ? epoch_base % shape_.period : 0;

  // The walk starts on the iteration-0 prototype, shared by every start
  // iteration, at an iteration shift of start_iteration. Its divergence
  // boundary is its first entry into boundary `remaining`, where this
  // episode's ranks finish instead; a landing at or past it moves the walk
  // to the episode's own prototype, started at start_iteration (shift 0),
  // which agrees with it on every earlier instant.
  Prototype* p = &prototype(0, klass);
  long shift = start_iteration;

  enum class Landing { kShared, kAfterFinish, kUnprovable };
  const auto tie = [&p](double t) {
    return std::binary_search(p->engine_log.begin(), p->engine_log.end(), t);
  };
  // One walk landing at t. An exact timestamp tie with an application event
  // is unprovable: the event engine would order the injector against it by
  // sequence number, which the arithmetic walk cannot see. So is a landing
  // at the finish; one past it never happens — the episode completed.
  const auto land = [&](double t) -> Landing {
    if (shift > 0) {
      advance(*p, t, remaining);
      if (!(hook_entry(p->probe, remaining) <= t)) {
        if (!(t < p->poison_time)) return Landing::kUnprovable;
        return tie(t) ? Landing::kUnprovable : Landing::kShared;
      }
      p = &prototype(start_iteration, klass);
      shift = 0;
    }
    advance(*p, t, -1);
    if (!(t < p->poison_time)) return Landing::kUnprovable;
    if (p->finished && t >= p->finish_time)
      return t > p->finish_time ? Landing::kAfterFinish
                                : Landing::kUnprovable;
    return tie(t) ? Landing::kUnprovable : Landing::kShared;
  };

  // Historical in_checkpoint(): with C epochs closed before t, a checkpoint
  // is in progress iff epoch C+1 was entered before t.
  const auto in_ckpt = [&p](double t) -> bool {
    const std::size_t c = closes_before(p->probe, t);
    return p->probe.epoch_entry.size() > c && p->probe.epoch_entry[c] < t;
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
  std::size_t deaths = 0;             // replicas the walk has marked dead
  Landing landing = Landing::kShared;
  for (const failure::Failure& f : failures) {
    if (f.time > t) {
      t = t + (f.time - t);  // exact float replica of schedule_after
      landing = land(t);
      if (landing != Landing::kShared) break;
      ++injector_events;
    }
    if (!config_.fail.inject_during_checkpoint) {
      while (in_ckpt(t)) {
        t = t + kPhasePoll;
        landing = land(t);
        if (landing != Landing::kShared) break;
        ++injector_events;
      }
      if (landing != Landing::kShared) break;
    }
    ++deaths;
  }
  if (landing == Landing::kUnprovable) return std::nullopt;

  // --- Reconstruction: the episode's result, field by field ---------------
  const auto num_physical = static_cast<int>(map_.num_physical());
  const bool completed = landing == Landing::kAfterFinish;
  // A completing episode is its own prototype minus the injector; a killed
  // one ends where the walk does — the last failure completes a sphere
  // (cause 0: no journal under the supported-config gate).
  const double end = completed ? kInf : t;

  EpisodeResult res;
  if (completed) {
    res = p->result;
    res.events += injector_events;
  } else {
    res.finished = false;
    res.failure = failure::JobFailure{t, schedule_.sphere(), 0};
    res.elapsed = t;

    const auto& closes = p->probe.closes;
    const std::size_t c = closes_before(p->probe, t);
    res.checkpoints = static_cast<int>(c);
    res.failed_checkpoints = 0;
    res.write_failures = 0;
    res.wasted_write_time = 0.0;
    const double completed_ckpt =
        c > 0 ? closes[c - 1].total_ckpt_after : 0.0;
    const bool mid_checkpoint =
        p->probe.epoch_entry.size() > c && p->probe.epoch_entry[c] < t;
    res.checkpoint_time =
        completed_ckpt + (mid_checkpoint ? t - p->probe.epoch_entry[c] : 0.0);

    // Async PFS flushes launched before the kill: ready in time committed
    // (the executor's commit_ready_flushes settles even stop-raced ones),
    // still in flight is destroyed by the kill.
    for (const auto& fl : p->probe.flushes) {
      if (!(fl.start < t)) break;
      if (fl.ready <= t) {
        ++res.flushes_completed;
      } else {
        ++res.flushes_lost;
      }
    }
    // The last snapshot published before the kill (a forked publish lands
    // after its close).
    const auto& pubs = p->probe.publishes;
    const auto npub = static_cast<std::size_t>(
        std::lower_bound(pubs.begin(), pubs.end(), t,
                         [](const ckpt::Snapshot& pub, double v) {
                           return pub.completed_at < v;
                         }) -
        pubs.begin());
    if (npub > 0) {
      res.snapshot = pubs[npub - 1];
      res.snapshot.iteration += shift;
    }
    res.level_writes.reserve(p->level_write_logs.size());
    for (const auto& log : p->level_write_logs)
      res.level_writes.push_back(count_before(log, t));
    res.level_write_failures.assign(p->level_write_logs.size(), 0);

    res.messages = count_before(p->messages_log, t);
    res.events = count_before(p->engine_log, t) + injector_events;
    const auto it = std::lower_bound(
        p->contention_log.begin(), p->contention_log.end(), t,
        [](const std::pair<sim::Time, double>& e, double v) {
          return e.first < v;
        });
    res.contention_wait =
        it != p->contention_log.begin() ? std::prev(it)->second : 0.0;
    res.messages_compared = count_before(p->compared_log, t);
  }
  res.dead_ranks.assign(static_cast<std::size_t>(num_physical), 0);
  for (std::size_t i = 0; i < deaths; ++i)
    res.dead_ranks[static_cast<std::size_t>(failures[i].rank)] = 1;
  res.physical_failures = deaths;

  // Generation commits by the episode's end, in commit order: a blocking
  // write commits at its close, a forked write once its images drained, an
  // async flush when its drain landed — and, for a completing episode, the
  // terminal drain's commits last. Oracle draws use the *real* episode
  // coordinates — the scratch prototype's own commits never leave its
  // sandbox — and visible write failures are excluded by the gate, so an
  // image's validity is its latent-corruption draw alone.
  for (const auto& cm : p->probe.commits) {
    if (cm.time > end) break;
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
  return res;
}

}  // namespace redcr::runtime
