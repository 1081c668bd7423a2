#include "runtime/executor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "runtime/episode_rig.hpp"
#include "runtime/fastforward.hpp"
#include "util/log.hpp"
#include "util/text.hpp"

namespace redcr::runtime {

std::string JobAbort::describe() const {
  const std::string what =
      reason == Reason::kRestartRetriesExhausted
          ? "restart retries exhausted after " +
                std::to_string(restart_attempts) + " attempt(s)"
          : "no retained checkpoint generation passed validation";
  return "job aborted (episode " + std::to_string(episode) + ", wallclock " +
         std::to_string(time) + "s): " + what;
}

ckpt::StorageHierarchy make_storage(const JobConfig& config,
                                    int num_physical) {
  if (config.hierarchy.enabled()) return {config.hierarchy, num_physical};
  ckpt::LevelParams level;
  level.device = config.storage;
  level.retention = config.ckpt_retention;
  level.write_failure_prob = config.ckpt_faults.write_failure_prob;
  level.corruption_prob = config.ckpt_faults.corruption_prob;
  return ckpt::StorageHierarchy::flat(level, num_physical);
}

std::optional<failure::FaultProcess> make_fault_process(
    const JobConfig& config) {
  if (config.ckpt_faults.enabled() || config.hierarchy.any_fault_prob() ||
      config.sdc.enabled())
    return failure::FaultProcess(config.ckpt_faults, config.sdc);
  return std::nullopt;
}

bool ckpt_unreliable(const JobConfig& config) noexcept {
  return config.ckpt_faults.enabled() || config.ckpt_retention > 1 ||
         config.hierarchy.enabled();
}

JobExecutor::JobExecutor(JobConfig config, WorkloadFactory factory)
    : config_(std::move(config)),
      map_(config_.num_virtual, config_.redundancy),
      factory_(std::move(factory)) {
  if (!factory_) throw std::invalid_argument("JobExecutor: null factory");
  const auto require = [](bool ok, const std::string& what, double value) {
    if (!ok)
      throw std::invalid_argument("JobExecutor: " + what + ", got " +
                                  util::shortest(value));
  };
  require(config_.restart_cost >= 0.0 && std::isfinite(config_.restart_cost),
          "restart_cost must be finite and >= 0 s", config_.restart_cost);
  require(config_.image_bytes >= 0.0 && std::isfinite(config_.image_bytes),
          "image_bytes must be finite and >= 0", config_.image_bytes);
  require(config_.ckpt_incremental_fraction > 0.0 &&
              config_.ckpt_incremental_fraction <= 1.0,
          "ckpt_incremental_fraction must be in (0, 1]",
          config_.ckpt_incremental_fraction);
  config_.network.validate();
  config_.fail.validate();
  config_.storage.validate();
  config_.ckpt_faults.validate();
  config_.ckpt_write_retry.validate("JobConfig.ckpt_write_retry");
  config_.restart_retry.validate("JobConfig.restart_retry");
  config_.sdc.validate();
  if (config_.sdc.enabled() && config_.replication != Replication::kPush)
    throw std::invalid_argument(
        "JobExecutor: the SDC fault model requires push replication — "
        "detection is the push protocol's replica voting, which the pull "
        "protocol does not perform");
  if (config_.ckpt_retention < 1)
    throw std::invalid_argument(
        "JobExecutor: ckpt_retention must be >= 1, got " +
        std::to_string(config_.ckpt_retention));
  // NaN fails `> 0` too; inf passes: no checkpoint ever fires.
  if (config_.checkpoint_enabled && !(config_.checkpoint_interval > 0.0))
    throw std::invalid_argument(
        "JobExecutor: checkpointing enabled but the interval is not > 0, "
        "got " + util::shortest(config_.checkpoint_interval) +
        " (compute one with model::daly_interval)");
  if (config_.live_failure_semantics && config_.checkpoint_enabled)
    throw std::invalid_argument(
        "JobExecutor: live failure semantics cannot join the collective "
        "checkpoint quiesce (dead ranks cannot participate) — disable "
        "checkpointing or use the paper's bookkeeping mode");
  if (config_.hierarchy.enabled()) {
    config_.hierarchy.validate(static_cast<int>(map_.num_physical()));
    if (!config_.checkpoint_enabled)
      throw std::invalid_argument(
          "JobExecutor: a storage hierarchy requires checkpointing enabled "
          "(there is nothing to store otherwise)");
    if (config_.ckpt_forked)
      throw std::invalid_argument(
          "JobExecutor: forked checkpointing is incompatible with a storage "
          "hierarchy — use the hierarchy's async flush for overlapped "
          "drains instead");
  }
  workloads_.reserve(map_.num_physical());
  for (std::size_t p = 0; p < map_.num_physical(); ++p) {
    const int virtual_rank = map_.virtual_of(static_cast<red::Rank>(p));
    workloads_.push_back(
        factory_(virtual_rank, static_cast<int>(map_.num_virtual())));
    if (!workloads_.back())
      throw std::invalid_argument("JobExecutor: factory returned null");
  }
}

EpisodeResult JobExecutor::run_episode(
    long start_iteration, std::uint64_t episode_index,
    ckpt::StorageHierarchy& storage, int epoch_base,
    const failure::FaultProcess* faults,
    double useful_work_base,
    const std::vector<failure::InfectionRecord>& seed_infections) {
  EpisodeRig::Options opts;
  opts.start_iteration = start_iteration;
  opts.episode_index = episode_index;
  opts.epoch_base = epoch_base;
  opts.useful_work_base = useful_work_base;
  opts.inject = config_.inject_failures;
  opts.recorder = config_.recorder;
  opts.journal = config_.journal;
  EpisodeRig rig(config_, map_, workloads_, storage, faults, seed_infections,
                 opts);
  rig.start();
  rig.run();
  return rig.collect();
}


JobReport JobExecutor::run() {
  JobReport report;
  report.num_physical = map_.num_physical();

  // Unreliable-C/R state lives at job scope: checkpoint generations persist
  // across episodes in the one store, and one fault oracle is shared by the
  // controller and the restart loop. With the default config (no faults,
  // retention 1) everything below reproduces the reliable pipeline bit for
  // bit; the fault-pipeline metrics are gated on `unreliable` so
  // reliable-mode exports are unchanged byte for byte as well (an SDC
  // rollback restores through the same fallback walk, so it counts too).
  ckpt::StorageHierarchy storage =
      make_storage(config_, static_cast<int>(map_.num_physical()));
  const std::optional<failure::FaultProcess> fault_process =
      make_fault_process(config_);
  const failure::FaultProcess* faults =
      fault_process ? &*fault_process : nullptr;
  const bool unreliable = ckpt_unreliable(config_) || config_.sdc.enabled();

  // Fast-forward engine selection. kAuto quietly runs the event engine for
  // configurations the driver cannot prove bit-identical; an explicit
  // kFastForward request gets a warning naming the reason. Either way the
  // whole-config fallback is visible as report.ff.fallbacks >= 1.
  std::unique_ptr<FastForwardDriver> ff;
  if (config_.engine != ExecMode::kEvent) {
    std::string reason;
    if (FastForwardDriver::supported(config_, storage, workloads_, &reason)) {
      ff = std::make_unique<FastForwardDriver>(config_, map_, factory_,
                                               workloads_);
    } else {
      report.ff.fallbacks = 1;
      if (config_.engine == ExecMode::kFastForward) {
        REDCR_LOG_WARN << "job: fast-forward engine requested but the "
                          "configuration is not coverable ("
                       << reason << ") — running the event engine";
      }
    }
  }

  // Populates the per-level lifetime counters (none for the flat store);
  // called at every return.
  int epoch_base = 0;
  std::vector<std::uint64_t> level_writes_total(
      static_cast<std::size_t>(storage.num_levels()), 0);
  std::vector<std::uint64_t> level_wfail_total(level_writes_total.size(), 0);
  auto finalize_levels = [&](JobReport& r) {
    if (storage.is_flat()) return;
    r.levels.resize(static_cast<std::size_t>(storage.num_levels()));
    for (int l = 0; l < storage.num_levels(); ++l) {
      auto& out = r.levels[static_cast<std::size_t>(l)];
      const auto& lvl = storage.level(l);
      out.kind = ckpt::level_kind_name(lvl.params.kind);
      out.writes = level_writes_total[static_cast<std::size_t>(l)];
      out.write_failures = level_wfail_total[static_cast<std::size_t>(l)];
      out.commits = lvl.store.commits();
      out.fetches = lvl.fetches;
      out.defeated = lvl.defeated;
    }
  };

  obs::Recorder* rec = config_.recorder;
  if (rec != nullptr) {
    rec->trace().set_track_name(obs::kJobPid, "job");
    for (std::size_t p = 0; p < map_.num_physical(); ++p)
      rec->trace().set_track_name(obs::rank_pid(static_cast<int>(p)),
                                  "rank " + std::to_string(p));
  }

  obs::Journal* jnl = config_.journal;
  // Appends the terminal job-end event: the executor's accounting totals,
  // rendered with the journal's exact number formatting so the analyzer's
  // blame reconciliation is an equality check, not a re-derivation.
  auto journal_job_end = [&](const JobReport& r) {
    if (jnl == nullptr) return;
    jnl->set_time_offset(0.0);
    obs::Journal::Event ev;
    ev.type = "job-end";
    ev.t = r.wallclock;
    ev.dur = r.wallclock;
    std::string d = "outcome=";
    d += r.completed ? "completed" : (r.abort ? "aborted" : "gave-up");
    const auto kv = [&d](const char* key, double value) {
      d += ';';
      d += key;
      d += '=';
      obs::json::append_number(d, value);
    };
    kv("wallclock", r.wallclock);
    kv("useful", r.useful_work);
    kv("ckpt", r.checkpoint_time);
    kv("rework", r.rework_time);
    kv("restart", r.restart_time);
    kv("flush", r.flush_time);
    ev.detail = std::move(d);
    jnl->append(ev);
  };
  if (jnl != nullptr) {
    jnl->set_time_offset(0.0);
    obs::Journal::Event ev;
    ev.type = "job-begin";
    ev.t = 0.0;
    std::string d;
    const auto kv = [&d](const char* key, double value) {
      if (!d.empty()) d += ';';
      d += key;
      d += '=';
      obs::json::append_number(d, value);
    };
    kv("procs", static_cast<double>(map_.num_physical()));
    kv("virtual", static_cast<double>(map_.num_virtual()));
    kv("redundancy", config_.redundancy);
    kv("interval",
       config_.checkpoint_enabled ? config_.checkpoint_interval : 0.0);
    kv("restart_cost", config_.restart_cost);
    kv("levels", storage.is_flat() ? 0.0
                                : static_cast<double>(storage.num_levels()));
    ev.detail = std::move(d);
    jnl->append(ev);
  }

  long start_iteration = 0;
  // Infections recorded inside the generation the previous restart restored:
  // an *unverified* image resurrects them in the next episode's monitor.
  std::vector<failure::InfectionRecord> seed_infections;
  for (int episode = 0; episode < config_.max_episodes; ++episode) {
    for (auto& workload : workloads_) workload->restore(start_iteration);
    // Episode engines restart at t = 0; job time resumes where the previous
    // episode (plus its restart gap) left off.
    if (rec != nullptr) rec->set_time_offset(report.wallclock);
    if (jnl != nullptr) {
      jnl->set_time_offset(report.wallclock);
      obs::Journal::Event ev;
      ev.type = "episode-begin";
      ev.t = 0.0;  // episode-local; the offset places it at job time
      ev.episode = episode;
      ev.iteration = start_iteration;
      jnl->append(ev);
    }
    REDCR_LOG_INFO << "job: episode " << episode << " begin at wallclock "
                   << report.wallclock << "s, iteration " << start_iteration;
    std::optional<EpisodeResult> ff_res;
    if (ff != nullptr)
      ff_res = ff->try_episode(start_iteration,
                               static_cast<std::uint64_t>(episode), storage,
                               epoch_base, faults, report.useful_work);
    const EpisodeResult res =
        ff_res ? std::move(*ff_res)
               : run_episode(start_iteration,
                             static_cast<std::uint64_t>(episode), storage,
                             epoch_base, faults, report.useful_work,
                             seed_infections);
    // A reconstructed episode, killed or completing, counts as fast; only
    // an episode the event engine replayed counts as a fallback.
    if (ff != nullptr) {
      if (ff_res) {
        ++report.ff.episodes_fast;
        report.ff.epochs_skipped +=
            static_cast<std::uint64_t>(res.checkpoints);
      } else {
        ++report.ff.fallbacks;
        report.ff.replay_events += res.events;
      }
    }
    epoch_base += res.checkpoints + res.failed_checkpoints;
    for (std::size_t l = 0; l < level_writes_total.size(); ++l) {
      level_writes_total[l] += res.level_writes[l];
      level_wfail_total[l] += res.level_write_failures[l];
    }
    report.flush_time += res.flush_drain;
    report.flushes_completed += res.flushes_completed;
    report.flushes_lost += res.flushes_lost;

    EpisodeTrace ep;
    ep.index = episode;
    ep.start_wallclock = report.wallclock;
    ep.elapsed = res.elapsed;
    ep.start_iteration = start_iteration;
    ep.snapshot_iteration =
        res.snapshot.valid ? res.snapshot.iteration : start_iteration;
    ep.checkpoints = res.checkpoints;
    ep.replica_deaths = static_cast<int>(res.physical_failures);
    ep.end = res.finished  ? EpisodeTrace::End::kCompleted
             : res.failure ? EpisodeTrace::End::kSphereDeath
             : res.sdc     ? EpisodeTrace::End::kSdcRollback
                           : EpisodeTrace::End::kAbandoned;
    if (res.failure) ep.dead_sphere = res.failure->sphere;
    ep.flushes_lost = res.flushes_lost;
    report.trace.push_back(ep);

    // An SDC rollback's waste events all chain to the *injection* event —
    // the rollback's true root cause — exactly as a sphere death's chain to
    // the kill.
    const std::uint64_t cause = res.failure ? res.failure->cause
                                : res.sdc   ? res.sdc->injection_event
                                            : 0;
    if (jnl != nullptr) {
      obs::Journal::Event ev;
      ev.type = "episode-end";
      ev.t = res.elapsed;
      ev.cause = cause;
      ev.episode = episode;
      ev.dur = res.elapsed;
      if (res.failure) ev.sphere = res.failure->sphere;
      ev.detail = res.finished    ? "completed"
                  : res.failure   ? "sphere-death"
                                  : "sdc-detected";
      jnl->append(ev);
    }

    // An uncorrectable detection invalidates every *unverified* generation:
    // images committed after the (then-undetected) injection hold corrupt
    // state, so recovery must fall back past them (Aupy et al.'s two-level
    // recovery). Each invalidation is billed to the infection that tainted
    // the generation.
    if (res.sdc) {
      const auto removed = storage.invalidate_unverified();
      const int invalidated = static_cast<int>(removed.size());
      for (const auto& [level, gen] : removed) {
        if (jnl == nullptr) break;
        obs::Journal::Event ev;
        ev.type = "ckpt-invalidated";
        ev.t = res.elapsed;
        ev.cause =
            gen.infections.empty() ? cause : gen.infections.front().cause;
        ev.episode = episode;
        ev.level = storage.public_id(level);
        ev.epoch = gen.snapshot.epoch;
        ev.iteration = gen.snapshot.iteration;
        jnl->append(ev);
      }
      report.sdc_invalidated_ckpts += invalidated;
      report.trace.back().sdc_invalidated = invalidated;
      if (rec != nullptr && invalidated > 0) {
        rec->metrics().add("ckpt.invalidated",
                           static_cast<double>(invalidated));
        rec->instant("ckpt-invalidated", "ckpt", obs::kJobPid, res.elapsed);
      }
      if (invalidated > 0) {
        REDCR_LOG_WARN << "job: SDC detection invalidated " << invalidated
                       << " unverified checkpoint generation(s)";
      }
    }

    ++report.episodes;
    report.checkpoints += res.checkpoints;
    report.failed_checkpoints += res.failed_checkpoints;
    report.ckpt_write_failures += res.write_failures;
    report.wasted_write_time += res.wasted_write_time;
    report.physical_failures += static_cast<int>(res.physical_failures);
    report.messages += res.messages;
    report.engine_events += res.events;
    report.network_contention_wait += res.contention_wait;
    report.red_mismatches_detected += res.mismatches_detected;
    report.red_mismatches_corrected += res.mismatches_corrected;
    report.red_messages_compared += res.messages_compared;
    report.red_mismatches_undetected += res.mismatches_undetected;
    report.sdc_injected +=
        res.sdc_stats.injected_inflight + res.sdc_stats.injected_atrest;
    report.sdc_corrected += res.sdc_stats.corrected_deliveries;
    report.sdc_undetected += res.sdc_stats.undetected_deliveries;

    // The terminal flush drain is wallclock but neither work nor checkpoint
    // time — it gets its own accounting bucket (flush_time, above).
    const double work_this_episode =
        res.elapsed - res.checkpoint_time - res.flush_drain;
    report.checkpoint_time += res.checkpoint_time;
    if (rec != nullptr && res.flush_drain > 0.0)
      rec->add("time.flush", res.flush_drain);
    if (rec != nullptr) {
      // The episode span is recorded episode-locally ([0, elapsed]); the
      // offset set above places it at its job-time position.
      rec->span("episode " + std::to_string(episode), "episode", obs::kJobPid,
                0.0, res.elapsed);
      obs::Registry& metrics = rec->metrics();
      metrics.add("job.episodes");
      metrics.add("time.checkpoint", res.checkpoint_time);
      metrics
          .histogram("episode.elapsed",
                     {60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0,
                      43200.0})
          .observe(res.elapsed);
    }

    if (res.finished) {
      // Every work second of the final episode survives into the result.
      report.wallclock += res.elapsed;
      report.useful_work += work_this_episode;
      report.completed = true;
      report.sdc_infected_final = res.sdc_infected_end;
      if (res.sdc_infected_end > 0) {
        REDCR_LOG_WARN << "job: completed with " << res.sdc_infected_end
                       << " rank(s) still carrying an undetected infection — "
                          "the result is silently corrupt";
      }
      if (rec != nullptr) rec->add("time.useful_work", work_this_episode);
      REDCR_LOG_INFO << "job: episode " << episode
                     << " completed the workload after " << res.elapsed
                     << "s (" << res.checkpoints << " checkpoints, "
                     << res.physical_failures << " replica deaths)";
      finalize_levels(report);
      journal_job_end(report);
      return report;
    }

    // Sphere death or SDC rollback: pay the restart (with retries under
    // unreliable C/R) and resume from the newest checkpoint generation that
    // validates. The restart-failure draw index spans both kinds, so an
    // SDC-free run's sphere-death stream is untouched by the SDC knobs.
    if (res.failure) {
      ++report.job_failures;
    } else {
      ++report.sdc_rollbacks;
      report.sdc_detection_latency += res.sdc->latency;
    }
    const auto restart_index = static_cast<std::uint64_t>(
        report.job_failures + report.sdc_rollbacks - 1);
    bool restarted = false;
    int attempts = 0;
    double span_begin = res.elapsed;  // episode-local time for the recorder
    // The killed episode's elapsed time is charged together with the first
    // attempt as one `elapsed + cost` addition — the reliable pipeline's
    // historical association, which keeps its exports bit-identical.
    double pending = res.elapsed;
    while (attempts < config_.restart_retry.max_attempts) {
      const double cost = config_.restart_retry.delay_before(attempts) +
                          config_.restart_cost;
      report.wallclock += pending + cost;
      pending = 0.0;
      report.restart_time += cost;
      const bool failed =
          faults != nullptr && faults->restart_fails(restart_index, attempts);
      ++attempts;
      if (rec != nullptr) {
        // Every attempt is its own "restart" span so the restart spans keep
        // tiling time.restart exactly, retries and backoff included.
        rec->span("restart", "restart", obs::kJobPid, span_begin,
                  span_begin + cost);
        rec->add("time.restart", cost);
        if (unreliable) rec->add("restart.attempts");
      }
      if (jnl != nullptr) {
        obs::Journal::Event ev;
        ev.type = "restart-attempt";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.attempt = attempts;
        ev.dur = cost;
        jnl->append(ev);
      }
      span_begin += cost;
      if (!failed) {
        restarted = true;
        break;
      }
      ++report.failed_restarts;
      if (rec != nullptr) {
        rec->instant("restart-failed", "restart", obs::kJobPid, span_begin);
        rec->add("restart.failures");
      }
      if (jnl != nullptr) {
        obs::Journal::Event ev;
        ev.type = "restart-failed";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.attempt = attempts;
        jnl->append(ev);
      }
      REDCR_LOG_WARN << "job: restart attempt " << attempts
                     << " after episode " << episode << " failed";
    }
    report.restart_attempts += attempts;
    report.trace.back().restart_attempts = attempts;

    if (!restarted) {
      // Every restart attempt failed: structured abort. The episode's work
      // is lost (rework); the attempts were already charged to restart.
      report.rework_time += work_this_episode;
      JobAbort abort;
      abort.reason = JobAbort::Reason::kRestartRetriesExhausted;
      abort.time = report.wallclock;
      abort.episode = episode;
      abort.restart_attempts = attempts;
      report.abort = abort;
      report.trace.back().end = EpisodeTrace::End::kAborted;
      if (rec != nullptr) {
        rec->add("time.rework", work_this_episode);
        rec->add("job.aborts");
        rec->instant("job-abort", "restart", obs::kJobPid, span_begin);
      }
      if (jnl != nullptr) {
        obs::Journal::Event rw;
        rw.type = "rework";
        rw.t = span_begin;
        rw.cause = cause;
        rw.episode = episode;
        rw.dur = work_this_episode;
        jnl->append(rw);
        obs::Journal::Event ev;
        ev.type = "abort";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.attempt = attempts;
        ev.detail = "restart-retries-exhausted";
        jnl->append(ev);
      }
      REDCR_LOG_WARN << "job: " << abort.describe();
      finalize_levels(report);
      journal_job_end(report);
      return report;
    }

    // Restart-time validation: fetch from the cheapest level that survived
    // the failure's dead set and restore the newest generation there whose
    // image set validates, falling back to N-1, N-2, ... past corrupt ones.
    // The flat store is a lone PFS level no failure destroys. Levels the
    // failure destroyed are dropped inside fetch(); surviving cache levels
    // persist across the relaunch (SCR's scavenge/rebuild), so an early
    // kill in the next episode can still restore from them.
    const ckpt::StorageHierarchy::FetchResult restore =
        storage.fetch(res.dead_ranks, config_.image_bytes);
    const double fetch_seconds = restore.fetch_seconds;
    // Journal/trace id of the serving level (-1: none, or the flat store).
    const int restore_level =
        restore.found ? storage.public_id(restore.level) : -1;
    if (jnl != nullptr) {
      for (const int defeated : restore.defeated_levels) {
        obs::Journal::Event ev;
        ev.type = "level-defeated";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.level = storage.public_id(defeated);
        jnl->append(ev);
      }
    }
    if (restore_level >= 0) {
      report.trace.back().restore_level = restore_level;
      if (rec != nullptr) {
        rec->metrics().add("restore.level" + std::to_string(restore_level) +
                           ".serves");
      }
      REDCR_LOG_INFO << "job: restore served by level " << restore_level
                     << " (" << restore.levels_defeated
                     << " level(s) destroyed by the failure)";
    }
    if (restore.found && fetch_seconds > 0.0) {
      // Charge the serving level's read cost: wallclock the restart pays on
      // top of the flat restart cost R (which models relaunch, not I/O).
      report.wallclock += fetch_seconds;
      report.restart_time += fetch_seconds;
      report.fetch_time += fetch_seconds;
      if (rec != nullptr) {
        rec->span("fetch", "restart", obs::kJobPid, span_begin,
                  span_begin + fetch_seconds);
        rec->add("time.restart", fetch_seconds);
        rec->add("restart.fetch_seconds", fetch_seconds);
      }
      if (jnl != nullptr) {
        obs::Journal::Event ev;
        ev.type = "fetch";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.level = restore_level;
        ev.dur = fetch_seconds;
        jnl->append(ev);
      }
      span_begin += fetch_seconds;
    }
    if (!restore.found && restore.had_generations) {
      // Every retained generation failed validation: nothing to restart
      // from. (With no generations at all we restart from scratch instead —
      // nothing was ever checkpointed, so nothing was lost.)
      report.rework_time += work_this_episode;
      JobAbort abort;
      abort.reason = JobAbort::Reason::kNoValidCheckpoint;
      abort.time = report.wallclock;
      abort.episode = episode;
      abort.restart_attempts = attempts;
      report.abort = abort;
      report.trace.back().end = EpisodeTrace::End::kAborted;
      if (rec != nullptr) {
        rec->add("time.rework", work_this_episode);
        rec->add("job.aborts");
        rec->instant("job-abort", "restart", obs::kJobPid, span_begin);
      }
      if (jnl != nullptr) {
        obs::Journal::Event rw;
        rw.type = "rework";
        rw.t = span_begin;
        rw.cause = cause;
        rw.episode = episode;
        rw.dur = work_this_episode;
        jnl->append(rw);
        obs::Journal::Event ev;
        ev.type = "abort";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.attempt = attempts;
        ev.detail = "no-valid-checkpoint";
        jnl->append(ev);
      }
      REDCR_LOG_WARN << "job: " << abort.describe();
      finalize_levels(report);
      journal_job_end(report);
      return report;
    }

    double credit = 0.0;
    double excess = 0.0;
    if (restore.found) {
      const ckpt::Generation& gen = restore.generation;
      start_iteration = gen.snapshot.iteration;
      // Keep the trace's "restart point" truthful under fallback (equal to
      // the episode snapshot in the reliable pipeline).
      report.trace.back().snapshot_iteration = start_iteration;
      // The job's credited useful work snaps to what the generation banked:
      // work this episode up to its snapshot is newly credited, and work
      // credited beyond a fallen-back generation moves back to rework. A
      // same-episode generation credits its snapshot's in-episode work
      // directly (not `cumulative - useful_work`, whose rounding would
      // perturb the reliable pipeline's bit-identical sums).
      if (gen.episode == static_cast<std::uint64_t>(episode)) {
        credit = gen.snapshot.work_elapsed;
      } else {
        excess = std::max(0.0, report.useful_work - gen.cumulative_useful);
      }
      report.trace.back().fallback_depth = restore.fallback_depth;
      if (restore.fallback_depth > 0) {
        ++report.fallback_restores;
        if (rec != nullptr)
          rec->instant("fallback-restore", "restart", obs::kJobPid,
                       span_begin);
        REDCR_LOG_WARN << "job: newest checkpoint failed validation; fell "
                          "back "
                       << restore.fallback_depth << " generation(s) to epoch "
                       << gen.snapshot.epoch << " (episode " << gen.episode
                       << ", checksum " << gen.checksum << "), discarding "
                       << excess << "s of credited work";
      }
      if (rec != nullptr && unreliable) {
        rec->metrics()
            .histogram("restore.fallback_depth", {0.0, 1.0, 2.0, 4.0, 8.0})
            .observe(restore.fallback_depth);
        if (excess > 0.0) rec->add("restore.invalidated_work", excess);
      }
      if (jnl != nullptr) {
        obs::Journal::Event ev;
        ev.type = "restore";
        ev.t = span_begin;
        ev.cause = cause;
        ev.episode = episode;
        ev.level = restore_level;
        ev.epoch = gen.snapshot.epoch;
        ev.iteration = start_iteration;
        ev.attempt = restore.fallback_depth;
        ev.saved = gen.cumulative_useful;
        jnl->append(ev);
      }
    } else if (res.sdc) {
      // Nothing restorable survived the invalidation: the infection may
      // predate every retained image, so the job restarts from scratch and
      // every second credited so far is reclaimed as rework — billed to the
      // injection through this episode's cause chain.
      start_iteration = 0;
      excess = report.useful_work;
      report.trace.back().snapshot_iteration = 0;
      REDCR_LOG_WARN << "job: no verified checkpoint survived the SDC "
                        "rollback; restarting from scratch and reclaiming "
                     << excess << "s of credited work";
    }
    // The restored generation's recorded infections (empty for a verified
    // one) seed the next episode's monitor: restoring an unverified image
    // resurrects its infections.
    seed_infections = restore.found
                          ? restore.generation.infections
                          : std::vector<failure::InfectionRecord>{};
    // Without any usable generation the next episode restarts from the same
    // iteration as this one did, and everything this episode did is rework.
    report.useful_work += credit - excess;
    report.rework_time += work_this_episode - credit + excess;
    if (res.sdc && !res.failure)
      report.sdc_rework += work_this_episode - credit + excess;
    if (rec != nullptr) {
      obs::Registry& metrics = rec->metrics();
      metrics.add("time.useful_work", credit - excess);
      metrics.add("time.rework", work_this_episode - credit + excess);
    }
    if (jnl != nullptr) {
      // The failure's rework bill: this episode's work minus what the
      // restored generation banked (plus credited work a fallback
      // invalidated). Emitted even at 0 so blame sums stay an exact tiling
      // of the executor's rework_time.
      obs::Journal::Event ev;
      ev.type = "rework";
      ev.t = span_begin;
      ev.cause = cause;
      ev.episode = episode;
      ev.dur = work_this_episode - credit + excess;
      jnl->append(ev);
    }
    REDCR_LOG_INFO << "job: episode " << episode << " killed at "
                   << res.elapsed << "s"
                   << (res.failure
                           ? " (sphere " +
                                 std::to_string(res.failure->sphere) + " died)"
                       : res.sdc ? std::string(" (SDC detected at rank " +
                                               std::to_string(res.sdc->rank) +
                                               ")")
                                 : std::string())
                   << "; restarting from iteration " << start_iteration;
  }
  REDCR_LOG_WARN << "job: gave up after " << config_.max_episodes
                 << " episodes without completing";
  finalize_levels(report);
  journal_job_end(report);
  return report;  // completed == false: gave up after max_episodes
}

JobReport JobExecutor::run_failure_free(JobConfig config,
                                        WorkloadFactory factory) {
  config.inject_failures = false;
  config.checkpoint_enabled = false;
  JobExecutor executor(std::move(config), std::move(factory));
  return executor.run();
}

}  // namespace redcr::runtime
