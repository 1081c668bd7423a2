#include "ckpt/coordinator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "ckpt/hierarchy.hpp"
#include "ckpt/store.hpp"
#include "failure/sdc.hpp"
#include "sim/task.hpp"
#include "util/log.hpp"

namespace redcr::ckpt {

CheckpointController::CheckpointController(sim::Engine& engine,
                                           CkptConfig config, int num_physical)
    : engine_(engine),
      config_(std::move(config)),
      num_physical_(num_physical),
      done_epoch_(static_cast<std::size_t>(num_physical), 0) {
  if (num_physical <= 0)
    throw std::invalid_argument("CheckpointController: empty world");
  if (config_.interval <= 0.0)
    throw std::invalid_argument("CheckpointController: interval must be > 0");
  config_.write_retry.validate("CkptConfig.write_retry");
  if (!config_.enabled) return;
  const StorageHierarchy* hier = config_.hierarchy;
  if (hier == nullptr)
    throw std::invalid_argument(
        "CheckpointController: checkpointing needs a storage hierarchy "
        "(StorageHierarchy::flat for the single-device store)");
  if (static_cast<int>(config_.level_devices.size()) != hier->num_levels()) {
    throw std::invalid_argument(
        "CheckpointController: level_devices must hold one device per "
        "hierarchy level");
  }
  for (const auto* dev : config_.level_devices) {
    if (dev == nullptr)
      throw std::invalid_argument(
          "CheckpointController: null device in level_devices");
  }
  if (config_.forked &&
      (hier->num_levels() != 1 || hier->params().async_flush)) {
    throw std::invalid_argument(
        "CheckpointController: forked checkpointing needs a single storage "
        "level without async flush (the hierarchy's async flush is the "
        "overlapped-drain mechanism)");
  }
}

CheckpointController::~CheckpointController() = default;

void CheckpointController::add_level_metric(int level, const char* what) {
  const int id = config_.hierarchy->public_id(level);
  if (recorder_ == nullptr || id < 0) return;
  recorder_->metrics().add("ckpt.level" + std::to_string(id) + "." + what);
}

void CheckpointController::journal_write_failed(int rank, int level, int epoch,
                                                int attempt,
                                                double device_time) {
  if (journal_ == nullptr) return;
  obs::Journal::Event ev;
  ev.t = engine_.now();
  ev.type = "ckpt-write-failed";
  ev.episode = static_cast<int>(config_.episode);
  ev.rank = rank;
  ev.level = config_.hierarchy->public_id(level);
  ev.epoch = epoch;
  ev.attempt = attempt;
  ev.dur = device_time;
  journal_->append(std::move(ev));
}

void CheckpointController::journal_commit(int level, int epoch, long iteration,
                                          double device_seconds) {
  if (journal_ == nullptr) return;
  const StorageHierarchy& hier = *config_.hierarchy;
  obs::Journal::Event ev;
  ev.t = engine_.now();
  ev.type = "ckpt-commit";
  ev.episode = static_cast<int>(config_.episode);
  ev.level = hier.public_id(level);
  ev.epoch = epoch;
  ev.iteration = iteration;
  ev.dur = device_seconds;
  if (ev.level >= 0) ev.detail = level_kind_name(hier.level(level).params.kind);
  journal_->append(std::move(ev));
}

void CheckpointController::arm() {
  if (!config_.enabled) return;
  engine_.schedule_after(config_.interval, [this] { ++requested_epochs_; });
}

sim::CoTask<int> CheckpointController::agree_epoch(simmpi::Endpoint& endpoint,
                                                   long iteration) {
  const double agreed = co_await quiesce_reduce_max(
      endpoint, static_cast<double>(requested_epochs_),
      static_cast<int>(iteration));
  co_return static_cast<int>(agreed);
}

sim::CoTask<bool> CheckpointController::maybe_checkpoint(
    simmpi::Endpoint& endpoint, long iteration) {
  if (ff_probe_ != nullptr && ff_probe_->record_hook(iteration, engine_.now()))
    engine_.request_stop();
  if (!config_.enabled) co_return false;
  const int epoch = co_await agree_epoch(endpoint, iteration);
  auto& my_done = done_epoch_[static_cast<std::size_t>(endpoint.rank())];
  if (epoch <= my_done) co_return false;
  my_done = epoch;
  co_await run_checkpoint(endpoint, iteration, epoch);
  co_return true;
}

CheckpointController::Route CheckpointController::route(int epoch) const {
  const StorageHierarchy& hier = *config_.hierarchy;
  const int global_epoch = config_.epoch_base + epoch;
  Route r;
  r.cache = hier.cache_level_for(global_epoch);
  if (hier.pfs_due(global_epoch)) {
    if (hier.params().async_flush) {
      r.flush = true;
    } else {
      r.pfs_sync = hier.pfs_level();
    }
  }
  return r;
}

sim::CoTask<void> CheckpointController::run_checkpoint(
    simmpi::Endpoint& endpoint, long iteration, int epoch) {
  // First rank in marks the epoch's entry time and resets the epoch's
  // image-validity state.
  if (entered_count_ == 0) {
    epoch_entry_time_ = engine_.now();
    if (ff_probe_ != nullptr) ff_probe_->epoch_entry.push_back(engine_.now());
    const auto levels =
        static_cast<std::size_t>(config_.hierarchy->num_levels());
    epoch_level_ok_.assign(
        levels, std::vector<char>(static_cast<std::size_t>(num_physical_), 1));
    epoch_level_exhausted_.assign(levels, 0);
    if (journal_ != nullptr) {
      epoch_level_busy_.resize(levels);
      for (std::size_t l = 0; l < levels; ++l)
        epoch_level_busy_[l] = config_.level_devices[l]->busy_until();
    }
  }
  ++entered_count_;
  const int pid = obs::rank_pid(endpoint.rank());
  const sim::Time t_enter = engine_.now();

  // 1. Drain the channels (paper: bookmark exchange before BLCR images).
  // (if/else rather than ?: — GCC 12 miscompiles a conditional expression
  // whose arms are both co_awaits, always taking one branch.)
  if (config_.use_counting_quiesce) {
    last_quiesce_ = co_await counting_quiesce(endpoint);
  } else {
    last_quiesce_ = co_await bookmark_exchange_quiesce(endpoint);
  }
  const sim::Time t_quiesced = engine_.now();
  if (recorder_ != nullptr)
    recorder_->span("quiesce", "ckpt", pid, t_enter, t_quiesced);

  // 2. Write this process's image to the levels the epoch routes to: the
  //    due cache level, plus a blocking PFS drain when one is due and async
  //    flush is off (the async launch happens at rank-0 publish, after the
  //    barrier). Writers serialize on each device, which is what makes `c`
  //    grow with the process count. Incremental mode shrinks every image
  //    after the run's first one. Forked mode pays only the fork pause; the
  //    write drains in the background.
  const util::Bytes image =
      epoch == 1 ? config_.image_bytes
                 : config_.image_bytes * config_.incremental_fraction;
  const Route routed = route(epoch);
  if (routed.cache >= 0)
    co_await write_level(endpoint, routed.cache, epoch, image);
  if (routed.pfs_sync >= 0)
    co_await write_level(endpoint, routed.pfs_sync, epoch, image);
  if (config_.forked) co_await sim::delay(engine_, config_.fork_cost);
  const sim::Time t_written = engine_.now();
  if (recorder_ != nullptr)
    recorder_->span(config_.forked ? "fork" : "image-write", "ckpt", pid,
                    t_quiesced, t_written);

  // 3. Close the checkpoint: in blocking mode nobody may resume before
  //    every image is durable; in forked mode the barrier only synchronizes
  //    the forks (durability is tracked separately at publish).
  co_await quiesce_barrier(endpoint);
  if (recorder_ != nullptr)
    recorder_->span("ckpt-barrier", "ckpt", pid, t_written, engine_.now());

  // 4. Rank 0 publishes the snapshot and re-arms the timer so the next
  //    request fires δ after *completion* (work/checkpoint segments of
  //    length δ + c, as in Eq. 12).
  if (endpoint.rank() == 0) {
    ++completed_epochs_;
    assert(completed_epochs_ == epoch);
    // The epoch is abandoned only when *no* due level can publish: every
    // due blocking level exhausted its retries and no async flush will
    // launch (the flush drains the in-memory image, so it launches even
    // when the cache write failed).
    const auto wrote = [this](int level) {
      return level >= 0 &&
             !epoch_level_exhausted_[static_cast<std::size_t>(level)];
    };
    const bool abandoned =
        !wrote(routed.cache) && !wrote(routed.pfs_sync) && !routed.flush;
    if (abandoned) ++failed_epochs_;
    total_checkpoint_time_ += engine_.now() - epoch_entry_time_;
    const double work_elapsed = engine_.now() - total_checkpoint_time_;
    if (ff_probe_ != nullptr)
      ff_probe_->closes.push_back({total_checkpoint_time_, engine_.now()});
    if (journal_ != nullptr) {
      // Per-epoch closure event: dur is the checkpoint's wallclock span
      // (the paper's c), which the analyzer averages for the model's
      // predicted-waste columns.
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = abandoned ? "ckpt-epoch-abandoned" : "ckpt-end";
      ev.episode = static_cast<int>(config_.episode);
      ev.epoch = epoch;
      ev.iteration = iteration;
      ev.dur = engine_.now() - epoch_entry_time_;
      journal_->append(std::move(ev));
    }
    if (recorder_ != nullptr) {
      // Job-track accounting: rank 0's phase boundaries stand in for the
      // whole collective (every rank leaves each phase within the barrier).
      recorder_->span("checkpoint", "ckpt", obs::kJobPid, epoch_entry_time_,
                      engine_.now());
      obs::Registry& metrics = recorder_->metrics();
      if (abandoned) {
        metrics.add("ckpt.failed_epochs");
        recorder_->instant("ckpt-epoch-abandoned", "ckpt", obs::kJobPid,
                           engine_.now());
      } else {
        metrics.add("ckpt.completed");
      }
      metrics.add("time.ckpt_quiesce", t_quiesced - t_enter);
      metrics.add("time.ckpt_write", t_written - t_quiesced);
      metrics.add("time.ckpt_barrier", engine_.now() - t_written);
      metrics
          .histogram("quiesce.rounds",
                     {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})
          .observe(last_quiesce_.rounds);
    }
    entered_count_ = 0;
    engine_.schedule_after(config_.interval, [this] { ++requested_epochs_; });
    if (!abandoned) publish(iteration, epoch, work_elapsed, routed);
  }
}

sim::CoTask<void> CheckpointController::write_level(
    simmpi::Endpoint& endpoint, int level, int epoch, util::Bytes image) {
  const StorageHierarchy& hier = *config_.hierarchy;
  const LevelParams& lp = hier.level(level).params;
  const int id = hier.public_id(level);
  StableStorage& dev = *config_.level_devices[static_cast<std::size_t>(level)];
  const util::Bytes size = image * lp.write_factor(num_physical_);
  const int pid = obs::rank_pid(endpoint.rank());
  // A forked write is one background attempt: the application has already
  // resumed, so a failure cannot be retried synchronously and degrades to a
  // latently invalid image that restore-time validation rejects.
  const int attempts = config_.forked ? 1 : config_.write_retry.max_attempts;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const double backoff = config_.write_retry.delay_before(attempt);
    if (backoff > 0.0) co_await sim::delay(engine_, backoff);
    // A visibly failed write consumes its device slot but writes nothing
    // durable; the backoff runs inside the checkpoint span, so the wasted
    // time lands in checkpoint_time, where it belongs.
    const bool fails =
        config_.faults != nullptr &&
        config_.faults->level_write_fails(id, lp.write_failure_prob,
                                          config_.episode, epoch,
                                          endpoint.rank(), attempt);
    StableStorage::WriteResult res;
    if (fails) {
      res = dev.charge_failed_write(size);
    } else {
      res.completion = dev.write_completion(size);
    }
    if (!config_.forked)
      co_await sim::delay(engine_, res.completion - engine_.now());
    if (!fails) co_return;
    ++write_failures_;
    if (recorder_ != nullptr) {
      recorder_->instant("ckpt-write-failed", "ckpt", pid, engine_.now());
      recorder_->add("ckpt.write_failures");
      recorder_->add("time.ckpt_wasted_write", res.device_time);
    }
    add_level_metric(level, "write_failures");
    journal_write_failed(endpoint.rank(), level, epoch, attempt,
                         res.device_time);
  }
  epoch_level_ok_[static_cast<std::size_t>(level)]
                 [static_cast<std::size_t>(endpoint.rank())] = 0;
  if (config_.forked) co_return;
  // Retries exhausted: this rank has no durable image at the level, so the
  // level cannot commit this epoch. Still proceed to the barrier
  // (abandoning it here would deadlock the collective).
  epoch_level_exhausted_[static_cast<std::size_t>(level)] = 1;
  if (id < 0) {
    REDCR_LOG_WARN << "ckpt: rank " << endpoint.rank() << " exhausted "
                   << attempts << " write attempts for epoch " << epoch
                   << "; abandoning the epoch";
  } else {
    REDCR_LOG_WARN << "ckpt: rank " << endpoint.rank() << " exhausted "
                   << attempts << " write attempts at level " << id << " ("
                   << level_kind_name(lp.kind) << ") for epoch " << epoch
                   << "; the level skips this epoch";
  }
}

void CheckpointController::commit_generation(int level, Generation gen,
                                             double time) {
  if (ff_probe_ != nullptr)
    ff_probe_->commits.push_back({level, gen.snapshot, time});
  config_.hierarchy->commit(level, std::move(gen));
  add_level_metric(level, "commits");
}

void CheckpointController::publish(long iteration, int epoch,
                                   double work_elapsed, Route routed) {
  StorageHierarchy& hier = *config_.hierarchy;
  Generation gen;
  gen.episode = config_.episode;
  gen.cumulative_useful = config_.useful_work_base + work_elapsed;
  gen.checksum = generation_checksum(config_.episode, epoch, iteration);
  // Verification state is captured now, at the barrier: a forked publish
  // deferred to drain completion, like an async flush committed later,
  // still records the infections live when the images were taken.
  if (config_.sdc != nullptr) gen.infections = config_.sdc->snapshot_infections();

  // The blocking levels that wrote this epoch, with their image validity.
  // Latent corruption is decided now (a pure function of the image
  // coordinates) but only consulted at restore-time validation — per level,
  // each with its own probability and stream.
  struct Written {
    int level;
    std::vector<char> image_ok;
    double entry_busy;  // device horizon at epoch entry (journal only)
  };
  std::vector<Written> written;
  for (const int level : {routed.cache, routed.pfs_sync}) {
    const auto l = static_cast<std::size_t>(level);
    if (level < 0 || epoch_level_exhausted_[l]) continue;
    Written w{level, epoch_level_ok_[l],
              journal_ != nullptr ? epoch_level_busy_[l] : 0.0};
    const LevelParams& lp = hier.level(level).params;
    if (config_.faults != nullptr) {
      for (std::size_t r = 0; r < w.image_ok.size(); ++r) {
        if (config_.faults->level_image_corrupts(
                hier.public_id(level), lp.corruption_prob, config_.episode,
                epoch, static_cast<int>(r)))
          w.image_ok[r] = 0;
      }
    }
    written.push_back(std::move(w));
  }

  auto land = [this, iteration, epoch, work_elapsed, gen, written,
               entry_time = epoch_entry_time_] {
    snapshot_.valid = true;
    snapshot_.iteration = iteration;
    snapshot_.completed_at = engine_.now();
    snapshot_.epoch = epoch;
    snapshot_.work_elapsed = work_elapsed;
    if (ff_probe_ != nullptr) ff_probe_->publishes.push_back(snapshot_);
    for (const Written& w : written) {
      Generation g = gen;
      g.snapshot = snapshot_;
      g.image_ok = w.image_ok;
      commit_generation(w.level, std::move(g), engine_.now());
      // Device seconds this epoch consumed at the level: writes serialize,
      // so the busy-horizon advance beyond max(previous horizon, epoch
      // entry) is exact.
      journal_commit(
          w.level, epoch, iteration,
          std::max(0.0, config_.level_devices[static_cast<std::size_t>(
                                                  w.level)]
                                ->busy_until() -
                            std::max(w.entry_busy, entry_time)));
    }
  };
  if (config_.forked) {
    // The snapshot is restorable only once the slowest background write
    // has drained; a failure before that falls back to the previous one.
    sim::Time durable = engine_.now();
    for (const Written& w : written)
      durable = std::max(
          durable,
          config_.level_devices[static_cast<std::size_t>(w.level)]
              ->busy_until());
    engine_.schedule_at(durable, land);
  } else {
    land();
  }

  if (routed.flush) {
    // Launch the background drain: reserve one serialized device write per
    // rank on the PFS now, overlap it with post-checkpoint useful work, and
    // commit the generation only when the last image lands. Background
    // writes cannot be retried synchronously, so a visible write failure
    // degrades to an invalid image (same semantics as a forked-mode write
    // failure); validity is pre-drawn here — it is a pure function of the
    // image coordinates.
    const int pfs = hier.pfs_level();
    const int id = hier.public_id(pfs);
    const LevelParams& lp = hier.level(pfs).params;
    StableStorage& dev = *config_.level_devices[static_cast<std::size_t>(pfs)];
    const util::Bytes image =
        (epoch == 1 ? config_.image_bytes
                    : config_.image_bytes * config_.incremental_fraction) *
        lp.write_factor(num_physical_);
    std::vector<char> ok(static_cast<std::size_t>(num_physical_), 1);
    sim::Time ready = engine_.now();
    for (int r = 0; r < num_physical_; ++r) {
      const bool wfail =
          config_.faults != nullptr &&
          config_.faults->level_write_fails(id, lp.write_failure_prob,
                                            config_.episode, epoch, r,
                                            /*attempt=*/0);
      if (wfail) {
        const auto res = dev.charge_failed_write(image);
        ready = res.completion;
        ok[static_cast<std::size_t>(r)] = 0;
        ++write_failures_;
        if (recorder_ != nullptr) {
          recorder_->add("ckpt.write_failures");
          add_level_metric(pfs, "write_failures");
          recorder_->add("time.ckpt_wasted_write", res.device_time);
        }
        journal_write_failed(r, pfs, epoch, 0, res.device_time);
      } else {
        ready = dev.write_completion(image);
        if (config_.faults != nullptr &&
            config_.faults->level_image_corrupts(id, lp.corruption_prob,
                                                 config_.episode, epoch, r)) {
          ok[static_cast<std::size_t>(r)] = 0;
        }
      }
    }
    PendingFlush pf;
    pf.start = engine_.now();
    pf.ready_at = ready;
    pf.level = pfs;
    pf.gen = gen;
    pf.gen.snapshot = snapshot_;
    pf.gen.image_ok = std::move(ok);
    if (ff_probe_ != nullptr)
      ff_probe_->flushes.push_back({pf.start, pf.ready_at});
    pending_flushes_.push_back(std::move(pf));
    const std::size_t idx = pending_flushes_.size() - 1;
    if (recorder_ != nullptr) {
      recorder_->instant("flush-launch", "ckpt", obs::kJobPid, engine_.now());
      recorder_->metrics().add("ckpt.flush.launched");
    }
    if (journal_ != nullptr) {
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = "flush-launch";
      ev.episode = static_cast<int>(config_.episode);
      ev.level = id;
      ev.epoch = epoch;
      ev.dur = ready - engine_.now();
      journal_->append(std::move(ev));
    }
    engine_.schedule_at(ready, [this, idx] { commit_flush(idx); });
  }
}

void CheckpointController::commit_flush(std::size_t idx) {
  PendingFlush& pf = pending_flushes_[idx];
  if (pf.committed) return;
  pf.committed = true;
  ++flushes_completed_;
  if (recorder_ != nullptr) {
    recorder_->span("flush", "ckpt", obs::kJobPid, pf.start, pf.ready_at);
    recorder_->metrics().add("ckpt.flush.completed");
  }
  commit_generation(pf.level, pf.gen, pf.ready_at);
  if (journal_ != nullptr) {
    // Timestamped at the drain's completion (ready_at), not engine_.now():
    // terminal drains commit after the engine stopped.
    obs::Journal::Event ev;
    ev.t = pf.ready_at;
    ev.type = "flush-commit";
    ev.episode = static_cast<int>(config_.episode);
    ev.level = config_.hierarchy->public_id(pf.level);
    ev.epoch = pf.gen.snapshot.epoch;
    ev.dur = pf.ready_at - pf.start;
    journal_->append(std::move(ev));
  }
}

void CheckpointController::commit_ready_flushes(sim::Time now) {
  for (std::size_t i = 0; i < pending_flushes_.size(); ++i) {
    if (!pending_flushes_[i].committed && pending_flushes_[i].ready_at <= now)
      commit_flush(i);
  }
}

double CheckpointController::drain_remaining_flushes(sim::Time now) {
  double last = now;
  for (std::size_t i = 0; i < pending_flushes_.size(); ++i) {
    PendingFlush& pf = pending_flushes_[i];
    if (pf.committed) continue;
    last = std::max(last, pf.ready_at);
    commit_flush(i);
  }
  return last - now;
}

int CheckpointController::drop_remaining_flushes(std::uint64_t cause) {
  int lost = 0;
  for (auto& pf : pending_flushes_) {
    if (pf.committed) continue;
    pf.committed = true;  // dropped: the kill destroyed the in-flight images
    ++lost;
    if (journal_ != nullptr) {
      // Billed to the killing failure: the drain seconds this flush had
      // reserved are destroyed along with its images.
      obs::Journal::Event ev;
      ev.t = engine_.now();
      ev.type = "flush-lost";
      ev.cause = cause;
      ev.episode = static_cast<int>(config_.episode);
      ev.level = config_.hierarchy->public_id(pf.level);
      ev.epoch = pf.gen.snapshot.epoch;
      ev.dur = pf.ready_at - pf.start;
      journal_->append(std::move(ev));
    }
  }
  flushes_lost_ += lost;
  if (recorder_ != nullptr && lost > 0) {
    recorder_->metrics().add("ckpt.flush.lost", static_cast<double>(lost));
    recorder_->instant("flush-lost", "ckpt", obs::kJobPid, engine_.now());
  }
  return lost;
}

}  // namespace redcr::ckpt
