// Causal event journal: an append-only, deterministic NDJSON record of
// every causally meaningful event of a job — failures, per-level checkpoint
// commits, flush launches/losses, restart attempts, restores, rework and
// aborts — where each event carries a stable `id` and a `cause` linking it
// to the root fault that triggered it. Unlike the aggregate Registry
// counters, the journal can answer *which* failure a second of waste
// belongs to: every rework/restart/flush-loss event names the sphere-death
// event that caused it, so the analyzer (obs/analyze.hpp) can bill the
// job's entire waste, second by second, to individual root faults.
//
// Enable/disable contract: like the Recorder, components hold a `Journal*`
// that may be null; every append site is one branch, so journal-off runs
// are byte-identical to a build without the journal.
//
// Clock contract: identical to the Recorder's — each executor episode runs
// its own sim::Engine starting at t = 0, and the executor sets the journal
// offset to the job wallclock consumed so far before every episode.
// Components append engine-local timestamps; append() applies the offset.
// Both clocks are simulated, so the journal is a pure function of
// (config, seed): bit-identical across reruns and --jobs levels.
//
// Determinism contract for the NDJSON bytes: one event per line, fields in
// a fixed order, optional fields emitted only when set (sentinel-gated),
// numbers rendered by obs::json::append_number (the bytes of printf's %.0f
// for integral values and %.17g otherwise, produced by std::to_chars —
// exact double round-trip, which is what lets the analyzer reconcile
// attributed waste against the executor's accounting invariant to 1e-6
// *exactly*).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace redcr::obs {

class Journal {
 public:
  /// One journal event. `type` names what happened; the remaining fields
  /// are optional and sentinel-gated (negative ints / negative doubles /
  /// empty strings are "absent" and do not serialize). Producers:
  ///
  ///   job-begin         executor; detail carries the config summary
  ///                     ("interval=...;restart_cost=...;procs=...")
  ///   episode-begin     executor; episode, iteration
  ///   replica-death     injector; episode, rank
  ///   sphere-death      injector; episode, sphere, rank — THE root fault;
  ///                     its id becomes the `cause` of all downstream waste
  ///   sdc-injected      SDC monitor; episode, rank, sphere, detail =
  ///                     "kind=in-flight|at-rest" — the OTHER root-fault
  ///                     kind: an SDC rollback's waste chains to it
  ///   sdc-detected      SDC monitor; episode, rank, cause = the injection;
  ///                     replica voting hit an uncorrectable divergence
  ///   sdc-corrected     SDC monitor (once per strain); episode, rank,
  ///                     cause = the injection; a majority outvoted it
  ///   sdc-undetected    SDC monitor; episode, rank, cause = the injection;
  ///                     a tainted payload passed voting and infected the
  ///                     receiving rank
  ///   ckpt-invalidated  executor (at detection); episode, epoch, level,
  ///                     iteration, cause = the infection that tainted the
  ///                     generation — an unverified checkpoint was erased
  ///   ckpt-commit       controller; episode, epoch, level (-1 = flat),
  ///                     iteration, dur = device seconds this epoch at the
  ///                     level, detail = level kind
  ///   ckpt-end          controller (rank 0, per completed epoch); episode,
  ///                     epoch, dur = checkpoint wallclock span (the c)
  ///   ckpt-write-failed controller; episode, epoch, rank, level, attempt,
  ///                     dur = wasted device seconds
  ///   ckpt-epoch-abandoned controller; episode, epoch, dur = span
  ///   flush-launch      controller; episode, epoch, level, dur = drain
  ///   flush-commit      controller; episode, epoch, level, dur = drain
  ///   flush-lost        controller; episode, epoch, level, cause = killing
  ///                     fault, dur = lost drain seconds
  ///   episode-end       executor; episode, dur = elapsed, sphere (when
  ///                     killed), detail =
  ///                     completed|sphere-death|sdc-detected|aborted
  ///   restart-attempt   executor; episode, attempt, cause, dur = cost
  ///   restart-failed    executor; episode, attempt, cause
  ///   level-defeated    executor; episode, level, cause
  ///   fetch             executor; episode, level, cause, dur = read cost
  ///   restore           executor; episode, level, epoch, iteration,
  ///                     attempt = fallback depth, cause, saved =
  ///                     cumulative useful work the generation preserves
  ///   rework            executor; episode, cause, dur = episode work lost
  ///   abort             executor; episode, cause, attempt, detail = reason
  ///   job-end           executor; dur = wallclock, detail carries the
  ///                     accounting totals ("wallclock=...;useful=...;...")
  struct Event {
    std::uint64_t id = 0;     ///< 1-based, assigned by append()
    std::uint64_t cause = 0;  ///< id of the root sphere-death; 0 = none
    double t = 0.0;           ///< job time, seconds (offset applied)
    std::string type;
    int episode = -1;
    int rank = -1;
    int level = -1;
    int epoch = -1;
    int sphere = -1;
    int attempt = -1;
    long iteration = -1;
    double dur = -1.0;    ///< event-specific duration/cost, seconds
    double saved = -1.0;  ///< event-specific preserved-work, seconds
    std::string detail;
  };

  /// Job-time offset added to `t` at append (see header comment).
  void set_time_offset(double offset) noexcept { offset_ = offset; }
  [[nodiscard]] double time_offset() const noexcept { return offset_; }

  /// Appends `event` (with the offset applied to `t`), assigns the next
  /// event id and returns it — the producer threads it into downstream
  /// events as their `cause`.
  std::uint64_t append(Event event);

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Serializes one event as a single JSON object (no trailing newline),
  /// fields in fixed order: id, t, type, cause?, episode?, rank?, level?,
  /// epoch?, sphere?, attempt?, iteration?, dur?, saved?, detail?.
  static void append_line(std::string& out, const Event& event);

  /// The whole journal, one event per line (NDJSON), deterministic bytes.
  [[nodiscard]] std::string ndjson() const;

 private:
  std::vector<Event> events_;
  double offset_ = 0.0;
};

}  // namespace redcr::obs
