// Journal analysis: blame, level efficacy and run-diff.
//
// Consumes the NDJSON produced by obs::Journal and answers the questions
// the aggregate counters cannot:
//
//   blame()          which root fault cost how much — per sphere-death,
//                    the rework / restart / fetch / lost-flush seconds its
//                    cause chain accumulated, ranked by total waste and
//                    reconciled exactly against the executor's accounting
//                    invariant (wallclock == useful + ckpt + rework +
//                    restart + flush, carried by the job-end event);
//   level_efficacy() per storage level, the work saved by restores served
//                    there minus the level's write/flush cost — an
//                    empirical read on the model's per-level recovery
//                    terms;
//   diff()           aligns two journals by event sequence and pinpoints
//                    the first divergent event with its causal context,
//                    turning "outputs differ" into "event #N: restore fell
//                    back to PFS in run B".
//
// Kept dependency-free (obs links only util): the parser here is a small
// purpose-built reader for the flat one-object-per-line journal schema, and
// the model's predicted-waste columns enter through BlameOptions, computed
// by the caller (the CLI wires model::predicted_failure_waste in).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace redcr::obs {

/// Parses journal NDJSON back into events. Accepts exactly what
/// Journal::ndjson emits (flat objects, known keys; unknown keys are
/// ignored for forward compatibility), with LF or CRLF line ends and
/// empty lines skipped. Throws std::runtime_error naming the line on
/// malformed input.
[[nodiscard]] std::vector<Journal::Event> parse_journal(
    const std::string& text);

/// Job-level facts recovered from a journal's job-begin / ckpt-end /
/// job-end events; inputs for the model's predicted-waste columns.
struct JournalSummary {
  double interval = 0.0;      ///< δ from job-begin (0 = unknown)
  double restart_cost = 0.0;  ///< R from job-begin
  double mean_ckpt_cost = 0.0;  ///< mean ckpt-end dur (the observed c)
  int checkpoints = 0;          ///< completed ckpt-end events
  bool has_job_end = false;
  // Accounting totals from job-end (0 when absent):
  double wallclock = 0.0;
  double useful = 0.0;
  double ckpt = 0.0;
  double rework = 0.0;
  double restart = 0.0;
  double flush = 0.0;
};

[[nodiscard]] JournalSummary summarize(
    const std::vector<Journal::Event>& events);

struct BlameOptions {
  /// Root faults listed individually; the rest fold into an "(others)" row.
  int top_k = 10;
  /// Model-predicted per-failure waste (seconds); negative = no model
  /// columns. The caller computes these (e.g. from
  /// model::predicted_failure_waste at the journal's δ, c, R).
  double predicted_rework = -1.0;
  double predicted_restart = -1.0;
};

/// One root fault's attributed waste.
struct BlameEntry {
  std::uint64_t cause = 0;  ///< the root event id (sphere-death/sdc-injected)
  double time = 0.0;        ///< job time of the fault
  int episode = -1;
  int sphere = -1;
  /// True when the root is an SDC injection (detected by replica voting)
  /// rather than a sphere death: its waste chain runs through sdc-detected
  /// → rollback instead of a kill.
  bool sdc = false;
  double rework = 0.0;      ///< Σ rework.dur with this cause
  double restart = 0.0;     ///< Σ restart-attempt.dur with this cause
  double fetch = 0.0;       ///< Σ fetch.dur with this cause
  double flush_lost = 0.0;  ///< Σ flush-lost.dur with this cause (device
                            ///< seconds destroyed; informational — not part
                            ///< of the wallclock tiling)
  /// Wallclock waste this fault is billed for (fetch is a subset of the
  /// executor's restart_time, so it is not added again).
  [[nodiscard]] double total() const noexcept { return rework + restart; }
};

struct BlameReport {
  /// All root faults, sorted by total() descending (ties: by cause id).
  std::vector<BlameEntry> entries;
  JournalSummary summary;
  double attributed_rework = 0.0;   ///< Σ entries.rework
  double attributed_restart = 0.0;  ///< Σ entries.restart
  /// Attributed waste carrying no cause id (should be 0 in a well-formed
  /// journal; surfaced so broken threading is visible, not silent).
  double unattributed = 0.0;
  /// attributed + unattributed - (job-end rework + restart): the
  /// reconciliation against the executor's accounting invariant. The
  /// attribution is exact (the journal carries the executor's own doubles
  /// round-tripped through %.17g), so |residual| must be <= 1e-6.
  double residual = 0.0;
  [[nodiscard]] bool reconciled(double tol = 1e-6) const noexcept {
    return residual <= tol && residual >= -tol;
  }
  /// Human-readable report (top-k rows, totals, reconciliation line and —
  /// when BlameOptions carried model predictions — predicted-vs-attributed
  /// residual columns).
  [[nodiscard]] std::string render(const BlameOptions& options) const;
};

[[nodiscard]] BlameReport blame(const std::vector<Journal::Event>& events);

/// Per-storage-level empirical efficacy.
struct LevelEfficacy {
  int level = -1;    ///< -1 = the flat single-device pipeline
  std::string kind;  ///< "local"/"partner"/"xor"/"pfs" (from ckpt-commit)
  std::uint64_t commits = 0;
  std::uint64_t serves = 0;     ///< restores served by this level
  std::uint64_t defeated = 0;   ///< level-defeated events
  std::uint64_t flushes_lost = 0;
  double write_cost = 0.0;   ///< Σ ckpt-commit.dur (device seconds)
  double flush_cost = 0.0;   ///< Σ flush-commit.dur (drain seconds)
  double lost_cost = 0.0;    ///< Σ flush-lost.dur + failed-write seconds
  double work_saved = 0.0;   ///< Σ restore.saved for restores served here
  [[nodiscard]] double net() const noexcept {
    return work_saved - write_cost - flush_cost - lost_cost;
  }
};

struct EfficacyReport {
  std::vector<LevelEfficacy> levels;  ///< sorted by level index
  [[nodiscard]] std::string render() const;
};

[[nodiscard]] EfficacyReport level_efficacy(
    const std::vector<Journal::Event>& events);

/// First-divergence alignment of two journals.
struct DiffResult {
  bool identical = false;
  /// 0-based index of the first event that differs (or the length of the
  /// shorter journal when one is a strict prefix of the other).
  std::size_t first_divergence = 0;
  std::size_t events_a = 0;
  std::size_t events_b = 0;
  /// Which field diverged first ("missing" when one run ran out of events).
  std::string field;
  /// Human-readable report: the divergent event from both runs plus the
  /// causal context (each side's cause event, when set).
  [[nodiscard]] std::string render(const std::vector<Journal::Event>& a,
                                   const std::vector<Journal::Event>& b) const;
};

[[nodiscard]] DiffResult diff(const std::vector<Journal::Event>& a,
                              const std::vector<Journal::Event>& b);

}  // namespace redcr::obs
