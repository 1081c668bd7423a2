#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/flatjson.hpp"

namespace redcr::obs {

namespace {

/// Journal field mapping over the shared flat-NDJSON tokenizer
/// (obs/flatjson.hpp). Unknown numeric keys are ignored (forward
/// compatibility).
void parse_event_line(std::string_view line, std::size_t lineno,
                      Journal::Event& event) {
  FlatLineParser parser(line, lineno, "journal");
  parser.parse_object([&](const std::string& key) {
    if (key == "type") {
      event.type = parser.parse_string();
    } else if (key == "detail") {
      event.detail = parser.parse_string();
    } else {
      const double v = parser.parse_number();
      if (key == "id") {
        event.id = static_cast<std::uint64_t>(v);
      } else if (key == "cause") {
        event.cause = static_cast<std::uint64_t>(v);
      } else if (key == "t") {
        event.t = v;
      } else if (key == "episode") {
        event.episode = static_cast<int>(v);
      } else if (key == "rank") {
        event.rank = static_cast<int>(v);
      } else if (key == "level") {
        event.level = static_cast<int>(v);
      } else if (key == "epoch") {
        event.epoch = static_cast<int>(v);
      } else if (key == "sphere") {
        event.sphere = static_cast<int>(v);
      } else if (key == "attempt") {
        event.attempt = static_cast<int>(v);
      } else if (key == "iteration") {
        event.iteration = static_cast<long>(v);
      } else if (key == "dur") {
        event.dur = v;
      } else if (key == "saved") {
        event.saved = v;
      }
    }
  });
}

/// Reads "key=value;key=value" detail payloads (job-begin / job-end).
double detail_number(const std::string& detail, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while (pos < detail.size()) {
    std::size_t end = detail.find(';', pos);
    if (end == std::string::npos) end = detail.size();
    if (detail.compare(pos, needle.size(), needle) == 0)
      return std::atof(detail.c_str() + pos + needle.size());
    pos = end + 1;
  }
  return 0.0;
}

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  out += buf;
}

std::string level_label(int level) {
  return level < 0 ? std::string("flat") : "level " + std::to_string(level);
}

}  // namespace

std::vector<Journal::Event> parse_journal(const std::string& text) {
  std::vector<Journal::Event> events;
  for_each_line(text, [&](std::string_view line, std::size_t lineno) {
    Journal::Event event;
    parse_event_line(line, lineno, event);
    if (event.type.empty())
      throw std::runtime_error("journal parse error at line " +
                               std::to_string(lineno) + ": event has no type");
    events.push_back(std::move(event));
  });
  return events;
}

JournalSummary summarize(const std::vector<Journal::Event>& events) {
  JournalSummary s;
  double ckpt_dur = 0.0;
  for (const Journal::Event& e : events) {
    if (e.type == "job-begin") {
      s.interval = detail_number(e.detail, "interval");
      s.restart_cost = detail_number(e.detail, "restart_cost");
    } else if (e.type == "ckpt-end") {
      ++s.checkpoints;
      if (e.dur >= 0.0) ckpt_dur += e.dur;
    } else if (e.type == "job-end") {
      s.has_job_end = true;
      s.wallclock = detail_number(e.detail, "wallclock");
      s.useful = detail_number(e.detail, "useful");
      s.ckpt = detail_number(e.detail, "ckpt");
      s.rework = detail_number(e.detail, "rework");
      s.restart = detail_number(e.detail, "restart");
      s.flush = detail_number(e.detail, "flush");
    }
  }
  if (s.checkpoints > 0) s.mean_ckpt_cost = ckpt_dur / s.checkpoints;
  return s;
}

BlameReport blame(const std::vector<Journal::Event>& events) {
  BlameReport report;
  report.summary = summarize(events);

  // Root faults first (so waste with an unknown cause is visible as
  // unattributed instead of silently minting an entry).
  std::map<std::uint64_t, BlameEntry> by_cause;
  for (const Journal::Event& e : events) {
    // Two root-fault kinds: a sphere death (kill) and an SDC injection
    // (detected later by replica voting; its rollback's rework/restart
    // chain to the injection id). A corrected or still-silent injection
    // simply accumulates zero waste.
    if (e.type != "sphere-death" && e.type != "sdc-injected") continue;
    BlameEntry entry;
    entry.cause = e.id;
    entry.time = e.t;
    entry.episode = e.episode;
    entry.sphere = e.sphere;
    entry.sdc = e.type == "sdc-injected";
    by_cause.emplace(e.id, entry);
  }
  for (const Journal::Event& e : events) {
    const double dur = e.dur >= 0.0 ? e.dur : 0.0;
    double BlameEntry::*bucket = nullptr;
    if (e.type == "rework") {
      bucket = &BlameEntry::rework;
    } else if (e.type == "restart-attempt") {
      bucket = &BlameEntry::restart;
    } else if (e.type == "fetch") {
      bucket = &BlameEntry::fetch;
    } else if (e.type == "flush-lost") {
      bucket = &BlameEntry::flush_lost;
    } else {
      continue;
    }
    const auto it = by_cause.find(e.cause);
    if (e.cause == 0 || it == by_cause.end()) {
      if (bucket == &BlameEntry::rework || bucket == &BlameEntry::restart)
        report.unattributed += dur;
      continue;
    }
    it->second.*bucket += dur;
  }

  report.entries.reserve(by_cause.size());
  for (auto& [id, entry] : by_cause) {
    // fetch seconds are part of the executor's restart_time; bill them
    // under restart so the per-cause totals tile the invariant.
    entry.restart += entry.fetch;
    report.attributed_rework += entry.rework;
    report.attributed_restart += entry.restart;
    report.entries.push_back(entry);
  }
  std::sort(report.entries.begin(), report.entries.end(),
            [](const BlameEntry& a, const BlameEntry& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.cause < b.cause;
            });
  if (report.summary.has_job_end) {
    report.residual = report.attributed_rework + report.attributed_restart +
                      report.unattributed -
                      (report.summary.rework + report.summary.restart);
  }
  return report;
}

std::string BlameReport::render(const BlameOptions& options) const {
  std::string out;
  appendf(out, "blame report — %zu root fault(s)\n", entries.size());
  out += "  rank     cause      t[s]  ep  sphere   rework[s]  restart[s]  "
         "fetch[s]  flush-lost[s]    total[s]\n";
  const std::size_t shown =
      options.top_k < 0 ? entries.size()
                        : std::min<std::size_t>(
                              entries.size(),
                              static_cast<std::size_t>(options.top_k));
  for (std::size_t i = 0; i < shown; ++i) {
    const BlameEntry& e = entries[i];
    appendf(out, "  %4zu  %8llu  %8.1f  %2d  %6d  %10.3f  %10.3f  %8.3f  "
                 "%13.3f  %10.3f%s\n",
            i + 1, static_cast<unsigned long long>(e.cause), e.time, e.episode,
            e.sphere, e.rework, e.restart, e.fetch, e.flush_lost, e.total(),
            e.sdc ? "  [sdc]" : "");
  }
  if (shown < entries.size()) {
    double rework = 0.0, restart = 0.0, fetch = 0.0, lost = 0.0;
    for (std::size_t i = shown; i < entries.size(); ++i) {
      rework += entries[i].rework;
      restart += entries[i].restart;
      fetch += entries[i].fetch;
      lost += entries[i].flush_lost;
    }
    appendf(out, "  (+%zu more)                          %10.3f  %10.3f  "
                 "%8.3f  %13.3f  %10.3f\n",
            entries.size() - shown, rework, restart, fetch, lost,
            rework + restart);
  }
  appendf(out, "attributed waste: rework %.6f s + restart %.6f s = %.6f s",
          attributed_rework, attributed_restart,
          attributed_rework + attributed_restart);
  if (unattributed > 0.0) appendf(out, " (+%.6f s unattributed)", unattributed);
  out += '\n';
  if (summary.has_job_end) {
    appendf(out,
            "executor invariant: wallclock %.6f = useful %.6f + ckpt %.6f + "
            "rework %.6f + restart %.6f + flush %.6f\n",
            summary.wallclock, summary.useful, summary.ckpt, summary.rework,
            summary.restart, summary.flush);
    appendf(out, "reconciliation: attributed - executor = %.9g s (%s)\n",
            residual, reconciled() ? "reconciled" : "NOT RECONCILED");
  } else {
    out += "reconciliation: no job-end event (truncated journal?)\n";
  }
  if (options.predicted_rework >= 0.0 && options.predicted_restart >= 0.0 &&
      !entries.empty()) {
    const double n = static_cast<double>(entries.size());
    const double mean_rework = attributed_rework / n;
    const double mean_restart = attributed_restart / n;
    appendf(out,
            "model: predicted per-failure rework %.3f s, restart %.3f s; "
            "attributed mean rework %.3f s, restart %.3f s; residual "
            "rework %+.3f s, restart %+.3f s\n",
            options.predicted_rework, options.predicted_restart, mean_rework,
            mean_restart, mean_rework - options.predicted_rework,
            mean_restart - options.predicted_restart);
  }
  return out;
}

EfficacyReport level_efficacy(const std::vector<Journal::Event>& events) {
  std::map<int, LevelEfficacy> by_level;
  const auto slot = [&by_level](int level) -> LevelEfficacy& {
    LevelEfficacy& e = by_level[level];
    e.level = level;
    return e;
  };
  for (const Journal::Event& e : events) {
    if (e.type == "ckpt-commit") {
      LevelEfficacy& l = slot(e.level);
      ++l.commits;
      if (e.dur >= 0.0) l.write_cost += e.dur;
      if (l.kind.empty() && !e.detail.empty()) l.kind = e.detail;
    } else if (e.type == "flush-commit" || e.type == "flush-launch") {
      // Only the PFS level drains asynchronously, so flush activity names
      // the level even when it never saw a blocking ckpt-commit.
      LevelEfficacy& l = slot(e.level);
      if (l.kind.empty()) l.kind = "pfs";
      if (e.type == "flush-commit") {
        ++l.commits;
        if (e.dur >= 0.0) l.flush_cost += e.dur;
      }
    } else if (e.type == "flush-lost") {
      LevelEfficacy& l = slot(e.level);
      if (l.kind.empty()) l.kind = "pfs";
      ++l.flushes_lost;
      if (e.dur >= 0.0) l.lost_cost += e.dur;
    } else if (e.type == "ckpt-write-failed") {
      LevelEfficacy& l = slot(e.level);
      if (e.dur >= 0.0) l.lost_cost += e.dur;
    } else if (e.type == "restore") {
      LevelEfficacy& l = slot(e.level);
      ++l.serves;
      if (e.saved >= 0.0) l.work_saved += e.saved;
    } else if (e.type == "level-defeated") {
      ++slot(e.level).defeated;
    }
  }
  EfficacyReport report;
  report.levels.reserve(by_level.size());
  for (auto& [level, e] : by_level) report.levels.push_back(e);
  return report;
}

std::string EfficacyReport::render() const {
  std::string out = "level efficacy — work saved by restores minus the "
                    "level's write/flush cost\n";
  out += "  level    kind     commits  serves  defeated  lost  "
         "write[s]   flush[s]    lost[s]   saved[s]     net[s]\n";
  for (const LevelEfficacy& l : levels) {
    appendf(out,
            "  %-6s  %-7s  %7llu  %6llu  %8llu  %4llu  %8.3f  %9.3f  "
            "%9.3f  %9.3f  %9.3f\n",
            level_label(l.level).c_str(), l.kind.empty() ? "-" : l.kind.c_str(),
            static_cast<unsigned long long>(l.commits),
            static_cast<unsigned long long>(l.serves),
            static_cast<unsigned long long>(l.defeated),
            static_cast<unsigned long long>(l.flushes_lost), l.write_cost,
            l.flush_cost, l.lost_cost, l.work_saved, l.net());
  }
  if (levels.empty()) out += "  (no storage events in this journal)\n";
  return out;
}

namespace {

/// Name of the first field that differs between two events, or nullptr.
const char* first_differing_field(const Journal::Event& a,
                                  const Journal::Event& b) {
  if (a.type != b.type) return "type";
  if (a.t != b.t) return "t";
  if (a.cause != b.cause) return "cause";
  if (a.episode != b.episode) return "episode";
  if (a.rank != b.rank) return "rank";
  if (a.level != b.level) return "level";
  if (a.epoch != b.epoch) return "epoch";
  if (a.sphere != b.sphere) return "sphere";
  if (a.attempt != b.attempt) return "attempt";
  if (a.iteration != b.iteration) return "iteration";
  if (a.dur != b.dur) return "dur";
  if (a.saved != b.saved) return "saved";
  if (a.detail != b.detail) return "detail";
  return nullptr;
}

void describe_event(std::string& out, const char* tag,
                    const std::vector<Journal::Event>& events,
                    std::size_t index) {
  if (index >= events.size()) {
    appendf(out, "  %s: (no event — journal ended after %zu events)\n", tag,
            events.size());
    return;
  }
  const Journal::Event& e = events[index];
  std::string line;
  Journal::append_line(line, e);
  appendf(out, "  %s: %s\n", tag, line.c_str());
  if (e.cause != 0 && e.cause <= events.size()) {
    const Journal::Event& cause = events[e.cause - 1];
    std::string cline;
    Journal::append_line(cline, cause);
    appendf(out, "  %s cause: %s\n", tag, cline.c_str());
  }
}

}  // namespace

DiffResult diff(const std::vector<Journal::Event>& a,
                const std::vector<Journal::Event>& b) {
  DiffResult result;
  result.events_a = a.size();
  result.events_b = b.size();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const char* field = first_differing_field(a[i], b[i]);
    if (field != nullptr) {
      result.first_divergence = i;
      result.field = field;
      return result;
    }
  }
  if (a.size() != b.size()) {
    result.first_divergence = common;
    result.field = "missing";
    return result;
  }
  result.identical = true;
  result.first_divergence = common;
  return result;
}

std::string DiffResult::render(const std::vector<Journal::Event>& a,
                               const std::vector<Journal::Event>& b) const {
  std::string out;
  if (identical) {
    appendf(out, "journals identical: %zu events, zero divergence\n",
            events_a);
    return out;
  }
  appendf(out,
          "journals diverge at event #%zu (field: %s; run A has %zu events, "
          "run B has %zu)\n",
          first_divergence + 1, field.c_str(), events_a, events_b);
  describe_event(out, "run A", a, first_divergence);
  describe_event(out, "run B", b, first_divergence);
  return out;
}

}  // namespace redcr::obs
