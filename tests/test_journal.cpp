// Causal event journal + analyzer tests:
//
//  - Journal::Event serialization round-trips exactly through
//    obs::parse_journal (the %.17g number contract), and the shared
//    flat-line reader takes JSON numerals to strtod's bits and only
//    unicode escapes of ASCII codes;
//  - a null journal changes nothing: reports and recorder exports are
//    byte-identical with and without a journal attached;
//  - blame attribution reconciles with the executor's accounting invariant
//    (wallclock == useful + ckpt + rework + restart + flush) to 1e-6 across
//    a 24-seed fault-matrix stress loop, flat and hierarchy pipelines both;
//  - the journal edge cases: terminal async drain truncated by job end,
//    flushes lost mid-drain (billed to the killing failure), and
//    abort-after-fallback causal chains;
//  - run-diff triage: reruns and jobs-1-vs-N sweeps are event-identical,
//    different seeds diverge at a located first event.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "exp/runner.hpp"
#include "obs/flatjson.hpp"
#include "obs/obs.hpp"
#include "runtime/executor.hpp"
#include "util/units.hpp"

namespace redcr {
namespace {

using util::hours;

runtime::WorkloadFactory factory() {
  apps::SyntheticSpec spec;
  spec.iterations = 40;
  spec.compute_per_iteration = 10.0;
  spec.halo_bytes = 1e6;
  spec.allreduces_per_iteration = 2;
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

// Flat single-device pipeline under the full unreliable-C/R fault set.
runtime::JobConfig flat_faulty(std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(0.4);
  cfg.fail.seed = seed;
  cfg.ckpt_faults.write_failure_prob = 0.05;
  cfg.ckpt_faults.corruption_prob = 0.03;
  cfg.ckpt_faults.restart_failure_prob = 0.1;
  cfg.ckpt_faults.seed = seed * 31 + 5;
  cfg.ckpt_retention = 3;
  cfg.ckpt_write_retry.max_attempts = 3;
  cfg.ckpt_write_retry.backoff_base = 0.5;
  cfg.restart_retry.max_attempts = 4;
  cfg.restart_retry.backoff_base = 1.0;
  return cfg;
}

// Three-level hierarchy with async PFS flush and per-level faults (mirrors
// the multilevel suite's stress configuration).
runtime::JobConfig hierarchy_faulty(std::uint64_t seed) {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = 1.0;
  cfg.network.bandwidth = 1e8;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  cfg.fail.node_mtbf = hours(0.4);
  cfg.fail.seed = seed;
  cfg.hierarchy = ckpt::parse_hierarchy(
      "local,bw=1e10,lat=0.01,rbw=1e10;"
      "xor,bw=1e10,lat=0.01,rbw=1e10,group=4,k=1,interval=2,ret=2,"
      "corr=0.02,wfail=0.05;"
      "pfs,bw=6e8,lat=0.01,rbw=6e8,interval=4,ret=2,corr=0.01");
  cfg.hierarchy.async_flush = true;
  cfg.ckpt_faults.seed = seed * 7919 + 1;
  cfg.ckpt_write_retry.max_attempts = 3;
  cfg.ckpt_write_retry.backoff_base = 0.5;
  return cfg;
}

runtime::JobReport run_with_journal(runtime::JobConfig cfg,
                                    obs::Journal& journal) {
  cfg.journal = &journal;
  return runtime::JobExecutor(cfg, factory()).run();
}

double invariant_residual(const runtime::JobReport& r) {
  return r.wallclock - (r.useful_work + r.checkpoint_time + r.rework_time +
                        r.restart_time + r.flush_time);
}

const obs::Journal::Event* find_event(
    const std::vector<obs::Journal::Event>& events, std::uint64_t id) {
  for (const auto& e : events)
    if (e.id == id) return &e;
  return nullptr;
}

// ---- Serialization round-trip ----------------------------------------------

TEST(Journal, EventsRoundTripThroughParseExactly) {
  obs::Journal journal;
  obs::Journal::Event a;
  a.type = "sphere-death";
  a.t = 123.456789012345678;  // exercises the %.17g exact round-trip
  a.episode = 3;
  a.rank = 7;
  a.sphere = 2;
  EXPECT_EQ(journal.append(a), 1u);
  obs::Journal::Event b;
  b.type = "rework";
  b.cause = 1;
  b.t = 200.25;
  b.episode = 3;
  b.dur = 0.1 + 0.2;  // not exactly representable; must survive the trip
  b.detail = "tab\there \"quoted\" and\nnewline";
  EXPECT_EQ(journal.append(b), 2u);

  const std::vector<obs::Journal::Event> parsed =
      obs::parse_journal(journal.ndjson());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 1u);
  EXPECT_EQ(parsed[0].type, "sphere-death");
  EXPECT_EQ(parsed[0].t, a.t);
  EXPECT_EQ(parsed[0].episode, 3);
  EXPECT_EQ(parsed[0].rank, 7);
  EXPECT_EQ(parsed[0].sphere, 2);
  EXPECT_EQ(parsed[0].cause, 0u);
  EXPECT_EQ(parsed[0].level, -1);  // sentinel fields stay at their defaults
  EXPECT_EQ(parsed[0].dur, -1.0);
  EXPECT_EQ(parsed[1].id, 2u);
  EXPECT_EQ(parsed[1].cause, 1u);
  EXPECT_EQ(parsed[1].dur, b.dur);
  EXPECT_EQ(parsed[1].detail, b.detail);
}

TEST(Journal, CrlfLinesParseAsTheirLfTwins) {
  // JSON whitespace includes CR (RFC 8259), and a CRLF line end reads as
  // an LF one, so a journal saved with CRLF line ends (blank lines
  // included) parses to the same events, and a CR between tokens is
  // whitespace like a space.
  obs::Journal journal;
  obs::Journal::Event a;
  a.type = "sphere-death";
  a.t = 123.456789012345678;
  a.sphere = 2;
  (void)journal.append(a);
  obs::Journal::Event b;
  b.type = "rework";
  b.cause = 1;
  b.dur = 0.1 + 0.2;
  b.detail = "carriage\rreturn";  // an escaped CR stays in the string
  (void)journal.append(b);
  const std::string lf = journal.ndjson();
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  crlf += "\r\n";
  crlf += "{\"id\":3,\r\"t\":\r 4.5 ,\"type\":\"abort\"}\r\n";

  const std::vector<obs::Journal::Event> want = obs::parse_journal(lf);
  const std::vector<obs::Journal::Event> got = obs::parse_journal(crlf);
  ASSERT_EQ(want.size(), 2u);
  ASSERT_EQ(got.size(), 3u);
  obs::Journal again;
  for (std::size_t i = 0; i < 2; ++i) (void)again.append(got[i]);
  EXPECT_EQ(again.ndjson(), lf);
  EXPECT_EQ(got[1].detail, b.detail);
  EXPECT_EQ(got[2].type, "abort");
  EXPECT_EQ(got[2].t, 4.5);
}

TEST(Journal, TimeOffsetPlacesEventsInJobTime) {
  obs::Journal journal;
  journal.set_time_offset(1000.0);
  obs::Journal::Event e;
  e.type = "episode-begin";
  e.t = 5.0;
  journal.append(e);
  const auto parsed = obs::parse_journal(journal.ndjson());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].t, 1005.0);
}

TEST(Journal, ParserRejectsGarbage) {
  EXPECT_THROW((void)obs::parse_journal("not json\n"), std::runtime_error);
  EXPECT_THROW((void)obs::parse_journal("{\"id\":1}\n"),
               std::runtime_error);  // no type
  EXPECT_THROW((void)obs::parse_journal("{\"type\":\"x\"} trailing\n"),
               std::runtime_error);
  // Unknown keys are forward-compatible, not an error.
  const auto ok = obs::parse_journal(
      "{\"id\":1,\"t\":0,\"type\":\"job-begin\",\"future_key\":42}\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].type, "job-begin");
}

TEST(FlatLineParser, AcceptsOnlyJsonNumbers) {
  const auto number = [](const std::string& text) {
    const std::string line = "{\"v\":" + text + "}";
    double value = 0.0;
    obs::FlatLineParser parser(line, 3, "test");
    parser.parse_object([&](const std::string&) {
      value = parser.parse_number();
    });
    return value;
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_EQ(number("-0"), 0.0);
  EXPECT_EQ(number("42"), 42.0);
  EXPECT_EQ(number("-5"), -5.0);
  EXPECT_EQ(number("0.25"), 0.25);
  EXPECT_EQ(number("1e3"), 1000.0);
  EXPECT_EQ(number("2.5E-1"), 0.25);
  EXPECT_EQ(number("1.0000000000000002e+20"), 1.0000000000000002e+20);
  EXPECT_EQ(number(" 7 "), 7.0);
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity",
                          "Infinity", "0x10", "0X1p3", "+1", ".5", "5.",
                          "01", "-", "1e", "1e+", "1.5.2", "2x", "null",
                          "\"1\""}) {
    try {
      (void)number(bad);
      ADD_FAILURE() << bad << " parsed as a number";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "test parse error at line 3: expected a number")
          << bad;
    }
  }
}

TEST(FlatLineParser, NumbersMatchStrtod) {
  // from_chars must read every JSON numeral to strtod's bits, and the
  // out-of-range numerals to strtod's +-inf and +-0.
  const auto parse = [](const std::string& text) {
    const std::string line = "{\"v\":" + text + "}";
    double value = 1.0;
    obs::FlatLineParser parser(line, 1, "test");
    parser.parse_object([&](const std::string&) {
      value = parser.parse_number();
    });
    return value;
  };
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(same_bits(parse("1e400"), kInf));
  EXPECT_TRUE(same_bits(parse("-1e400"), -kInf));
  EXPECT_TRUE(same_bits(parse("1e-400"), 0.0));
  EXPECT_TRUE(same_bits(parse("-1e-400"), -0.0));
  EXPECT_TRUE(same_bits(parse("-0"), -0.0));
  EXPECT_TRUE(same_bits(parse("-0.0e5"), -0.0));
  EXPECT_TRUE(same_bits(parse("4.9406564584124654e-324"),
                        std::numeric_limits<double>::denorm_min()));
  EXPECT_TRUE(
      same_bits(parse("2.2250738585072011e-308"),
                std::nextafter(std::numeric_limits<double>::min(), 0.0)));
  EXPECT_TRUE(same_bits(parse("1.7976931348623157e308"),
                        std::numeric_limits<double>::max()));
  EXPECT_TRUE(same_bits(parse("1.7976931348623159e308"), kInf));

  // Seeded numerals: 1-40 significant digits split between the integer
  // part and the fraction, an optional exponent out to +-400 in every
  // spelling, and a band of exponents that lands in the subnormals.
  std::mt19937_64 rng(0x73747274ull);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::size_t mismatches = 0;
  for (int i = 0; i < 300000; ++i) {
    std::string text = pick(0, 1) ? "-" : "";
    const int digits = pick(1, 40);
    const int whole = pick(0, digits);  // digits before the point
    if (whole == 0) {
      text += '0';
    } else {
      text += static_cast<char>('1' + pick(0, 8));
      for (int d = 1; d < whole; ++d)
        text += static_cast<char>('0' + pick(0, 9));
    }
    if (whole < digits) {
      text += '.';
      for (int d = whole; d < digits; ++d)
        text += static_cast<char>('0' + pick(0, 9));
    }
    const int shape = pick(0, 3);
    if (shape > 0) {
      const int exponent =
          shape == 3 ? pick(-345, -300) - whole : pick(-400, 400);
      text += pick(0, 1) ? 'e' : 'E';
      if (exponent < 0) text += '-';
      else if (pick(0, 1)) text += '+';
      text += std::to_string(exponent < 0 ? -exponent : exponent);
    }
    const double want = std::strtod(text.c_str(), nullptr);
    const double got = parse(text);
    if (!same_bits(got, want) && ++mismatches <= 5)
      ADD_FAILURE() << text << " parsed as " << got << ", strtod gives "
                    << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FlatLineParser, UnicodeEscapesAreFourHexDigitsBelow0x80) {
  const auto text = [](const std::string& body) {
    const std::string line = "{\"v\":\"" + body + "\"}";
    std::string value;
    obs::FlatLineParser parser(line, 4, "test");
    parser.parse_object([&](const std::string&) {
      value = parser.parse_string();
    });
    return value;
  };
  EXPECT_EQ(text("a\\u0001b"), "a\x01" "b");
  EXPECT_EQ(text("\\u001F\\u001f"), "\x1f\x1f");
  EXPECT_EQ(text("\\u0041\\u007e"), "A~");
  EXPECT_EQ(text("\\u0000"), std::string(1, '\0'));
  // Fewer than four hex digits (a sign, a space or a non-hex byte among
  // them), or a code above 0x7f, names no byte the writer could have sent.
  for (const char* bad : {"a\\u00zzb", "\\u-001", "\\u 7Fb", "\\u+7Fb",
                          "\\u4e2d", "\\u0080", "\\u00ff", "\\u12",
                          "\\u"}) {
    try {
      (void)text(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("test parse error at line 4: ", 0),
                0u)
          << e.what();
    }
  }
  // Everything append_string writes reads back: it escapes only bytes
  // below 0x20, '"' and '\\'.
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  std::string line = "{\"v\":";
  obs::json::append_string(line, all);
  line += '}';
  std::string back;
  obs::FlatLineParser parser(line, 1, "test");
  parser.parse_object(
      [&](const std::string&) { back = parser.parse_string(); });
  EXPECT_EQ(back, all);
  // The journal reader shares the tokenizer, so analyze rejects the same.
  try {
    (void)obs::parse_journal(
        "{\"id\":1,\"t\":0,\"type\":\"job-begin\"}\n"
        "{\"id\":2,\"t\":0,\"type\":\"job-\\u00zzend\"}\n");
    ADD_FAILURE() << "a malformed escape parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("journal parse error at line 2: ", 0),
              0u)
        << e.what();
  }
}

// ---- Null gating ------------------------------------------------------------

TEST(JournalExecutor, DisabledJournalChangesNothing) {
  obs::Recorder plain_rec;
  runtime::JobConfig plain_cfg = flat_faulty(3);
  plain_cfg.recorder = &plain_rec;
  const runtime::JobReport plain =
      runtime::JobExecutor(plain_cfg, factory()).run();

  obs::Recorder journal_rec;
  obs::Journal journal;
  runtime::JobConfig journal_cfg = flat_faulty(3);
  journal_cfg.recorder = &journal_rec;
  journal_cfg.journal = &journal;
  const runtime::JobReport with =
      runtime::JobExecutor(journal_cfg, factory()).run();

  // Identical simulation: same report, byte-identical recorder exports.
  EXPECT_EQ(plain.wallclock, with.wallclock);
  EXPECT_EQ(plain.useful_work, with.useful_work);
  EXPECT_EQ(plain.rework_time, with.rework_time);
  EXPECT_EQ(plain.restart_time, with.restart_time);
  EXPECT_EQ(plain.engine_events, with.engine_events);
  EXPECT_EQ(plain.messages, with.messages);
  EXPECT_EQ(plain_rec.metrics().ndjson(), journal_rec.metrics().ndjson());
  EXPECT_EQ(plain_rec.trace().chrome_json(), journal_rec.trace().chrome_json());
  EXPECT_GT(journal.size(), 0u);
}

// ---- Blame reconciliation stress -------------------------------------------

void expect_blame_reconciles(const runtime::JobConfig& cfg,
                             std::uint64_t seed, const char* label) {
  obs::Journal journal;
  const runtime::JobReport report = run_with_journal(cfg, journal);
  EXPECT_NEAR(invariant_residual(report), 0.0, 1e-6)
      << label << " seed " << seed;

  const std::vector<obs::Journal::Event> events =
      obs::parse_journal(journal.ndjson());
  const obs::JournalSummary summary = obs::summarize(events);
  ASSERT_TRUE(summary.has_job_end) << label << " seed " << seed;
  EXPECT_EQ(summary.interval, cfg.checkpoint_interval);
  EXPECT_EQ(summary.restart_cost, cfg.restart_cost);
  // The job-end totals are the executor's own doubles round-tripped.
  EXPECT_EQ(summary.wallclock, report.wallclock);
  EXPECT_EQ(summary.rework, report.rework_time);
  EXPECT_EQ(summary.restart, report.restart_time);
  EXPECT_EQ(summary.flush, report.flush_time);

  const obs::BlameReport blame = obs::blame(events);
  EXPECT_TRUE(blame.reconciled(1e-6))
      << label << " seed " << seed << ": residual " << blame.residual;
  EXPECT_EQ(blame.unattributed, 0.0) << label << " seed " << seed;
  EXPECT_NEAR(blame.attributed_rework, report.rework_time, 1e-6)
      << label << " seed " << seed;
  EXPECT_NEAR(blame.attributed_restart, report.restart_time, 1e-6)
      << label << " seed " << seed;
  EXPECT_EQ(blame.entries.size(),
            static_cast<std::size_t>(report.job_failures))
      << label << " seed " << seed;

  // Every waste event's cause id resolves to a sphere-death event, and the
  // per-cause fetch total mirrors the report's fetch breakout.
  double fetch_total = 0.0;
  int flush_lost = 0;
  for (const obs::Journal::Event& e : events) {
    if (e.type == "rework" || e.type == "restart-attempt" ||
        e.type == "fetch" || e.type == "flush-lost" ||
        e.type == "level-defeated" || e.type == "abort") {
      const obs::Journal::Event* cause = find_event(events, e.cause);
      ASSERT_NE(cause, nullptr)
          << label << " seed " << seed << ": " << e.type << " without cause";
      EXPECT_EQ(cause->type, "sphere-death") << label << " seed " << seed;
      if (e.type == "fetch" && e.dur >= 0.0) fetch_total += e.dur;
      if (e.type == "flush-lost") ++flush_lost;
    }
  }
  EXPECT_NEAR(fetch_total, report.fetch_time, 1e-6)
      << label << " seed " << seed;
  EXPECT_EQ(flush_lost, report.flushes_lost) << label << " seed " << seed;
}

TEST(JournalStress, BlameReconcilesAcrossFlatFaultMatrix) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    expect_blame_reconciles(flat_faulty(seed), seed, "flat");
}

TEST(JournalStress, BlameReconcilesAcrossHierarchyFaultMatrix) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    expect_blame_reconciles(hierarchy_faulty(seed), seed, "hierarchy");
}

// ---- Edge cases -------------------------------------------------------------

TEST(JournalEdge, TerminalDrainTruncatedByJobEndIsFlushTime) {
  // No failures: the async PFS drains overlap work, and whichever drain is
  // still in flight when the workload finishes becomes the job's terminal
  // flush wallclock. The journal must carry its commit (timestamped at the
  // drain's landing, beyond the episode body) and the job-end flush total.
  runtime::JobConfig cfg = hierarchy_faulty(1);
  cfg.inject_failures = false;
  cfg.ckpt_faults = failure::CkptFaultParams{};
  for (auto& level : cfg.hierarchy.levels) {
    level.corruption_prob = 0.0;
    level.write_failure_prob = 0.0;
  }
  cfg.hierarchy.levels[2].device.bandwidth = 2e7;  // drain outlives the work
  obs::Journal journal;
  const runtime::JobReport report = run_with_journal(cfg, journal);
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.flush_time, 0.0);
  EXPECT_NEAR(invariant_residual(report), 0.0, 1e-6);

  const auto events = obs::parse_journal(journal.ndjson());
  const obs::JournalSummary summary = obs::summarize(events);
  EXPECT_EQ(summary.flush, report.flush_time);
  double episode_end_t = -1.0, last_commit_t = -1.0;
  int launches = 0, commits = 0;
  for (const auto& e : events) {
    if (e.type == "flush-launch") ++launches;
    if (e.type == "flush-commit") {
      ++commits;
      last_commit_t = e.t;
    }
    if (e.type == "episode-end") episode_end_t = e.t;
  }
  EXPECT_EQ(commits, report.flushes_completed);
  EXPECT_EQ(launches, commits);  // nothing lost without failures
  // The truncated drain commits at its landing instant — at or beyond the
  // episode end (which already includes the terminal drain wait).
  ASSERT_GE(commits, 1);
  EXPECT_LE(last_commit_t, episode_end_t + 1e-9);
  EXPECT_GT(last_commit_t, episode_end_t - report.flush_time - 1e-9);
}

TEST(JournalEdge, FlushLostMidDrainIsBilledToTheKill) {
  // A PFS so slow every drain is still in flight when the next failure
  // lands: each lost flush must journal with the killing sphere-death as
  // its cause and the drain progress it destroyed as dur.
  runtime::JobConfig cfg = hierarchy_faulty(7);
  cfg.hierarchy.levels[1].corruption_prob = 0.0;
  cfg.hierarchy.levels[1].write_failure_prob = 0.0;
  cfg.hierarchy.levels[2].corruption_prob = 0.0;
  cfg.hierarchy.levels[2].device.bandwidth = 1e6;
  obs::Journal journal;
  const runtime::JobReport report = run_with_journal(cfg, journal);
  ASSERT_GT(report.flushes_lost, 0);

  const auto events = obs::parse_journal(journal.ndjson());
  int lost = 0;
  for (const auto& e : events) {
    if (e.type != "flush-lost") continue;
    ++lost;
    EXPECT_EQ(e.level, 2);
    EXPECT_GT(e.dur, 0.0);
    const obs::Journal::Event* cause = find_event(events, e.cause);
    ASSERT_NE(cause, nullptr);
    EXPECT_EQ(cause->type, "sphere-death");
  }
  EXPECT_EQ(lost, report.flushes_lost);
  // The efficacy report folds the destroyed drains into the PFS level.
  const obs::EfficacyReport efficacy = obs::level_efficacy(events);
  bool found_pfs = false;
  for (const obs::LevelEfficacy& l : efficacy.levels) {
    if (l.level != 2) continue;
    found_pfs = true;
    EXPECT_EQ(l.flushes_lost, static_cast<std::uint64_t>(report.flushes_lost));
    EXPECT_GT(l.lost_cost, 0.0);
  }
  EXPECT_TRUE(found_pfs);
}

TEST(JournalEdge, AbortAfterFallbackCarriesTheCausalChain) {
  // Universal corruption: the first restore after a checkpointed failure
  // walks every retained generation, finds none valid, and aborts. The
  // journal must chain abort -> cause (sphere-death) and bill the lost
  // episode's work as rework, still reconciling exactly.
  bool saw_abort = false;
  for (std::uint64_t seed = 1; seed <= 10 && !saw_abort; ++seed) {
    runtime::JobConfig cfg = flat_faulty(seed);
    cfg.ckpt_faults.corruption_prob = 1.0;
    cfg.ckpt_faults.restart_failure_prob = 0.0;
    obs::Journal journal;
    const runtime::JobReport report = run_with_journal(cfg, journal);
    EXPECT_NEAR(invariant_residual(report), 0.0, 1e-6) << "seed " << seed;
    const auto events = obs::parse_journal(journal.ndjson());
    EXPECT_TRUE(obs::blame(events).reconciled(1e-6)) << "seed " << seed;
    if (!report.abort ||
        report.abort->reason != runtime::JobAbort::Reason::kNoValidCheckpoint)
      continue;
    saw_abort = true;
    const obs::Journal::Event* abort_event = nullptr;
    for (const auto& e : events)
      if (e.type == "abort") abort_event = &e;
    ASSERT_NE(abort_event, nullptr);
    EXPECT_EQ(abort_event->detail, "no-valid-checkpoint");
    const obs::Journal::Event* cause = find_event(events, abort_event->cause);
    ASSERT_NE(cause, nullptr);
    EXPECT_EQ(cause->type, "sphere-death");
    // The fatal failure's rework event carries the same cause.
    bool rework_billed = false;
    for (const auto& e : events)
      if (e.type == "rework" && e.cause == abort_event->cause &&
          e.dur >= 0.0)
        rework_billed = true;
    EXPECT_TRUE(rework_billed);
  }
  EXPECT_TRUE(saw_abort)
      << "no seed in 1..10 aborted via fallback — config drifted?";
}

TEST(JournalEdge, RestartRetriesExhaustedJournalsEveryAttempt) {
  runtime::JobConfig cfg = flat_faulty(2);
  cfg.ckpt_faults.restart_failure_prob = 1.0;  // every attempt fails
  cfg.restart_retry.max_attempts = 3;
  obs::Journal journal;
  const runtime::JobReport report = run_with_journal(cfg, journal);
  ASSERT_TRUE(report.abort.has_value());
  EXPECT_EQ(report.abort->reason,
            runtime::JobAbort::Reason::kRestartRetriesExhausted);
  EXPECT_NEAR(invariant_residual(report), 0.0, 1e-6);

  const auto events = obs::parse_journal(journal.ndjson());
  EXPECT_TRUE(obs::blame(events).reconciled(1e-6));
  int attempts = 0, failures = 0;
  const obs::Journal::Event* abort_event = nullptr;
  for (const auto& e : events) {
    if (e.type == "restart-attempt") ++attempts;
    if (e.type == "restart-failed") ++failures;
    if (e.type == "abort") abort_event = &e;
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(failures, 3);
  ASSERT_NE(abort_event, nullptr);
  EXPECT_EQ(abort_event->detail, "restart-retries-exhausted");
  EXPECT_EQ(abort_event->attempt, 3);
}

// ---- Run-diff triage --------------------------------------------------------

TEST(JournalDiff, RerunIsEventIdentical) {
  obs::Journal a, b;
  (void)run_with_journal(hierarchy_faulty(5), a);
  (void)run_with_journal(hierarchy_faulty(5), b);
  EXPECT_EQ(a.ndjson(), b.ndjson());
  const obs::DiffResult d = obs::diff(obs::parse_journal(a.ndjson()),
                                      obs::parse_journal(b.ndjson()));
  EXPECT_TRUE(d.identical);
}

TEST(JournalDiff, DifferentSeedsDivergeAtALocatedEvent) {
  obs::Journal a, b;
  (void)run_with_journal(flat_faulty(3), a);
  (void)run_with_journal(flat_faulty(4), b);
  const auto ea = obs::parse_journal(a.ndjson());
  const auto eb = obs::parse_journal(b.ndjson());
  const obs::DiffResult d = obs::diff(ea, eb);
  ASSERT_FALSE(d.identical);
  EXPECT_FALSE(d.field.empty());
  EXPECT_LT(d.first_divergence, std::max(ea.size(), eb.size()));
  // The rendered report names both sides of the divergence.
  const std::string rendered = d.render(ea, eb);
  EXPECT_NE(rendered.find("run A"), std::string::npos);
  EXPECT_NE(rendered.find("run B"), std::string::npos);
}

TEST(JournalDiff, SweepJournalsAreIndependentOfWorkerCount) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const auto journal_of = [](std::uint64_t seed) {
    obs::Journal journal;
    (void)run_with_journal(flat_faulty(seed), journal);
    return journal.ndjson();
  };
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  const std::vector<std::string> a =
      exp::SweepRunner(serial).map(seeds, journal_of);
  const std::vector<std::string> b =
      exp::SweepRunner(parallel).map(seeds, journal_of);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "seed " << seeds[i];
    const obs::DiffResult d = obs::diff(obs::parse_journal(a[i]),
                                        obs::parse_journal(b[i]));
    EXPECT_TRUE(d.identical) << "seed " << seeds[i];
  }
}

// ---- Sweep progress tally (keep-going) --------------------------------------

TEST(SweepProgress, FailedCellsCountTowardCompletionAndTally) {
  const std::vector<int> items = {0, 1, 2, 3, 4};
  RunOptions options;
  options.jobs = 1;  // deterministic final line
  options.progress = true;
  options.keep_going = true;
  const exp::SweepRunner runner(options);
  testing::internal::CaptureStderr();
  const auto outcomes = runner.map_outcomes(items, [](const int& i) {
    if (i % 2 == 1) throw std::runtime_error("odd cell");
    return i * 10;
  });
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].error, "odd cell");
  EXPECT_EQ(outcomes[4].value, 40);
  // The meter reaches 100% (failed cells count toward completion) and the
  // final line carries the ok/failed tally.
  EXPECT_NE(err.find("5/5"), std::string::npos) << err;
  EXPECT_NE(err.find("3 ok, 2 failed"), std::string::npos) << err;
}

TEST(SweepProgress, CleanSweepKeepsTheHistoricalLine) {
  const std::vector<int> items = {0, 1, 2};
  RunOptions options;
  options.jobs = 1;
  options.progress = true;
  const exp::SweepRunner runner(options);
  testing::internal::CaptureStderr();
  const auto out = runner.map(items, [](const int& i) { return i + 1; });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out[2], 3);
  EXPECT_NE(err.find("3/3"), std::string::npos) << err;
  EXPECT_EQ(err.find("failed"), std::string::npos) << err;
}

}  // namespace
}  // namespace redcr
