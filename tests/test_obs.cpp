// Observability subsystem tests: registry semantics, trace sink export,
// recorder clock offset, the executor integration (accounting-invariant
// reconciliation, bit-identical reruns, --jobs independence) and the
// runtime::render_trace edge cases.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "exp/runner.hpp"
#include "obs/obs.hpp"
#include "redcr/redcr.hpp"
#include "runtime/executor.hpp"
#include "runtime/trace.hpp"
#include "util/units.hpp"

namespace redcr::obs {
namespace {

// ---- mini JSON parser: syntax validation only, enough to certify the
// exports are loadable. Returns true iff `text` is one valid JSON value. ----

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (++pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_])))
              return false;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_)
      if (peek() != *p) return false;
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool is_valid_json(const std::string& text) {
  return JsonChecker(text).valid();
}

// ---- json helpers ----------------------------------------------------------

std::string number(double v) {
  std::string out;
  json::append_number(out, v);
  return out;
}

TEST(Json, IntegralValuesPrintWithoutFraction) {
  EXPECT_EQ(number(0.0), "0");
  EXPECT_EQ(number(1234.0), "1234");
  EXPECT_EQ(number(-7.0), "-7");
}

TEST(Json, NonIntegralValuesRoundTrip) {
  const std::string text = number(0.1);
  EXPECT_DOUBLE_EQ(std::stod(text), 0.1);
}

TEST(Json, AppendNumberMatchesPrintf) {
  // The number rule is specified as C-locale printf formats; snprintf is
  // the reference the writer must reproduce byte for byte.
  const auto reference = [](double v) -> std::string {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
      std::snprintf(buf, sizeof buf, "%.0f", v);
    else
      std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  };
  constexpr double k2p53 = 9007199254740992.0;
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                0.5,
                                -0.5,
                                1.5,
                                limits::denorm_min(),
                                limits::min(),
                                limits::max(),
                                limits::lowest(),
                                limits::epsilon(),
                                limits::infinity(),
                                limits::quiet_NaN()};
  std::mt19937_64 rng(0x6a736f6eull);
  // Random bit patterns: every exponent, NaN and infinity included.
  for (int i = 0; i < 400000; ++i)
    values.push_back(std::bit_cast<double>(rng()));
  // Integers around +-2^53, where the rule switches from %.0f to %.17g,
  // and halves around 2^52, the last binade that holds them.
  for (int i = -50000; i <= 50000; ++i) {
    values.push_back(k2p53 + i);
    values.push_back(-(k2p53 + i));
    values.push_back(k2p53 / 2 + 0.5 * i);
  }
  // Subnormals: zero exponent field, random mantissa, either sign.
  for (int i = 0; i < 100000; ++i)
    values.push_back(std::bit_cast<double>(rng() & 0x800fffffffffffffull));
  // The serve-response range: hours, minutes, node counts, failure
  // expectations and redundancy degrees, log-uniform over [1e-4, 1e7].
  std::uniform_real_distribution<double> exponent(-4.0, 7.0);
  for (int i = 0; i < 200000; ++i)
    values.push_back(std::pow(10.0, exponent(rng)));
  std::uniform_int_distribution<int> step(0, 800);
  for (int i = 0; i < 100000; ++i)
    values.push_back(1.0 + 0.0025 * step(rng) + 1e-6 * (i % 7));
  // Both edges of the exact 128-bit path (|v| near 1e-6 and near 2^127,
  // where it hands over to to_chars): powers of two with their one-ulp
  // neighbours, powers of ten, and random mantissas in those binades.
  const auto with_neighbours = [&](double v) {
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, limits::infinity()));
  };
  for (const int lo : {-30, 118}) {
    for (int b = lo; b <= lo + 14; ++b) {
      with_neighbours(std::ldexp(1.0, b));
      for (int i = 0; i < 5000; ++i)
        values.push_back(std::ldexp(
            1.0 + static_cast<double>(rng() >> 12) * 0x1p-52, b));
    }
  }
  for (int p = -9; p <= -5; ++p) with_neighbours(std::pow(10.0, p));
  for (int p = 36; p <= 40; ++p) with_neighbours(std::pow(10.0, p));
  // Exact half-way cases, where the 18th significant digit is a 5 and
  // nothing follows: m / 2^n has exactly n decimals, so an odd m with
  // m / 2^n in [10^(17-n), 10^(18-n)) ties at 17 digits and must round to
  // even. (2^17 + k) / 2^17 walks every tie in [1, 2).
  for (int k = 0; k < (1 << 17); ++k)
    values.push_back((131072.0 + k) / 131072.0);
  for (int n = 3; n <= 22; ++n) {
    const double lo = std::ldexp(std::pow(10.0, 17 - n), n);
    const double hi = std::min(std::ldexp(std::pow(10.0, 18 - n), n), k2p53);
    std::uniform_real_distribution<double> mantissa(lo, hi);
    for (int i = 0; i < 5000; ++i) {
      const double m = std::floor(mantissa(rng) / 2) * 2 + 1;  // odd
      values.push_back(std::ldexp(m, -n));
      values.push_back(-std::ldexp(m, -n));
    }
  }
  ASSERT_GE(values.size(), 1000000u);

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = number(v);
    const std::string want = reference(v);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": got " << got << ", printf gives " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, StringsAreEscaped) {
  std::string out;
  json::append_string(out, "a\"b\\c\nd");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\"");
  EXPECT_TRUE(is_valid_json(out));
}

// ---- registry --------------------------------------------------------------

TEST(Registry, CounterAccumulates) {
  Registry reg;
  Counter& c = reg.counter("a.b");
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(reg.counter_value("a.b"), 3.5);
  EXPECT_DOUBLE_EQ(reg.counter_value("missing"), 0.0);
}

TEST(Registry, GaugeLastWriteWins) {
  Registry reg;
  reg.set("g", 1.0);
  reg.set("g", 42.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 42.0);
}

TEST(Registry, HandlesAreStableAcrossInsertions) {
  Registry reg;
  Counter& first = reg.counter("m.a");
  for (int i = 0; i < 100; ++i) reg.counter("m." + std::to_string(i));
  first.add(7.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("m.a"), 7.0);
  EXPECT_EQ(&first, &reg.counter("m.a"));
}

TEST(Registry, KindCollisionThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
}

TEST(Registry, HistogramBucketsByUpperBound) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 50.0, 1000.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1056.5);
  // <=1: {0.5, 1.0}; <=10: {5.0}; <=100: {50.0}; overflow: {1000.0}.
  const std::vector<std::uint64_t> expected{2, 1, 1, 1};
  EXPECT_EQ(h.counts(), expected);
  // Re-requesting with identical bounds returns the same instrument;
  // different bounds are a typo and throw.
  EXPECT_EQ(&h, &reg.histogram("lat", {1.0, 10.0, 100.0}));
  EXPECT_THROW(reg.histogram("lat", {2.0}), std::invalid_argument);
}

TEST(Registry, NdjsonIsSortedAndValid) {
  Registry reg;
  reg.add("z.last", 1);
  reg.add("a.first", 2);
  reg.set("m.gauge", 3.5);
  reg.histogram("h", {1.0}).observe(0.5);
  const std::string text = reg.ndjson();
  // Every line is a standalone JSON object...
  std::size_t start = 0;
  std::vector<std::string> lines;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    lines.push_back(text.substr(start, end - start));
    EXPECT_TRUE(is_valid_json(lines.back())) << lines.back();
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  // ...and the stream is sorted by instrument name regardless of kind.
  EXPECT_NE(lines[0].find("\"a.first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"h\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"m.gauge\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"z.last\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"+inf\""), std::string::npos);
}

// ---- trace sink ------------------------------------------------------------

TEST(TraceSink, SpanTotalSumsByName) {
  TraceSink sink;
  sink.span("ckpt", "ckpt", kJobPid, 0.0, 2.0);
  sink.span("ckpt", "ckpt", rank_pid(3), 5.0, 6.5);
  sink.span("other", "x", kJobPid, 0.0, 100.0);
  EXPECT_DOUBLE_EQ(sink.span_total("ckpt"), 3.5);
  EXPECT_DOUBLE_EQ(sink.span_total("absent"), 0.0);
}

TEST(TraceSink, NegativeDurationClampsToZero) {
  TraceSink sink;
  sink.span("s", "c", kJobPid, 5.0, 4.0);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.events()[0].dur, 0.0);
}

TEST(TraceSink, ChromeJsonIsValidAndHasRequiredFields) {
  TraceSink sink;
  sink.set_track_name(kJobPid, "job");
  sink.set_track_name(rank_pid(0), "rank 0");
  sink.span("episode 0", "job", kJobPid, 0.0, 1.5);
  sink.instant("replica-death", "failure", rank_pid(0), 0.75);
  const std::string text = sink.chrome_json();
  EXPECT_TRUE(is_valid_json(text)) << text;
  // The Chrome trace-event essentials (what Perfetto keys on).
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":"), std::string::npos);
  // Seconds convert to the format's microseconds: 1.5 s -> dur 1500000.
  EXPECT_NE(text.find("\"dur\":1500000"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":750000"), std::string::npos);
}

TEST(TraceSink, TrackNameIsIdempotent) {
  TraceSink sink;
  sink.set_track_name(kJobPid, "job");
  sink.set_track_name(kJobPid, "renamed");  // first write wins
  const std::string text = sink.chrome_json();
  EXPECT_NE(text.find("\"job\""), std::string::npos);
  EXPECT_EQ(text.find("\"renamed\""), std::string::npos);
}

TEST(Recorder, OffsetShiftsEpisodeLocalTimes) {
  Recorder rec;
  rec.set_time_offset(100.0);
  rec.span("s", "c", kJobPid, 1.0, 2.0);
  rec.instant("i", "c", kJobPid, 3.0);
  ASSERT_EQ(rec.trace().events().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.trace().events()[0].ts, 101.0);
  EXPECT_DOUBLE_EQ(rec.trace().events()[1].ts, 103.0);
}

// ---- executor integration --------------------------------------------------

apps::SyntheticSpec small_spec() {
  apps::SyntheticSpec spec;
  spec.iterations = 40;
  spec.compute_per_iteration = 10.0;
  spec.halo_bytes = 1e6;
  spec.allreduces_per_iteration = 2;
  return spec;
}

runtime::JobConfig small_config() {
  runtime::JobConfig cfg;
  cfg.num_virtual = 8;
  cfg.redundancy = 1.5;
  cfg.network.bandwidth = 1e8;
  cfg.storage.bandwidth = 1e10;
  cfg.storage.base_latency = 0.01;
  cfg.image_bytes = 1e9;
  cfg.checkpoint_interval = 60.0;
  cfg.restart_cost = 30.0;
  // Aggressive failure rate: the unreplicated half of the r=1.5 partition
  // guarantees sphere deaths (and thus restarts) within the ~7 min job.
  cfg.fail.node_mtbf = util::minutes(10);
  cfg.fail.seed = 11;
  return cfg;
}

runtime::WorkloadFactory factory() {
  return [](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(small_spec());
  };
}

runtime::JobReport run_recorded(Recorder* rec) {
  runtime::JobConfig cfg = small_config();
  cfg.recorder = rec;
  runtime::JobExecutor executor(cfg, factory());
  return executor.run();
}

TEST(ObsIntegration, PhaseCountersReproduceTheAccountingInvariant) {
  Recorder rec;
  const runtime::JobReport report = run_recorded(&rec);
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.job_failures, 0) << "config must exercise restarts";
  const Registry& m = rec.metrics();
  // The phase-time counters are computed from the same arithmetic as the
  // JobReport fields, so they must match exactly — and their sum must obey
  // the executor's accounting invariant.
  EXPECT_DOUBLE_EQ(m.counter_value("time.useful_work"), report.useful_work);
  EXPECT_DOUBLE_EQ(m.counter_value("time.checkpoint"), report.checkpoint_time);
  EXPECT_DOUBLE_EQ(m.counter_value("time.rework"), report.rework_time);
  EXPECT_DOUBLE_EQ(m.counter_value("time.restart"), report.restart_time);
  EXPECT_NEAR(m.counter_value("time.useful_work") +
                  m.counter_value("time.checkpoint") +
                  m.counter_value("time.rework") +
                  m.counter_value("time.restart"),
              report.wallclock, 1e-6);
  // Traffic/engine counters mirror the report's totals.
  EXPECT_DOUBLE_EQ(m.counter_value("net.messages"),
                   static_cast<double>(report.messages));
  EXPECT_DOUBLE_EQ(m.counter_value("sim.events"),
                   static_cast<double>(report.engine_events));
  EXPECT_DOUBLE_EQ(m.counter_value("job.episodes"), report.episodes);
  EXPECT_DOUBLE_EQ(m.counter_value("ckpt.completed"), report.checkpoints);
  EXPECT_DOUBLE_EQ(m.counter_value("failure.sphere_deaths"),
                   report.job_failures);
}

TEST(ObsIntegration, SpanTotalsReconcileWithWallclock) {
  Recorder rec;
  const runtime::JobReport report = run_recorded(&rec);
  ASSERT_TRUE(report.completed);
  // Episode spans + restart spans tile the whole job timeline.
  double covered = rec.trace().span_total("restart");
  for (const TraceEvent& ev : rec.trace().events())
    if (ev.kind == TraceEvent::Kind::kSpan &&
        ev.name.rfind("episode ", 0) == 0)
      covered += ev.dur;
  EXPECT_NEAR(covered, report.wallclock, 1e-6);
  // Checkpoint spans on the job track account for the checkpoint time.
  EXPECT_NEAR(rec.trace().span_total("checkpoint"), report.checkpoint_time,
              1e-6);
  // And the last event does not extend past the job.
  for (const TraceEvent& ev : rec.trace().events())
    EXPECT_LE(ev.ts + ev.dur, report.wallclock + 1e-6);
}

TEST(ObsIntegration, ExportsAreValidJson) {
  Recorder rec;
  (void)run_recorded(&rec);
  EXPECT_TRUE(is_valid_json(rec.trace().chrome_json()));
  const std::string ndjson = rec.metrics().ndjson();
  std::size_t start = 0;
  while (start < ndjson.size()) {
    const std::size_t end = ndjson.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(is_valid_json(ndjson.substr(start, end - start)));
    start = end + 1;
  }
}

TEST(ObsIntegration, RerunsAreBitIdentical) {
  Recorder a, b;
  (void)run_recorded(&a);
  (void)run_recorded(&b);
  EXPECT_EQ(a.trace().chrome_json(), b.trace().chrome_json());
  EXPECT_EQ(a.metrics().ndjson(), b.metrics().ndjson());
}

TEST(ObsIntegration, SweepOutputIndependentOfJobs) {
  // Each trial runs its own recorded DES; the merged per-trial exports must
  // not depend on the worker count (the --jobs contract).
  const std::vector<int> trials{0, 1, 2, 3, 4, 5};
  auto run_all = [&](int jobs) {
    RunOptions options;
    options.jobs = jobs;
    const exp::SweepRunner runner(options);
    return runner.map(trials, [](const int trial) {
      Recorder rec;
      runtime::JobConfig cfg = small_config();
      cfg.fail.seed = 100 + static_cast<std::uint64_t>(trial);
      cfg.recorder = &rec;
      runtime::JobExecutor executor(cfg, factory());
      (void)executor.run();
      return rec.metrics().ndjson() + rec.trace().chrome_json();
    });
  };
  EXPECT_EQ(run_all(1), run_all(4));
}

TEST(ObsIntegration, DisabledRecorderChangesNothing) {
  Recorder rec;
  const runtime::JobReport with = run_recorded(&rec);
  const runtime::JobReport without = run_recorded(nullptr);
  EXPECT_DOUBLE_EQ(with.wallclock, without.wallclock);
  EXPECT_EQ(with.episodes, without.episodes);
  EXPECT_EQ(with.messages, without.messages);
  EXPECT_EQ(with.engine_events, without.engine_events);
}

// ---- stdout export ("-" sink) ----------------------------------------------
//
// run_job treats "-" as stdout for every export sink. GTest's stdout
// capture collects exactly what a piped consumer would read; the mini JSON
// parser above certifies it is loadable.

std::string captured_run(redcr::RunOptions options) {
  testing::internal::CaptureStdout();
  (void)redcr::run_job(small_config(), factory(), options);
  return testing::internal::GetCapturedStdout();
}

void expect_valid_ndjson(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "NDJSON must end with a newline";
  std::size_t start = 0, lines = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(is_valid_json(text.substr(start, end - start)))
        << text.substr(start, end - start);
    start = end + 1;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(StdoutExport, MetricsDashWritesValidNdjsonToStdout) {
  redcr::RunOptions options;
  options.metrics_out = "-";
  const std::string out = captured_run(options);
  expect_valid_ndjson(out);
  EXPECT_NE(out.find("\"time.useful_work\""), std::string::npos);
}

TEST(StdoutExport, TraceDashWritesOneValidJsonValueToStdout) {
  redcr::RunOptions options;
  options.trace_out = "-";
  const std::string out = captured_run(options);
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(is_valid_json(out)) << out.substr(0, 200);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
}

TEST(StdoutExport, JournalDashWritesValidNdjsonToStdout) {
  redcr::RunOptions options;
  options.journal_out = "-";
  const std::string out = captured_run(options);
  expect_valid_ndjson(out);
  // First and last lines bracket the job; events carry stable ids.
  EXPECT_EQ(out.find("\"type\":\"job-begin\""), out.find("\"type\":\""));
  EXPECT_NE(out.find("\"type\":\"job-end\""), std::string::npos);
  EXPECT_EQ(out.rfind("{\"id\":1,", 0), 0u);
  // The stdout bytes parse back into the same journal the analyzer sees.
  const std::vector<Journal::Event> events = parse_journal(out);
  EXPECT_TRUE(blame(events).reconciled(1e-6));
}

TEST(StdoutExport, CombinedSinksConcatenateDeterministically) {
  // All three sinks aimed at stdout: run_job exports in a fixed order
  // (trace, metrics, journal), so the combined stream is reproducible.
  redcr::RunOptions options;
  options.metrics_out = "-";
  options.trace_out = "-";
  options.journal_out = "-";
  const std::string a = captured_run(options);
  const std::string b = captured_run(options);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"job-end\""), std::string::npos);
}

// ---- runtime::render_trace edge cases --------------------------------------

TEST(RenderTrace, EmptyTraceRendersEmpty) {
  EXPECT_EQ(runtime::render_trace({}), "");
}

TEST(RenderTrace, SphereDeathNamesTheDeadSphere) {
  runtime::EpisodeTrace ep;
  ep.index = 0;
  ep.elapsed = 312.4;
  ep.end = runtime::EpisodeTrace::End::kSphereDeath;
  ep.dead_sphere = 5;
  ep.start_iteration = 0;
  ep.snapshot_iteration = 18;
  const std::string out = runtime::render_trace({ep});
  EXPECT_NE(out.find("sphere 5 died"), std::string::npos) << out;
  EXPECT_NE(out.find("it 0->18"), std::string::npos) << out;
}

TEST(RenderTrace, AbandonedEpisodeSaysAbandoned) {
  runtime::EpisodeTrace ep;
  ep.end = runtime::EpisodeTrace::End::kAbandoned;
  ep.start_iteration = 3;
  ep.snapshot_iteration = 3;
  const std::string out = runtime::render_trace({ep});
  EXPECT_NE(out.find("abandoned"), std::string::npos) << out;
  EXPECT_NE(out.find("it 3->3"), std::string::npos) << out;
}

TEST(RenderTrace, CompletedEpisodeShowsDone) {
  runtime::EpisodeTrace ep;
  ep.end = runtime::EpisodeTrace::End::kCompleted;
  ep.start_iteration = 18;
  const std::string out = runtime::render_trace({ep});
  EXPECT_NE(out.find("it 18->done"), std::string::npos) << out;
}

TEST(RenderTrace, MultiDigitIndicesKeepOneLinePerEpisode) {
  std::vector<runtime::EpisodeTrace> trace(120);
  for (int i = 0; i < 120; ++i) {
    trace[static_cast<std::size_t>(i)].index = i;
    trace[static_cast<std::size_t>(i)].end =
        runtime::EpisodeTrace::End::kSphereDeath;
    trace[static_cast<std::size_t>(i)].dead_sphere = i;
  }
  const std::string out = runtime::render_trace(trace);
  std::size_t lines = 0;
  for (const char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 120u);
  EXPECT_NE(out.find("#119"), std::string::npos);
  EXPECT_NE(out.find("sphere 119 died"), std::string::npos);
}

}  // namespace
}  // namespace redcr::obs
