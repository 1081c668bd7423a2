// Tests for the experiment harness (src/exp/): grid enumeration, filter
// parsing, deterministic parallel execution, result rendering, the bench
// CLI front end and the shared perf guard.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "exp/exp.hpp"

namespace {

using namespace redcr;

// ---------------------------------------------------------------- ParamGrid

TEST(ParamGrid, RowMajorEnumerationOrderAndSize) {
  exp::ParamGrid grid;
  grid.axis("a", {1, 2}).axis("b", {10, 20, 30});
  EXPECT_EQ(grid.size(), 6u);
  const std::vector<exp::Trial> trials = grid.trials();
  ASSERT_EQ(trials.size(), 6u);
  // Last axis varies fastest: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
  const double expected[6][2] = {{1, 10}, {1, 20}, {1, 30},
                                 {2, 10}, {2, 20}, {2, 30}};
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index(), i);
    EXPECT_EQ(trials[i].at("a"), expected[i][0]) << "trial " << i;
    EXPECT_EQ(trials[i].at("b"), expected[i][1]) << "trial " << i;
    EXPECT_EQ(trials[i].values().size(), 2u);
  }
  EXPECT_THROW((void)trials[0].at("nope"), std::out_of_range);
}

TEST(ParamGrid, TrialByIndexMatchesEnumeration) {
  exp::ParamGrid grid;
  grid.axis("mtbf", {6, 12, 18, 24, 30})
      .axis("r", exp::ParamGrid::range(1.0, 3.0, 0.25));
  const std::vector<exp::Trial> trials = grid.trials();
  ASSERT_EQ(trials.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const exp::Trial t = grid.trial(i);
    EXPECT_EQ(t.values(), trials[i].values());
  }
}

TEST(ParamGrid, RangeIncludesEndpoint) {
  const std::vector<double> r = exp::ParamGrid::range(1.0, 3.0, 0.25);
  ASSERT_EQ(r.size(), 9u);
  EXPECT_DOUBLE_EQ(r.front(), 1.0);
  EXPECT_DOUBLE_EQ(r.back(), 3.0);
}

TEST(ParamGrid, RejectsDuplicateAndEmptyAxes) {
  exp::ParamGrid grid;
  grid.axis("a", {1});
  EXPECT_THROW(grid.axis("a", {2}), std::invalid_argument);
  EXPECT_THROW(grid.axis("b", {}), std::invalid_argument);
}

TEST(ParamGrid, FilterSelectsSubsetInOrder) {
  exp::ParamGrid grid;
  grid.axis("mtbf", {6, 18, 30}).axis("r", {1.0, 2.0, 3.0});
  const std::vector<exp::Trial> sub = grid.trials("r=2");
  ASSERT_EQ(sub.size(), 3u);
  for (std::size_t i = 0; i < sub.size(); ++i) {
    EXPECT_EQ(sub[i].at("r"), 2.0);
    if (i > 0) {
      EXPECT_LT(sub[i - 1].index(), sub[i].index());
    }
  }
  // Conditions naming axes this grid lacks are ignored (multi-grid benches
  // share one --filter string).
  EXPECT_EQ(grid.trials("procs=4000").size(), 9u);
  EXPECT_EQ(grid.trials("mtbf=18,r=3").size(), 1u);
  EXPECT_EQ(grid.trials("").size(), 9u);
}

TEST(ParamGrid, FilterSyntaxErrors) {
  EXPECT_THROW(exp::parse_filter("mtbf"), std::invalid_argument);
  EXPECT_THROW(exp::parse_filter("mtbf=abc"), std::invalid_argument);
  EXPECT_THROW(exp::parse_filter("=6"), std::invalid_argument);
  EXPECT_TRUE(exp::parse_filter("").empty());
  const std::vector<exp::FilterCond> conds = exp::parse_filter("mtbf=6,r=2.5");
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0].axis, "mtbf");
  EXPECT_DOUBLE_EQ(conds[1].value, 2.5);
}

TEST(ParamGrid, TrialSeedsAreDeterministicAndDistinct) {
  exp::ParamGrid grid;
  grid.axis("r", exp::ParamGrid::range(1.0, 3.0, 0.25));
  const std::vector<exp::Trial> trials = grid.trials();
  for (const exp::Trial& a : trials) {
    EXPECT_EQ(a.seed(7), grid.trial(a.index()).seed(7));
    EXPECT_NE(a.seed(0), a.seed(1));
    for (const exp::Trial& b : trials) {
      if (a.index() != b.index()) {
        EXPECT_NE(a.seed(3), b.seed(3));
      }
    }
  }
}

// -------------------------------------------------------------- SweepRunner

RunOptions with_jobs(int jobs) {
  RunOptions options;
  options.jobs = jobs;
  return options;
}

TEST(SweepRunner, ResolvesWorkerCount) {
  EXPECT_GE(exp::SweepRunner(with_jobs(0)).jobs(), 1);
  EXPECT_EQ(exp::SweepRunner(with_jobs(3)).jobs(), 3);
}

TEST(SweepRunner, MapPreservesItemOrder) {
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[static_cast<std::size_t>(i)] = i;
  const exp::SweepRunner runner(with_jobs(8));
  const std::vector<int> out =
      runner.map(items, [](const int& v) { return v * v; });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, RunsEveryItemExactlyOnce) {
  std::atomic<int> calls{0};
  std::vector<int> items(257);
  const exp::SweepRunner runner(with_jobs(4));
  (void)runner.map(items, [&](const int&) { return ++calls; });
  EXPECT_EQ(calls.load(), 257);
}

TEST(SweepRunner, PropagatesFirstException) {
  std::vector<int> items(16);
  const exp::SweepRunner runner(with_jobs(4));
  EXPECT_THROW((void)runner.map(items,
                                [](const int&) -> int {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

// The tentpole guarantee: a parallel sweep is bit-identical to a serial one.
// Exercise it end to end on a small Table-4 sub-grid through the real DES.
TEST(SweepRunner, ParallelDesSweepBitIdenticalToSerial) {
  exp::ParamGrid grid;
  grid.axis("mtbf", {30.0}).axis("r", {1.0, 2.0});
  const std::vector<exp::Trial> trials = grid.trials();
  const auto run = [&](int jobs) {
    const exp::SweepRunner runner(with_jobs(jobs));
    return runner.map(trials, [&](const exp::Trial& trial) {
      return bench::run_experiment_cell(trial.at("mtbf"), trial.at("r"),
                                        /*seeds=*/1, /*quick=*/true);
    });
  };
  const std::vector<bench::CellResult> serial = run(1);
  const std::vector<bench::CellResult> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Exact equality, not tolerance: the merge order and per-trial seeding
    // must make --jobs invisible in the output bytes.
    EXPECT_EQ(serial[i].minutes_mean, parallel[i].minutes_mean) << i;
    EXPECT_EQ(serial[i].minutes_stddev, parallel[i].minutes_stddev) << i;
    EXPECT_EQ(serial[i].job_failures_mean, parallel[i].job_failures_mean) << i;
    EXPECT_GT(serial[i].minutes_mean, 0.0);
  }
}

// --------------------------------------------------------------- ResultSink

exp::ResultSink make_sink() {
  exp::ResultSink sink("roundtrip", {{"MTBF", "mtbf_h"},
                                     {"r"},
                                     {"T [min]", "t_min"},
                                     {"note", "", /*data=*/false}});
  sink.set_title("round-trip check");
  sink.add_row({{"6 hrs", 6.0}, {2.0, 2}, {123.456789, 1}, {"starred"}});
  sink.add_row({{"30 hrs", 30.0}, {1.5, 2}, {7.0, 1}, {"plain"}});
  return sink;
}

TEST(ResultSink, CsvRoundTrip) {
  const std::string dir = testing::TempDir();
  make_sink().write_csv(dir);
  std::ifstream in(dir + "/roundtrip.csv");
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // Keys (not display headers), in_data=false columns skipped.
  EXPECT_EQ(line, "mtbf_h,r,t_min");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "6.000000,2.000000,123.456789");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "30.000000,1.500000,7.000000");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(ResultSink, NdjsonRoundTrip) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  make_sink().write_ndjson(tmp);
  std::rewind(tmp);
  char buffer[512];
  ASSERT_NE(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  EXPECT_STREQ(buffer,
               "{\"table\":\"roundtrip\",\"mtbf_h\":6.000000,\"r\":2.000000,"
               "\"t_min\":123.456789}\n");
  ASSERT_NE(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  EXPECT_STREQ(buffer,
               "{\"table\":\"roundtrip\",\"mtbf_h\":30.000000,\"r\":1.500000,"
               "\"t_min\":7.000000}\n");
  EXPECT_EQ(std::fgets(buffer, sizeof buffer, tmp), nullptr);
  std::fclose(tmp);
}

TEST(ResultSink, TextRenderingContainsHeadersAndValues) {
  const std::string text = make_sink().text();
  EXPECT_NE(text.find("round-trip check"), std::string::npos);
  EXPECT_NE(text.find("MTBF"), std::string::npos);
  EXPECT_NE(text.find("T [min]"), std::string::npos);
  EXPECT_NE(text.find("123.5"), std::string::npos);  // digits=1 rendering
  EXPECT_NE(text.find("starred"), std::string::npos);
}

TEST(ResultSink, RejectsMismatchedRowWidth) {
  exp::ResultSink sink("bad", {{"a"}, {"b"}});
  EXPECT_THROW(sink.add_row({{1.0, 0}}), std::invalid_argument);
}

// ---------------------------------------------------------------- BenchArgs

std::optional<exp::BenchArgs> parse_vec(std::vector<const char*> argv,
                                        std::string* error = nullptr) {
  argv.insert(argv.begin(), "bench_test");
  return exp::BenchArgs::try_parse(static_cast<int>(argv.size()),
                                   const_cast<char**>(argv.data()), error);
}

TEST(BenchArgs, DefaultsAndSeedPolicy) {
  const auto plain = parse_vec({});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->seeds, 2);
  EXPECT_EQ(plain->jobs, 0);
  EXPECT_FALSE(plain->json);
  EXPECT_TRUE(plain->filter.empty());

  ASSERT_TRUE(parse_vec({"--quick"}).has_value());
  EXPECT_EQ(parse_vec({"--quick"})->seeds, 1);
  EXPECT_EQ(parse_vec({"--full"})->seeds, 5);
  // Explicit --seeds wins over the mode default.
  EXPECT_EQ(parse_vec({"--quick", "--seeds", "7"})->seeds, 7);
}

TEST(BenchArgs, ParsesHarnessFlags) {
  const auto args = parse_vec(
      {"--jobs", "4", "--json", "--filter", "mtbf=6,r=2.5", "--csv", "/tmp/x"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->jobs, 4);
  EXPECT_TRUE(args->json);
  EXPECT_EQ(args->filter, "mtbf=6,r=2.5");
  ASSERT_TRUE(args->csv_dir.has_value());
  EXPECT_EQ(*args->csv_dir, "/tmp/x");
  EXPECT_EQ(exp::SweepRunner(args->run_options()).jobs(), 4);
}

TEST(BenchArgs, RejectsInvalidSeedCounts) {
  std::string error;
  EXPECT_FALSE(parse_vec({"--seeds", "0"}, &error).has_value());
  EXPECT_NE(error.find("--seeds"), std::string::npos);
  EXPECT_FALSE(parse_vec({"--seeds", "-3"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--seeds", "two"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--seeds", "3x"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--seeds"}, &error).has_value());
  EXPECT_NE(error.find("requires a value"), std::string::npos);
}

TEST(BenchArgs, RejectsBadFlagsAndCombinations) {
  std::string error;
  EXPECT_FALSE(parse_vec({"--sedes", "3"}, &error).has_value());
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(parse_vec({"--quick", "--full"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--jobs", "0"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--filter", "mtbf"}, &error).has_value());
  EXPECT_FALSE(parse_vec({"--help"}, &error).has_value());
  EXPECT_EQ(error, "help");
}

TEST(BenchArgs, EngineFlagParsesTheExecutorMode) {
  EXPECT_EQ(parse_vec({})->engine, runtime::ExecMode::kAuto);
  EXPECT_EQ(parse_vec({"--engine", "event"})->engine,
            runtime::ExecMode::kEvent);
  EXPECT_EQ(parse_vec({"--engine", "fastforward"})->run_options().engine,
            runtime::ExecMode::kFastForward);
  std::string error;
  EXPECT_FALSE(parse_vec({"--engine", "fast"}, &error).has_value());
  EXPECT_NE(error.find("--engine"), std::string::npos);
}

// ---------------------------------------------------------------- PerfGuard

std::optional<exp::BenchArgs> parse_guarded(std::vector<const char*> argv,
                                            exp::PerfGuard* guard,
                                            std::string* error = nullptr) {
  argv.insert(argv.begin(), "bench_test");
  return exp::BenchArgs::try_parse(static_cast<int>(argv.size()),
                                   const_cast<char**>(argv.data()), error,
                                   guard);
}

TEST(PerfGuard, ParsesValidGuardFlags) {
  exp::PerfGuard guard;
  const auto args = parse_guarded({"--quick", "--guard", "base.json",
                                   "--tolerance", "0.2", "--repeat", "5"},
                                  &guard);
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->quick);
  EXPECT_EQ(guard.baseline_path, "base.json");
  EXPECT_DOUBLE_EQ(guard.tolerance, 0.2);
  EXPECT_EQ(guard.repeat, 5);

  exp::PerfGuard defaults;
  ASSERT_TRUE(parse_guarded({}, &defaults).has_value());
  EXPECT_TRUE(defaults.baseline_path.empty());
  EXPECT_DOUBLE_EQ(defaults.tolerance, 0.15);
  EXPECT_EQ(defaults.repeat, 3);

  exp::PerfGuard edges;
  ASSERT_TRUE(
      parse_guarded({"--tolerance", "0", "--repeat", "1"}, &edges).has_value());
  EXPECT_DOUBLE_EQ(edges.tolerance, 0.0);
  EXPECT_EQ(edges.repeat, 1);
}

TEST(PerfGuard, RejectsMalformedGuardValues) {
  for (const std::vector<const char*>& argv :
       std::vector<std::vector<const char*>>{{"--tolerance", "x"},
                                             {"--tolerance", "0.1x"},
                                             {"--tolerance", ""},
                                             {"--repeat", "three"},
                                             {"--repeat", "2.5"},
                                             {"--tolerance"},
                                             {"--repeat"},
                                             {"--guard"}}) {
    exp::PerfGuard guard;
    std::string error;
    EXPECT_FALSE(parse_guarded(argv, &guard, &error).has_value()) << argv[0];
    EXPECT_NE(error.find(argv[0]), std::string::npos) << error;
  }
}

TEST(PerfGuard, RejectsOutOfRangeGuardValues) {
  // A tolerance >= 1 makes the floor zero or negative, which turns the gate
  // off; a repeat of zero times nothing.
  for (const std::vector<const char*>& argv :
       std::vector<std::vector<const char*>>{{"--tolerance", "1"},
                                             {"--tolerance", "1.5"},
                                             {"--tolerance", "-0.1"},
                                             {"--tolerance", "nan"},
                                             {"--repeat", "0"},
                                             {"--repeat", "-2"}}) {
    exp::PerfGuard guard;
    std::string error;
    EXPECT_FALSE(parse_guarded(argv, &guard, &error).has_value())
        << argv[0] << " " << argv[1];
    EXPECT_NE(error.find(argv[0]), std::string::npos) << error;
  }
}

TEST(PerfGuard, GuardFlagsNeedAGuardedBench) {
  std::string error;
  EXPECT_FALSE(parse_vec({"--repeat", "3"}, &error).has_value());
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(parse_vec({"--guard", "base.json"}, &error).has_value());
}

constexpr const char* kBaseline =
    "{\n  \"scenarios\": [\n"
    "    {\"name\": \"fast_sim\", \"rate\": 1.000000e+02, \"unit\": "
    "\"events/sec\"},\n"
    "    {\"name\": \"zero_sim\", \"rate\": 0.000000e+00},\n"
    "    {\"name\": \"negative_sim\", \"rate\": -5.0},\n"
    "    {\"name\": \"garbled_sim\", \"rate\": fast}\n"
    "  ]\n}\n";

TEST(PerfGuard, BaselineLookup) {
  ASSERT_TRUE(exp::baseline_rate(kBaseline, "fast_sim").has_value());
  EXPECT_DOUBLE_EQ(*exp::baseline_rate(kBaseline, "fast_sim"), 100.0);
  EXPECT_FALSE(exp::baseline_rate(kBaseline, "absent_sim").has_value());
  // A name is matched whole: "fast" is not "fast_sim".
  EXPECT_FALSE(exp::baseline_rate(kBaseline, "fast").has_value());
  EXPECT_FALSE(exp::baseline_rate(kBaseline, "zero_sim").has_value());
  EXPECT_FALSE(exp::baseline_rate(kBaseline, "negative_sim").has_value());
  EXPECT_FALSE(exp::baseline_rate(kBaseline, "garbled_sim").has_value());
  EXPECT_FALSE(exp::baseline_rate("", "fast_sim").has_value());
}

TEST(PerfGuard, VerdictAtTheFloor) {
  exp::PerfGuard guard;
  const double base = 100.0;
  const double floor = base * (1.0 - guard.tolerance);
  EXPECT_TRUE(guard.passes(floor, base));
  EXPECT_TRUE(guard.passes(std::nextafter(floor, 1e300), base));
  EXPECT_FALSE(guard.passes(std::nextafter(floor, 0.0), base));
  guard.tolerance = 0.0;
  EXPECT_TRUE(guard.passes(base, base));
  EXPECT_FALSE(guard.passes(std::nextafter(base, 0.0), base));
}

TEST(PerfGuard, BestOfKeepsTheFastestRun) {
  exp::Measurement m{"sim", "events/sec"};
  m.keep_fastest(2.0, 10);
  m.keep_fastest(0.5, 20);
  m.keep_fastest(1.0, 30);
  EXPECT_DOUBLE_EQ(m.seconds, 0.5);
  EXPECT_EQ(m.ops, 20u);
  EXPECT_DOUBLE_EQ(m.rate(), 40.0);

  exp::PerfGuard guard;
  guard.repeat = 4;
  int runs = 0;
  const exp::Measurement timed =
      guard.best_of("sim", "events/sec", [&] {
        ++runs;
        return std::uint64_t{7};
      });
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(timed.ops, 7u);
  EXPECT_LT(timed.seconds, 1e300);
}

TEST(PerfGuard, CheckPrintsVerdictsAndFailsOnMissingScenarios) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "redcr_guard_baseline.json")
          .string();
  std::ofstream(path) << kBaseline;
  const exp::BenchArgs args = *parse_vec({});
  exp::PerfGuard guard;
  exp::Measurement fast{"fast_sim", "events/sec", 90, 1.0};
  exp::Measurement slow{"fast_sim", "events/sec", 80, 1.0};
  exp::Measurement absent{"absent_sim", "events/sec", 1, 1.0};

  // Without --guard nothing is compared.
  EXPECT_TRUE(guard.check(args, "bench_test", {&absent, 1}));

  guard.baseline_path = path;
  testing::internal::CaptureStdout();
  EXPECT_TRUE(guard.check(args, "bench_test", {&fast, 1}));
  EXPECT_FALSE(guard.check(args, "bench_test", {&slow, 1}));
  const std::string verdicts = testing::internal::GetCapturedStdout();
  EXPECT_NE(verdicts.find("guard vs " + path + " (tolerance 15%):\n"),
            std::string::npos);
  // The name is padded to 17 columns before the colon, the layout
  // scripts/bench_guard.sh parses.
  EXPECT_NE(verdicts.find("  fast_sim         :         90 vs baseline "
                          "       100 -> ok\n"),
            std::string::npos)
      << verdicts;
  EXPECT_NE(verdicts.find("         80 vs baseline        100 -> REGRESSION\n"),
            std::string::npos)
      << verdicts;

  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  absent.guarded = true;
  const std::vector<exp::Measurement> both = {fast, absent};
  EXPECT_FALSE(guard.check(args, "bench_test", both));
  (void)testing::internal::GetCapturedStdout();
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "bench_test: baseline has no rate for 'absent_sim'"),
            std::string::npos);
  // Unguarded scenarios are reported but never compared.
  absent.guarded = false;
  testing::internal::CaptureStdout();
  EXPECT_TRUE(guard.check(args, "bench_test", {&absent, 1}));
  (void)testing::internal::GetCapturedStdout();

  guard.baseline_path = path + ".missing";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(guard.check(args, "bench_test", {&fast, 1}));
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "cannot read baseline"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(PerfGuard, ReportPrintsTheScenarioRowUnderJson) {
  const exp::BenchArgs args = *parse_vec({"--json"});
  exp::Measurement m{"fast_sim", "events/sec", 1000, 0.5};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_TRUE(exp::PerfGuard{}.report(args, "bench_test", m, "note"));
  const std::string row = testing::internal::GetCapturedStdout();
  const std::string text = testing::internal::GetCapturedStderr();
  EXPECT_EQ(row,
            "{\"bench\": \"bench_test\", \"name\": \"fast_sim\", \"rate\": "
            "2.000000e+03, \"unit\": \"events/sec\", \"ops\": 1000, "
            "\"seconds\": 0.500000}\n");
  EXPECT_EQ(text, "fast_sim           :       2000 events/sec (note)\n");

  m.speedup = 12.5;
  m.speedup_label = "speedup_vs_event";
  EXPECT_NE(m.json_fields().find(", \"speedup_vs_event\": 12.500"),
            std::string::npos);
}

TEST(PerfGuard, AbsoluteRulesOnlyFailUnderGuard) {
  const exp::BenchArgs args = *parse_vec({});
  exp::Measurement m{"ff_sim", "episodes/sec", 1, 1.0, 8.0, "speedup_vs_event"};
  exp::PerfGuard guard;
  EXPECT_TRUE(guard.require(args, m, false, "%.1fx", "must skip"));
  guard.baseline_path = "base.json";
  EXPECT_TRUE(guard.require(args, m, true, "%.1fx", "must skip"));
  testing::internal::CaptureStdout();
  EXPECT_FALSE(guard.require(args, m, false, "%.1fx vs event engine",
                             "must skip"));
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "  ff_sim           : 8.0x vs event engine -> REGRESSION "
            "(must skip)\n");
}

}  // namespace
