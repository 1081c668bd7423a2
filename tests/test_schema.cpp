// Walks every knob table of the input schema (util/knob.hpp): redcr_cli's
// commands, the bench harness and its guard, the global --log-level, the
// storage-hierarchy keys and serve's scenario keys. Each knob must reject
// what lies outside its domain with an error that names it, and its
// default passed explicitly must parse like the default left out. The
// tables are enumerated here, so a new knob is tested without a new line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/serve.hpp"
#include "apps/synthetic.hpp"
#include "ckpt/hierarchy.hpp"
#include "ckpt/storage.hpp"
#include "cli_inputs.hpp"
#include "exp/exp.hpp"
#include "failure/faults.hpp"
#include "model/extensions.hpp"
#include "net/network.hpp"
#include "redcr/redcr.hpp"
#include "runtime/executor.hpp"

namespace {

using namespace redcr;
using util::Domain;

std::string number_text(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Parses `args` (argv without the program name) against `flags`; returns
/// the error message, or "" when the parse succeeds.
std::string error_of(const util::FlagSet& flags,
                     std::vector<std::string> args) {
  std::vector<char*> argv{nullptr};
  for (std::string& arg : args) argv.push_back(arg.data());
  try {
    (void)flags.parse(static_cast<int>(argv.size()), argv.data());
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

/// Numbers just outside a bounded domain, and a fraction inside a count's.
std::vector<double> outside_numbers(const Domain& d) {
  std::vector<double> out = {d.lo - std::max(1.0, std::abs(d.lo)),
                             d.hi + std::max(1.0, std::abs(d.hi))};
  if (d.kind == Domain::Kind::kCount)
    out.push_back(d.lo <= 0.0 && d.hi >= 1.0 ? 0.5 : d.lo + 0.5);
  return out;
}

/// Texts outside the domain: a non-number, NaN, ±inf and the numbers
/// above for a bounded one, an unlisted word for a word knob.
std::vector<std::string> outside(const Domain& d) {
  if (d.kind == Domain::Kind::kWord) return {"no-such-word"};
  if (d.kind != Domain::Kind::kNumber && d.kind != Domain::Kind::kCount)
    return {};
  std::vector<std::string> out = {"not-a-number"};
  if (!d.bounded()) return out;
  out.insert(out.end(), {"nan", "inf", "-inf"});
  for (const double x : outside_numbers(d)) out.push_back(number_text(x));
  return out;
}

/// Every knob's value after parsing `args`, from a copy of `flags` whose
/// setters only record.
std::map<std::string, std::string> parsed_values(
    const util::FlagSet& flags, std::vector<std::string> args) {
  std::map<std::string, std::string> seen;
  util::FlagSet recorder;
  for (util::Knob knob : flags.knobs()) {
    knob.set = [&seen, name = std::string(knob.name)](util::Value v) {
      seen[name] = number_text(v.number) + "|" + std::string(v.text) + "|" +
                   std::to_string(v.word);
    };
    recorder.add({knob});
  }
  EXPECT_EQ(error_of(recorder, std::move(args)), "");
  return seen;
}

void walk(const util::FlagSet& flags) {
  ASSERT_FALSE(flags.knobs().empty());
  std::set<std::string_view> names;
  for (const util::Knob& knob : flags.knobs()) {
    const std::string flag = "--" + std::string(knob.name);
    SCOPED_TRACE(flag);
    EXPECT_TRUE(names.insert(knob.name).second) << "declared twice";
    const auto names_flag = [&](std::vector<std::string> args) {
      const std::string error = error_of(flags, args);
      EXPECT_NE(error.find(flag), std::string::npos)
          << (args.size() > 1 ? args[1] : "") << " -> '" << error << "'";
    };
    if (knob.domain.kind == Domain::Kind::kSwitch) {
      names_flag({flag, "word"});
    } else {
      names_flag({flag});
      EXPECT_NE(error_of(flags, {flag}).find("requires a value"),
                std::string::npos);
    }
    for (const std::string& bad : outside(knob.domain))
      names_flag({flag, bad});
    if (!knob.fallback.empty()) {
      EXPECT_EQ(error_of(flags, {flag, std::string(knob.fallback)}), "");
      EXPECT_EQ(parsed_values(flags, {}),
                parsed_values(flags, {flag, std::string(knob.fallback)}));
    }
  }
  EXPECT_NE(error_of(flags, {"--no-such-flag", "1"}).find("unknown flag"),
            std::string::npos);
  EXPECT_NE(error_of(flags, {"stray"}).find("unexpected argument"),
            std::string::npos);
}

TEST(Schema, ModelFlags) {
  cli::ModelInputs in;
  walk(cli::model_flags(in));
}

TEST(Schema, SweepFlags) {
  cli::SweepInputs in;
  walk(cli::sweep_flags(in));
}

TEST(Schema, RunFlags) {
  cli::RunInputs in;
  walk(cli::run_flags(in));
}

TEST(Schema, AnalyzeFlags) {
  cli::AnalyzeInputs in;
  walk(cli::analyze_flags(in));
}

TEST(Schema, ServeFlags) {
  cli::ServeInputs in;
  walk(cli::serve_flags(in));
}

TEST(Schema, BenchAndGuardFlags) {
  exp::BenchArgs args;
  exp::PerfGuard guard;
  walk(exp::bench_flags(args, &guard));
}

TEST(Schema, GlobalLogLevel) {
  std::optional<util::LogLevel> level;
  walk(util::FlagSet{exp::log_level_knob(level)});
}

TEST(Schema, HierarchyKeys) {
  ckpt::LevelParams level;
  walk(ckpt::level_keys(level));
}

TEST(Schema, DefaultsAreTheDocumentedOnes) {
  cli::ModelInputs model;
  ASSERT_EQ(error_of(cli::model_flags(model), {}), "");
  const model::CombinedConfig cfg = model.scenario.build();
  EXPECT_EQ(cfg.app.num_procs, 50000u);
  EXPECT_DOUBLE_EQ(cfg.app.base_time, util::hours(128));
  EXPECT_DOUBLE_EQ(model.r, 2.0);
  cli::RunInputs run;
  ASSERT_EQ(error_of(cli::run_flags(run), {}), "");
  EXPECT_EQ(run.job.num_virtual, 32u);
  EXPECT_EQ(run.workload, "synthetic");
  EXPECT_EQ(run.options.engine, runtime::ExecMode::kAuto);
  EXPECT_FALSE(run.iterations.has_value());  // the workload's own default
}

TEST(Schema, ValuesReachTheirFields) {
  cli::RunInputs run;
  ASSERT_EQ(error_of(cli::run_flags(run),
                     {"--virtual", "8", "--seed", "9007199254740992",
                      "--protocol", "pull", "--live", "--ckpt-levels", "pfs",
                      "--iterations", "-3", "--engine", "event"}),
            "");
  EXPECT_EQ(run.job.num_virtual, 8u);
  EXPECT_EQ(run.job.fail.seed, 9007199254740992u);
  EXPECT_EQ(run.job.replication, runtime::Replication::kPull);
  EXPECT_TRUE(run.job.live_failure_semantics);
  EXPECT_FALSE(run.job.checkpoint_enabled);
  EXPECT_EQ(run.ckpt_levels, "pfs");
  EXPECT_EQ(run.iterations, -3);  // a count; JobExecutor judges its sense
  EXPECT_EQ(run.options.engine, runtime::ExecMode::kEvent);
  cli::ServeInputs serve;
  ASSERT_EQ(error_of(cli::serve_flags(serve),
                     {"--jobs", "auto", "--cache", "0", "--mode", "exact"}),
            "");
  EXPECT_EQ(serve.options.jobs, 0);
  EXPECT_EQ(serve.options.cache_capacity, 0u);
  EXPECT_EQ(serve.options.mode, model::EvalMode::kExact);
}

TEST(Schema, WorkloadFlagsNeedTheWorkloadThatReadsThem) {
  // --rows is cg's, --grid-side stencil's, --halo-bytes synthetic's; a
  // flag the chosen workload ignores is bad input, not silently dropped.
  const auto check = [](std::vector<std::string> args) -> std::string {
    cli::RunInputs run;
    const std::string parse_error = error_of(cli::run_flags(run), args);
    if (!parse_error.empty()) return "parse: " + parse_error;
    try {
      run.check_workload_flags();
      return "";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  EXPECT_EQ(check({"--rows", "8"}),
            "--rows is read only by --workload cg, not synthetic");
  EXPECT_EQ(check({"--grid-side", "3", "--workload", "cg"}),
            "--grid-side is read only by --workload stencil, not cg");
  EXPECT_EQ(check({"--workload", "stencil", "--halo-bytes", "1e6"}),
            "--halo-bytes is read only by --workload synthetic, not stencil");
  EXPECT_EQ(check({"--workload", "cg", "--rows", "8"}), "");
  EXPECT_EQ(check({"--grid-side", "3", "--workload", "stencil"}), "");
  EXPECT_EQ(check({"--halo-bytes", "1e6"}), "");
  // Their defaults apply to every workload without complaint.
  for (const char* workload :
       {"synthetic", "cg", "stencil", "spectral", "masterworker"})
    EXPECT_EQ(check({"--workload", workload}), "") << workload;
}

/// The message of the std::invalid_argument `reject` throws, or "".
template <class F>
std::string rejection_of(F reject) {
  try {
    reject();
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

/// True when `message` ends with `tail`.
bool ends_with(const std::string& message, std::string_view tail) {
  return message.size() >= tail.size() &&
         message.compare(message.size() - tail.size(), tail.size(), tail) == 0;
}

TEST(Schema, RejectedDoublesPrintAsSent) {
  // One case per validator class: a value just outside its range reads
  // back from the message, where std::to_string printed "-0.000000" or
  // "1.000000".
  const auto expect_tail = [](const std::string& message,
                              std::string_view tail) {
    EXPECT_TRUE(ends_with(message, tail)) << "'" << message << "'";
  };
  failure::CkptFaultParams faults;
  faults.corruption_prob = 1.0000001;
  expect_tail(rejection_of([&] { faults.validate(); }), "got 1.0000001");
  failure::SdcParams sdc;
  sdc.inflight_prob = -1e-9;
  expect_tail(rejection_of([&] { sdc.validate(); }), "got -1e-09");
  sdc = {};
  sdc.atrest_rate = -1e-9;
  expect_tail(rejection_of([&] { sdc.validate(); }), "got -1e-09");
  failure::RetryPolicy retry;
  retry.backoff_base = -1e-9;
  expect_tail(rejection_of([&] { retry.validate("retry"); }), "got -1e-09");
  retry = {};
  retry.backoff_cap = -1e-300;
  expect_tail(rejection_of([&] { retry.validate("retry"); }), "got -1e-300");

  ckpt::LevelParams level;
  level.corruption_prob = 1.0000001;
  expect_tail(rejection_of([&] { level.validate(0, 8); }), "got 1.0000001");
  level = {};
  level.write_failure_prob = -1e-9;
  expect_tail(rejection_of([&] { level.validate(0, 8); }), "got -1e-09");
  level = {};
  level.read_bandwidth = -1e-9;
  expect_tail(rejection_of([&] { level.validate(0, 8); }), "got -1e-09");
  ckpt::StorageParams storage;
  storage.bandwidth = -1e-9;
  expect_tail(rejection_of([&] { storage.validate(); }), "got -1e-09");
  storage = {};
  storage.base_latency = -1e-9;
  expect_tail(rejection_of([&] { storage.validate(); }), "got -1e-09");
  net::NetworkParams network;
  network.bandwidth = -1e-9;
  expect_tail(rejection_of([&] { network.validate(); }), "got -1e-09");

  const auto executor_rejection = [](const runtime::JobConfig& cfg) {
    return rejection_of([&] {
      runtime::JobExecutor(cfg, [](int, int) {
        return std::make_unique<apps::SyntheticWorkload>(
            apps::SyntheticSpec{});
      });
    });
  };
  runtime::JobConfig job;
  job.checkpoint_interval = -1e-9;
  EXPECT_NE(executor_rejection(job).find("got -1e-09 "), std::string::npos)
      << executor_rejection(job);
  job = {};
  job.restart_cost = -1e-9;
  expect_tail(executor_rejection(job), "got -1e-09");
  expect_tail(rejection_of([] {
                (void)model::predicted_failure_waste(-1e-9, 1.0, 1.0);
              }),
              "got -1e-09");
}

TEST(Schema, ServeRejectsOutOfDomainScenarioKeys) {
  ScenarioBuilder builder;
  const util::FlagSet keys = scenario_flags(builder);
  int bounded = 0;
  for (const util::Knob& knob : keys.knobs()) {
    if (!knob.domain.bounded()) continue;
    ++bounded;
    std::string key(knob.name);
    std::replace(key.begin(), key.end(), '-', '_');
    for (const double bad : outside_numbers(knob.domain)) {
      const std::string log =
          "{\"procs\": 1024}\n{\"" + key + "\": " + number_text(bad) + "}\n";
      std::string responses;
      try {
        (void)apps::serve_replay(log, responses);
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const std::runtime_error& e) {
        const std::string error = e.what();
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find(key), std::string::npos) << error;
      }
    }
  }
  EXPECT_GT(bounded, 0);
}

}  // namespace
