// redcr_cli — command-line front end to the library.
//
//   redcr_cli model    [machine/job flags] [--r R | --optimize]
//   redcr_cli sweep    [machine/job flags] [--step S]
//   redcr_cli run      [cluster flags] --workload W --redundancy R ...
//                      [--trace-out FILE] [--metrics-out FILE]
//
// `model` evaluates the paper's combined model at one degree (or finds the
// optimum); `sweep` prints the full degree sweep with crossovers; `run`
// (alias: `simulate`) runs an actual job on the discrete-event cluster and
// prints the report and per-episode timeline — optionally exporting a
// Chrome trace-event JSON (open in Perfetto / chrome://tracing) and an
// NDJSON metrics dump of the run.
//
// Run with --help (or no arguments) for the full flag list.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/cg.hpp"
#include "apps/master_worker.hpp"
#include "apps/serve.hpp"
#include "apps/spectral.hpp"
#include "apps/stencil.hpp"
#include "apps/synthetic.hpp"
#include "redcr/redcr.hpp"
#include "util/table.hpp"

namespace {

using namespace redcr;
using util::fmt;
using util::fmt_count;

/// Strict number parse: the whole of `text` must be one (atof would read
/// "abc" as 0 and "5x" as 5). Throws std::invalid_argument naming `what`.
double parse_number(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw std::invalid_argument(what + ": '" + text + "' is not a number");
  return value;
}

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";  // boolean flag
      }
    }
  }

  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : parse_number(it->second, "--" + key);
  }
  /// --jobs N|auto; "auto", 0 and absence all mean every hardware core
  /// (the exp::BenchArgs encoding).
  [[nodiscard]] int jobs() const {
    if (text("jobs", "auto") == "auto") return 0;
    const double jobs = number("jobs", 0);
    if (!(jobs >= 0.0 && jobs <= 1 << 24) || jobs != std::floor(jobs))
      throw std::invalid_argument("--jobs must be a count or 'auto', got " +
                                  text("jobs", ""));
    return static_cast<int>(jobs);
  }
  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

model::CombinedConfig model_config(const Flags& flags) {
  // Checked before the size_t cast, which is undefined for negative values.
  const double procs = flags.number("procs", 50000);
  if (!(procs >= 1.0 && procs <= 1e15))
    throw std::invalid_argument("--procs must be in [1, 1e15], got " +
                                flags.text("procs", ""));
  return redcr::scenario()
      .node_mtbf(util::years(flags.number("mtbf-years", 5)))
      .checkpoint_cost(flags.number("ckpt-sec", 600))
      .restart_cost(flags.number("restart-sec", 1800))
      .base_time(util::hours(flags.number("hours", 128)))
      .comm_fraction(flags.number("alpha", 0.2))
      .processes(static_cast<std::size_t>(procs))
      .build();
}

void print_prediction(const model::Prediction& p) {
  std::printf("degree r             : %.3fx\n", p.r);
  std::printf("physical processes   : %s\n",
              fmt_count(static_cast<long long>(p.total_procs)).c_str());
  std::printf("t_Red                : %.2f h\n",
              util::to_hours(p.redundant_time));
  std::printf("system MTBF          : %.2f h\n", util::to_hours(p.system_mtbf));
  std::printf("checkpoint interval  : %.1f min (Daly)\n",
              util::to_minutes(p.interval));
  std::printf("expected checkpoints : %.0f\n", p.expected_checkpoints);
  std::printf("expected failures    : %.2f\n", p.expected_failures);
  std::printf("TOTAL WALLCLOCK      : %.2f h\n", util::to_hours(p.total_time));
}

int cmd_model(const Flags& flags) {
  const model::CombinedConfig cfg = model_config(flags);
  if (flags.flag("optimize")) {
    const model::Optimum best = model::optimize_redundancy(cfg);
    std::printf("optimal configuration:\n");
    print_prediction(best.prediction);
    const model::IntervalOptimum interval =
        model::optimal_interval_search(cfg, best.r);
    std::printf("direct-optimal delta : %.1f min (Daly penalty %.2f%%)\n",
                util::to_minutes(interval.best_interval),
                100 * interval.daly_penalty);
    return 0;
  }
  // predict() only asserts its domain; the simulator's degree range
  // [1, 8] is the one the CLI accepts.
  const double r = flags.number("r", 2.0);
  if (!(r >= 1.0 && r <= 8.0))
    throw std::invalid_argument("--r must be a degree in [1, 8], got " +
                                flags.text("r", ""));
  print_prediction(model::predict(cfg, r));
  return 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

// Model-side hierarchy knobs for `sweep`: --ml-levels "p:fetch[:stale];..."
// (fastest level first), --flush-cost / --flush-period, --async-flush with
// --exposed. Throws std::invalid_argument naming the bad knob.
model::UnreliableCkptParams unreliable_sweep_params(const Flags& flags) {
  model::UnreliableCkptParams u;
  const std::string spec = flags.text("ml-levels", "");
  if (!spec.empty()) {
    for (const std::string& part : split(spec, ';')) {
      const std::vector<std::string> fields = split(part, ':');
      if (fields.size() < 2 || fields.size() > 3)
        throw std::invalid_argument(
            "--ml-levels: expected 'prob:fetch_sec[:staleness_periods]' per "
            "';'-separated level, got '" +
            part + "'");
      model::UnreliableCkptParams::LevelRecovery level;
      level.recovery_prob = parse_number(fields[0], "--ml-levels");
      level.fetch_cost = parse_number(fields[1], "--ml-levels");
      if (fields.size() == 3)
        level.staleness_periods = parse_number(fields[2], "--ml-levels");
      u.levels.push_back(level);
    }
  }
  u.flush_cost = flags.number("flush-cost", 0.0);
  u.flush_period = flags.number("flush-period", 1.0);
  if (flags.flag("async-flush")) {
    u.async_flush = true;
    u.async_exposed_fraction = flags.number("exposed", 0.0);
  }
  u.validate();
  return u;
}

int cmd_sweep(const Flags& flags) {
  const model::CombinedConfig cfg = model_config(flags);
  const double step = flags.number("step", 0.25);
  // Bounded like serve's r_step, so a tiny step cannot allocate without end.
  if (!(step > 0.0) || !std::isfinite(step) || 2.0 / step > 1e6)
    throw std::invalid_argument("--step must be > 0 and give at most 1e6 "
                                "degrees over [1, 3]");

  // The sweep is the one campaign-shaped command: route it through the
  // experiment harness so it gets --jobs/--json/--filter/--csv for free.
  exp::BenchArgs args;
  args.jobs = flags.jobs();
  args.json = flags.flag("json");
  args.filter = flags.text("filter", "");
  args.keep_going = flags.flag("keep-going");
  if (flags.flag("csv")) {
    // Like BenchArgs: create DIR up front, or reject it before the sweep.
    const std::string dir = flags.text("csv", "");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!std::filesystem::is_directory(dir, ec))
      throw std::invalid_argument("--csv: cannot create directory '" + dir +
                                  "'");
    args.csv_dir = dir;
  }

  exp::ParamGrid grid;
  grid.axis("r", exp::ParamGrid::range(1.0, 3.0, step));
  const std::vector<exp::Trial> trials = grid.trials(args.filter);

  // Every cell is evaluated once through predict_unreliable, whose `base` is
  // exactly predict() and whose defaults (p_v = s = 1, no levels, no flush)
  // add nothing. The hierarchy/flush knobs only switch the printed schema
  // to the unreliable-C/R columns; without them the legacy columns (and
  // bytes) stay as they were. Under --keep-going the schema grows a status
  // column and a failing cell becomes a row instead of ending the sweep.
  const bool unreliable = flags.flag("ml-levels") ||
                          flags.flag("flush-cost") ||
                          flags.flag("async-flush");
  const model::UnreliableCkptParams u = unreliable
                                            ? unreliable_sweep_params(flags)
                                            : model::UnreliableCkptParams{};
  std::vector<exp::Column> columns = {{"r"}, {"T_total [h]", "total_h"}};
  if (!unreliable) columns.push_back({"nodes"});
  columns.insert(columns.end(), {{"Theta_sys [h]", "theta_sys_h"},
                                 {"delta [min]", "delta_min"},
                                 {"E[failures]", "expected_failures"}});
  if (unreliable)
    columns.insert(columns.end(), {{"P(recover)", "recovery_prob"},
                                   {"fail cost [min]", "per_failure_min"},
                                   {"flush [h]", "flush_h"},
                                   {"P(abort)", "abort_prob"}});
  if (args.keep_going) columns.push_back({"status"});
  exp::ResultSink t(unreliable ? "sweep_unreliable" : "sweep", columns);
  t.set_title(unreliable
                  ? "Redundancy sweep (unreliable C/R + storage hierarchy)"
                  : "Redundancy sweep");
  const exp::SweepRunner runner(args.run_options());
  const auto outcomes =
      runner.map_outcomes(trials, [&](const exp::Trial& trial) {
        return model::predict_unreliable(cfg, trial.at("r"), u);
      });
  double best_r = 1.0, best_t = 1e300;
  std::size_t best_row = 0;
  bool any_ok = false;
  std::size_t failed_cells = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const double r = trials[i].at("r");
    if (!outcomes[i].ok()) {
      if (!args.keep_going) {
        std::fprintf(stderr, "redcr_cli sweep: r=%.2f: %s\n", r,
                     outcomes[i].error.c_str());
        return 1;
      }
      ++failed_cells;
      std::vector<exp::Cell> row(columns.size() - 1, exp::Cell("-"));
      row.front() = {r, 2};
      row.emplace_back("failed: " + outcomes[i].error);
      t.add_row(std::move(row));
      continue;
    }
    const model::UnreliablePrediction& p = outcomes[i].value;
    const model::Prediction& b = p.base;
    const double total = unreliable ? p.total_time : b.total_time;
    std::vector<exp::Cell> row = {{r, 2}, {util::to_hours(total), 1}};
    if (!unreliable)
      row.push_back(exp::Cell::count(static_cast<long long>(b.total_procs)));
    row.insert(row.end(), {{util::to_hours(b.system_mtbf), 1},
                           {util::to_minutes(b.interval), 1},
                           {b.expected_failures, 1}});
    if (unreliable)
      row.insert(row.end(), {{p.recovery_probability, 4},
                             {util::to_minutes(p.per_failure_overhead), 1},
                             {util::to_hours(p.flush_overhead_total), 2},
                             {p.abort_probability, 4}});
    if (args.keep_going) row.emplace_back("ok");
    t.add_row(std::move(row));
    if (!any_ok || total < best_t) {
      best_t = total;
      best_r = r;
      best_row = i;
      any_ok = true;
    }
  }
  if (any_ok) t.emphasize_row(best_row, 1);
  t.emit(args);
  if (failed_cells > 0)
    args.say("%zu of %zu cells failed (kept going)\n", failed_cells,
             trials.size());
  if (unreliable) {
    if (any_ok) args.say("best degree: %.2fx\n", best_r);
    return 0;
  }
  if (!args.keep_going || any_ok)
    args.say("best degree: %.2fx\n\n", best_r);

  model::CombinedConfig probe = cfg;
  const auto x12 = model::crossover_procs(probe, 1.0, 2.0, 100, 5000000);
  if (x12)
    args.say("2x beats 1x from N = %s processes (at these machine "
             "parameters)\n",
             fmt_count(static_cast<long long>(*x12)).c_str());
  return 0;
}

runtime::WorkloadFactory make_workload(const std::string& name,
                                       const Flags& flags) {
  if (name == "cg") {
    apps::CgSpec spec;
    spec.rows_per_rank =
        static_cast<std::size_t>(flags.number("rows", 64));
    spec.max_iterations = static_cast<long>(flags.number("iterations", 150));
    spec.compute_per_iteration = flags.number("compute-sec", 5.0);
    return [spec](int rank, int n) {
      return std::make_unique<apps::CgSolver>(spec, rank, n);
    };
  }
  if (name == "stencil") {
    apps::StencilSpec spec;
    spec.iterations = static_cast<long>(flags.number("iterations", 64));
    spec.compute_per_iteration = flags.number("compute-sec", 5.0);
    const int side = static_cast<int>(flags.number("grid-side", 2));
    spec.grid = {side, side, side};
    return [spec](int, int) { return std::make_unique<apps::Stencil3d>(spec); };
  }
  if (name == "spectral") {
    apps::SpectralSpec spec;
    spec.iterations = static_cast<long>(flags.number("iterations", 32));
    spec.compute_per_iteration = flags.number("compute-sec", 5.0);
    return [spec](int, int) {
      return std::make_unique<apps::SpectralWorkload>(spec);
    };
  }
  if (name == "masterworker") {
    apps::MasterWorkerSpec spec;
    spec.rounds = static_cast<long>(flags.number("iterations", 32));
    spec.base_task_cost = flags.number("compute-sec", 1.0);
    return [spec](int rank, int n) {
      return std::make_unique<apps::MasterWorker>(spec, rank, n);
    };
  }
  // default: the CG-shaped synthetic workload
  apps::SyntheticSpec spec;
  spec.iterations = static_cast<long>(flags.number("iterations", 92));
  spec.compute_per_iteration = flags.number("compute-sec", 24.0);
  spec.halo_bytes = flags.number("halo-bytes", 300e6);
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

int cmd_simulate(const Flags& flags) {
  runtime::JobConfig cfg;
  cfg.num_virtual = static_cast<std::size_t>(flags.number("virtual", 32));
  cfg.redundancy = flags.number("redundancy", 2.0);
  cfg.network.bandwidth = flags.number("bandwidth", 100e6);
  cfg.storage.bandwidth = flags.number("storage-bandwidth", 2e9);
  cfg.image_bytes = flags.number("image-bytes", 1e9);
  cfg.restart_cost = flags.number("restart-sec", 500);
  cfg.fail.node_mtbf = util::hours(flags.number("mtbf-hours", 6));
  cfg.fail.seed = static_cast<std::uint64_t>(flags.number("seed", 1));
  cfg.fail.weibull_shape = flags.number("weibull-shape", 1.0);
  cfg.replication = flags.text("protocol", "push") == "pull"
                        ? runtime::Replication::kPull
                        : runtime::Replication::kPush;
  if (flags.flag("msg-plus-hash")) cfg.red.mode = red::Mode::kMsgPlusHash;
  if (flags.flag("live")) {
    cfg.live_failure_semantics = true;
    cfg.checkpoint_enabled = false;
  }
  if (flags.flag("no-checkpoint")) cfg.checkpoint_enabled = false;
  if (cfg.checkpoint_enabled)
    cfg.checkpoint_interval = flags.number("interval-sec", 300);
  if (flags.flag("no-failures")) cfg.inject_failures = false;
  cfg.ckpt_forked = flags.flag("forked-checkpoint");
  cfg.ckpt_incremental_fraction = flags.number("incremental-fraction", 1.0);

  // Unreliable-C/R knobs. Defaults keep every probability at zero and the
  // retention depth at one, which is byte-identical to the pre-fault
  // pipeline (no extra events, no extra metrics, same stdout).
  cfg.ckpt_faults.write_failure_prob =
      flags.number("ckpt-write-failure-prob", 0.0);
  cfg.ckpt_faults.corruption_prob = flags.number("ckpt-corruption-prob", 0.0);
  cfg.ckpt_faults.restart_failure_prob =
      flags.number("restart-failure-prob", 0.0);
  cfg.ckpt_faults.seed = static_cast<std::uint64_t>(
      flags.number("faults-seed", static_cast<double>(cfg.ckpt_faults.seed)));
  // Silent-data-corruption injection. Defaults keep both rates at zero,
  // which leaves every payload strain-free and the stdout byte-identical
  // to an SDC-free build.
  cfg.sdc.inflight_prob = flags.number("sdc-inflight-prob", 0.0);
  cfg.sdc.atrest_rate = flags.number("sdc-atrest-rate", 0.0);
  cfg.sdc.seed = static_cast<std::uint64_t>(
      flags.number("sdc-seed", static_cast<double>(cfg.sdc.seed)));
  cfg.ckpt_retention = static_cast<int>(flags.number("ckpt-retention", 1));
  cfg.ckpt_write_retry.max_attempts = static_cast<int>(
      flags.number("write-retries", cfg.ckpt_write_retry.max_attempts));
  cfg.restart_retry.max_attempts = static_cast<int>(
      flags.number("restart-retries", cfg.restart_retry.max_attempts));
  // Presence-gated so an explicit bad value (negative, NaN) reaches
  // RetryPolicy::validate instead of being mistaken for "not given".
  if (flags.flag("retry-backoff")) {
    const double backoff = flags.number("retry-backoff", 0.0);
    cfg.ckpt_write_retry.backoff_base = backoff;
    cfg.restart_retry.backoff_base = backoff;
  }
  if (flags.flag("retry-backoff-cap")) {
    const double backoff_cap = flags.number("retry-backoff-cap", 0.0);
    cfg.ckpt_write_retry.backoff_cap = backoff_cap;
    cfg.restart_retry.backoff_cap = backoff_cap;
  }

  // Multi-level storage hierarchy. Absent --ckpt-levels runs the flat
  // single-device store (and keeps its stdout byte-identical).
  const std::string levels_spec = flags.text("ckpt-levels", "");
  if (flags.flag("ckpt-levels")) {
    try {
      cfg.hierarchy = ckpt::parse_hierarchy(levels_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "redcr_cli: --ckpt-levels: %s\n", e.what());
      return 2;
    }
    cfg.hierarchy.async_flush = flags.flag("async-flush");
  } else if (flags.flag("async-flush")) {
    std::fprintf(stderr,
                 "redcr_cli: --async-flush requires --ckpt-levels with a "
                 "pfs level\n");
    return 2;
  }

  // run_job attaches the observability recorder when a sink is requested
  // and writes the exports after the run; main() already applied the log
  // level, so the option block carries only the sinks here.
  redcr::RunOptions options;
  options.trace_out = flags.text("trace-out", "");
  options.metrics_out = flags.text("metrics-out", "");
  options.journal_out = flags.text("journal-out", "");
  // Engine default: auto — fast-forward wherever bit-identity is provable,
  // event otherwise (a --trace-out/--journal-out sink always falls back:
  // the arithmetic skip produces no per-event output to record).
  const std::string engine_name = flags.text("engine", "auto");
  const std::optional<runtime::ExecMode> engine_mode =
      runtime::parse_engine(engine_name);
  if (!engine_mode) {
    std::fprintf(stderr,
                 "redcr_cli: invalid --engine '%s' (expected "
                 "event|fastforward|auto)\n",
                 engine_name.c_str());
    return 2;
  }
  options.engine = *engine_mode;
  runtime::WorkloadFactory workload =
      make_workload(flags.text("workload", "synthetic"), flags);
  runtime::JobReport report;
  try {
    report = redcr::run_job(cfg, std::move(workload), options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "redcr_cli: %s\n", e.what());
    return 1;
  }

  // `--journal-out -` hands stdout to the journal stream so it can pipe
  // straight into `redcr_cli analyze --journal -`; the human summary moves
  // to stderr to keep the pipe parseable. The older `--trace-out -` /
  // `--metrics-out -` keep their historical stdout mixing (pinned bytes).
  std::FILE* text = options.journal_out == "-" ? stderr : stdout;
  const bool unreliable = runtime::ckpt_unreliable(cfg);
  const char* outcome = report.completed ? "completed"
                        : report.abort   ? "ABORTED"
                                         : "GAVE UP (max episodes)";
  std::fprintf(text, "outcome          : %s\n", outcome);
  std::fprintf(text, "wallclock        : %.1f min\n", util::to_minutes(report.wallclock));
  std::fprintf(text, "  useful work    : %.1f min\n", util::to_minutes(report.useful_work));
  std::fprintf(text, "  checkpoints    : %.1f min (%d taken)\n",
              util::to_minutes(report.checkpoint_time), report.checkpoints);
  std::fprintf(text, "  rework         : %.1f min\n", util::to_minutes(report.rework_time));
  std::fprintf(text, "  restarts       : %.1f min (%d job failures)\n",
              util::to_minutes(report.restart_time), report.job_failures);
  // Fault-pipeline accounting only appears when the pipeline can actually
  // fail; zero-fault retention-1 stdout stays byte-identical to pre-fault
  // builds.
  if (unreliable) {
    std::fprintf(text, "  ckpt writes    : %llu failed, %d epochs abandoned, "
                "%.1f min wasted\n",
                static_cast<unsigned long long>(report.ckpt_write_failures),
                report.failed_checkpoints,
                util::to_minutes(report.wasted_write_time));
    std::fprintf(text, "  restart tries  : %d (%d failed, %d fallback restores)\n",
                report.restart_attempts, report.failed_restarts,
                report.fallback_restores);
    if (report.abort)
      std::fprintf(text, "abort            : %s\n", report.abort->describe().c_str());
  }
  // SDC accounting; only emitted when an --sdc-* rate is nonzero, so
  // SDC-free stdout stays byte-identical.
  if (cfg.sdc.enabled()) {
    std::fprintf(text,
                 "  sdc            : %llu injected (%llu corrected, %llu "
                 "passed undetected)\n",
                 static_cast<unsigned long long>(report.sdc_injected),
                 static_cast<unsigned long long>(report.sdc_corrected),
                 static_cast<unsigned long long>(report.sdc_undetected));
    std::fprintf(text,
                 "  sdc rollbacks  : %d (%d unverified ckpts invalidated, "
                 "%.1f min rework)\n",
                 report.sdc_rollbacks, report.sdc_invalidated_ckpts,
                 util::to_minutes(report.sdc_rework));
    if (report.sdc_rollbacks > 0)
      std::fprintf(text, "  sdc latency    : %.1f s mean detection\n",
                   report.sdc_detection_latency / report.sdc_rollbacks);
    if (report.sdc_infected_final > 0)
      std::fprintf(text,
                   "  WARNING        : job finished with %llu rank(s) "
                   "silently corrupted\n",
                   static_cast<unsigned long long>(report.sdc_infected_final));
  }
  // Hierarchy accounting; only emitted when --ckpt-levels was given (the
  // flat store reports no levels), so flat-pipeline stdout stays
  // byte-identical.
  if (!report.levels.empty()) {
    std::fprintf(text, "  flush          : %.1f min drain (%d landed, %d lost)\n",
                util::to_minutes(report.flush_time), report.flushes_completed,
                report.flushes_lost);
    std::fprintf(text, "  fetch          : %.1f min\n",
                util::to_minutes(report.fetch_time));
    for (std::size_t l = 0; l < report.levels.size(); ++l) {
      const auto& lv = report.levels[l];
      std::fprintf(text, "  level %zu %-7s: %llu writes (%llu failed), "
                  "%llu commits, %llu serves, %llu defeated\n",
                  l, lv.kind.c_str(),
                  static_cast<unsigned long long>(lv.writes),
                  static_cast<unsigned long long>(lv.write_failures),
                  static_cast<unsigned long long>(lv.commits),
                  static_cast<unsigned long long>(lv.fetches),
                  static_cast<unsigned long long>(lv.defeated));
    }
  }
  std::fprintf(text, "replica deaths   : %d\n", report.physical_failures);
  std::fprintf(text, "physical procs   : %zu\n", report.num_physical);
  std::fprintf(text, "messages         : %s\n",
              fmt_count(static_cast<long long>(report.messages)).c_str());
  if (report.red_mismatches_detected > 0)
    std::fprintf(text, "SDC detected     : %llu (corrected %llu)\n",
                static_cast<unsigned long long>(report.red_mismatches_detected),
                static_cast<unsigned long long>(report.red_mismatches_corrected));
  std::fprintf(text, "\ntimeline:\n%s", runtime::render_trace(report.trace).c_str());
  return report.completed ? 0 : 1;
}

// Reads a whole file ("-" = stdin) into a string; throws std::runtime_error
// naming the path on failure.
std::string read_text(const std::string& path) {
  std::FILE* in = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (in == nullptr)
    throw std::runtime_error("cannot open '" + path + "' for reading");
  std::string text;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, in)) > 0)
    text.append(buffer, n);
  if (in != stdin) std::fclose(in);
  return text;
}

int cmd_analyze(const Flags& flags) {
  const std::string path = flags.text("journal", "");
  if (path.empty()) {
    std::fprintf(
        stderr,
        "redcr_cli analyze: --journal FILE is required ('-' = stdin)\n");
    return 2;
  }
  std::vector<obs::Journal::Event> events;
  try {
    events = obs::parse_journal(read_text(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "redcr_cli analyze: %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }

  // Run-diff triage: exit 0 when the journals are event-identical, 1 with
  // the first divergent event (plus causal context) otherwise.
  if (flags.flag("diff")) {
    const std::string diff_path = flags.text("diff", "");
    std::vector<obs::Journal::Event> other;
    try {
      other = obs::parse_journal(read_text(diff_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "redcr_cli analyze: %s: %s\n", diff_path.c_str(),
                   e.what());
      return 2;
    }
    const obs::DiffResult result = obs::diff(events, other);
    std::fputs(result.render(events, other).c_str(), stdout);
    return result.identical ? 0 : 1;
  }

  const bool want_levels = flags.flag("levels");
  const bool want_blame = flags.flag("blame") || !want_levels;  // the default
  if (want_blame) {
    const obs::BlameReport report = obs::blame(events);
    obs::BlameOptions options;
    options.top_k = static_cast<int>(flags.number("top", 10));
    // Predicted-waste columns at the journal's observed δ, c, R — skipped
    // when the journal carries no interval (checkpointing off) or the user
    // asked for attribution only.
    if (!flags.flag("no-model") && report.summary.interval > 0.0) {
      const model::FailureWaste waste = model::predicted_failure_waste(
          report.summary.interval, report.summary.mean_ckpt_cost,
          report.summary.restart_cost);
      options.predicted_rework = waste.rework;
      options.predicted_restart = waste.restart;
    }
    std::fputs(report.render(options).c_str(), stdout);
    if (!report.reconciled()) {
      std::fprintf(stderr,
                   "redcr_cli analyze: blame does NOT reconcile with the "
                   "executor invariant (residual %.9g s)\n",
                   report.residual);
      return 1;
    }
  }
  if (want_levels) {
    if (want_blame) std::fputs("\n", stdout);
    std::fputs(obs::level_efficacy(events).render().c_str(), stdout);
  }
  return 0;
}

// Capacity-planner-as-a-service: replay an NDJSON query log through
// redcr::Planner (apps::serve_replay). Responses go to stdout (pipe-pure,
// deterministic bytes — golden-diffable); the qps/latency report and the
// planner.* metrics NDJSON go to stderr.
int cmd_serve(const Flags& flags) {
  const std::string path = flags.text("replay", "");
  if (path.empty()) {
    std::fprintf(stderr,
                 "redcr_cli serve: --replay FILE is required ('-' = stdin)\n");
    return 2;
  }
  apps::ServeOptions options;
  options.jobs = flags.jobs();
  // Checked before the size_t cast, which is undefined for negative, NaN
  // and huge values. 0 means an unbounded cache (no eviction).
  const double cache = flags.number("cache", 256);
  if (!(cache >= 0.0 && cache <= 1e15) || cache != std::floor(cache))
    throw std::invalid_argument(
        "--cache must be a whole number in [0, 1e15] (0 = no eviction), "
        "got " + flags.text("cache", ""));
  options.cache_capacity = static_cast<std::size_t>(cache);
  const std::string mode = flags.text("mode", "fast");
  if (mode == "exact") {
    options.mode = model::EvalMode::kExact;
  } else if (mode != "fast") {
    std::fprintf(stderr,
                 "redcr_cli serve: invalid --mode '%s' (expected fast|exact)\n",
                 mode.c_str());
    return 2;
  }
  std::string requests;
  std::string responses;
  apps::ServeReport report;
  try {
    requests = read_text(path);
    report = apps::serve_replay(requests, responses, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "redcr_cli serve: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  std::fwrite(responses.data(), 1, responses.size(), stdout);
  std::fputs(report.render().c_str(), stderr);
  obs::Registry registry;
  report.export_metrics(registry);
  registry.write_ndjson(stderr);
  return 0;
}

void usage() {
  std::printf(
      "redcr_cli — combined partial redundancy + checkpointing toolkit\n\n"
      "  redcr_cli model    --procs N --hours T --mtbf-years Y --alpha A\n"
      "                     --ckpt-sec C --restart-sec R (--r R | --optimize)\n"
      "  redcr_cli sweep    [same machine flags] [--step 0.25] [--jobs N|auto]\n"
      "                     [--json] [--filter 'r=2'] [--csv DIR]\n"
      "                     [--keep-going]\n"
      "                     [--ml-levels 'p:fetch[:stale];...'] [--flush-cost C]\n"
      "                     [--flush-period M] [--async-flush] [--exposed F]\n"
      "  redcr_cli run      --virtual N --redundancy R --mtbf-hours H\n"
      "                     [--workload synthetic|cg|stencil|spectral|masterworker]\n"
      "                     [--protocol push|pull] [--msg-plus-hash] [--live]\n"
      "                     [--no-checkpoint] [--no-failures] [--seed S]\n"
      "                     [--forked-checkpoint] [--incremental-fraction F]\n"
      "                     [--weibull-shape K] [--interval-sec D]\n"
      "                     [--ckpt-write-failure-prob P] [--ckpt-corruption-prob P]\n"
      "                     [--restart-failure-prob P] [--faults-seed S]\n"
      "                     [--ckpt-retention D] [--write-retries N]\n"
      "                     [--restart-retries N] [--retry-backoff B]\n"
      "                     [--retry-backoff-cap C]\n"
      "                     [--sdc-inflight-prob P] [--sdc-atrest-rate R]\n"
      "                     [--sdc-seed S]\n"
      "                     [--ckpt-levels SPEC] [--async-flush]\n"
      "                     [--engine event|fastforward|auto]\n"
      "                     [--trace-out FILE] [--metrics-out FILE]\n"
      "                     [--journal-out FILE]\n"
      "                     (alias: simulate)\n"
      "  redcr_cli analyze  --journal FILE [--blame] [--levels] [--top K]\n"
      "                     [--no-model] [--diff FILE2]\n"
      "  redcr_cli serve    --replay FILE [--jobs N|auto] [--cache N]\n"
      "                     [--mode fast|exact]\n\n"
      "Serving: `serve --replay FILE` replays an NDJSON query log (one\n"
      "scenario per line, keys id/procs/hours/alpha/mtbf_years/ckpt_sec/\n"
      "restart_sec/r_min/r_max/r_step, all optional with `model`-flag\n"
      "defaults) through the plan-cached redcr::Planner and prints one\n"
      "NDJSON response per request on stdout — best_r, total_hours, nodes,\n"
      "interval_min, system_mtbf_hours, expected_failures, from_cache —\n"
      "deterministic bytes at any --jobs level. --cache N bounds the plan\n"
      "cache at N entries (default 256; 0 = no eviction). The qps/latency\n"
      "report and planner.* metrics land on stderr. --mode exact answers\n"
      "bitwise-identically to scalar predict(); fast (default) uses the\n"
      "vectorized kernels. '-' reads stdin.\n\n"
      "Journal analysis: `run --journal-out FILE` records every causally\n"
      "meaningful event (failures, per-level checkpoint commits, flush\n"
      "launches/losses, restarts, restores, rework, aborts) as NDJSON, each\n"
      "waste event carrying the id of its root sphere-death as `cause`.\n"
      "`analyze --blame` (the default) ranks root faults by attributed\n"
      "waste, reconciled exactly against the executor's accounting\n"
      "invariant, with model-predicted per-failure columns (--no-model\n"
      "omits them); `--levels` prints per-storage-level efficacy (work\n"
      "saved by restores served there minus write/flush/lost cost);\n"
      "`--diff FILE2` pinpoints the first divergent event between two runs\n"
      "(exit 0 = identical, 1 = divergent). '-' reads stdin.\n\n"
      "Storage hierarchy (run): --ckpt-levels takes ';'-separated levels,\n"
      "fastest first, each 'kind[,key=value...]' with kind one of\n"
      "local|partner|xor|pfs and keys bw (write B/s), lat (latency s),\n"
      "rbw (read B/s; 0 = free fetch), ret (generations kept), interval\n"
      "(write every m-th epoch; level 0 must use 1), corr (per-image\n"
      "corruption prob), wfail (write-failure prob), group (partner/xor\n"
      "group size; 0 = all ranks), k (xor rank losses tolerated). At most\n"
      "one pfs level, last. Restores fetch from the fastest level that\n"
      "survived the failure's dead set; --async-flush overlaps the pfs\n"
      "drain with useful work (an in-flight flush at a kill is lost).\n"
      "Example: --ckpt-levels 'local,bw=5e9;xor,group=4,k=1,bw=2e9;\n"
      "pfs,bw=4e8,interval=4' --async-flush\n\n"
      "Sweep hierarchy terms: --ml-levels gives per-level recovery\n"
      "probability, fetch seconds and staleness (checkpoint periods),\n"
      "fastest first; --flush-cost/--flush-period add a PFS drain every\n"
      "M-th checkpoint; --async-flush keeps only --exposed F of each drain\n"
      "on the critical path. Any of these switches the sweep to the\n"
      "unreliable-C/R prediction with recovery/abort columns.\n\n"
      "Unreliable C/R: checkpoint writes fail with probability P and are\n"
      "retried with capped exponential backoff; images silently corrupt with\n"
      "probability P and are detected at restart-time validation, falling\n"
      "back through --ckpt-retention generations; restart attempts fail with\n"
      "probability P. Exhausted retries or no valid generation aborts the\n"
      "job (exit 1) with a structured reason. All draws derive from\n"
      "--faults-seed, so reruns are bit-identical at any --jobs level.\n\n"
      "Silent data corruption (run, push protocol): --sdc-inflight-prob\n"
      "flips each redundant send copy with probability P; --sdc-atrest-rate\n"
      "corrupts each rank's resident state at exponential rate R per second.\n"
      "Replication itself is the detector: dual spheres detect the\n"
      "divergence (uncorrectable -> rollback to the last VERIFIED\n"
      "checkpoint, unverified generations invalidated), triple spheres\n"
      "outvote and correct it, unreplicated spheres pass it silently (the\n"
      "job finishes with a corruption warning). All draws derive from\n"
      "--sdc-seed, bit-identical at any --jobs level.\n\n"
      "Execution engine (run): --engine auto (default) skips the\n"
      "inter-failure event churn arithmetically wherever the fast-forward\n"
      "driver can prove the result bit-identical, and silently runs the\n"
      "event engine elsewhere; fastforward warns when it must fall back;\n"
      "event pins the full discrete-event simulation. Reports are\n"
      "bit-identical across engines for every supported configuration.\n\n"
      "Global: [--log-level debug|info|warn|error|off]  (or REDCR_LOG_LEVEL\n"
      "env var; the flag wins). --trace-out writes Chrome trace-event JSON\n"
      "(open in Perfetto or chrome://tracing); --metrics-out writes one\n"
      "JSON object per metric, newline-delimited; --journal-out writes the\n"
      "causal event journal, one event per line. Use '-' for stdout.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  // Env first, explicit flag last, so --log-level wins.
  util::init_log_level_from_env();
  const std::string log_level = flags.text("log-level", "");
  if (!log_level.empty()) {
    const auto level = util::parse_log_level(log_level);
    if (!level) {
      std::fprintf(stderr,
                   "redcr_cli: invalid --log-level '%s' "
                   "(expected debug|info|warn|error|off)\n",
                   log_level.c_str());
      return 2;
    }
    util::set_log_level(*level);
  }
  // An invalid_argument that escapes a command is bad input: a flag that is
  // not a number, or a value the model or harness rejects.
  try {
    if (command == "model") return cmd_model(flags);
    if (command == "sweep") return cmd_sweep(flags);
    if (command == "run" || command == "simulate") return cmd_simulate(flags);
    if (command == "analyze") return cmd_analyze(flags);
    if (command == "serve") return cmd_serve(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "redcr_cli %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  usage();
  return command == "--help" || command == "help" ? 0 : 2;
}
