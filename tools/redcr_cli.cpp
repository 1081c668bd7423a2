// redcr_cli — command-line front end to the library.
//
// `model` evaluates the paper's combined model at one degree (or finds the
// optimum); `sweep` prints the full degree sweep with crossovers; `run`
// (alias: `simulate`) runs an actual job on the discrete-event cluster and
// prints the report and per-episode timeline — optionally exporting a
// Chrome trace-event JSON (open in Perfetto / chrome://tracing) and an
// NDJSON metrics dump of the run.
//
// Run with --help (or no arguments) for the flags, which cli_inputs.cpp
// declares.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_inputs.hpp"
#include "redcr/redcr.hpp"
#include "util/table.hpp"

namespace {

using namespace redcr;
using util::fmt;
using util::fmt_count;

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

int cmd_model(const cli::ModelInputs& in) {
  const model::CombinedConfig cfg = in.scenario.build();
  if (in.optimize) {
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
  print_prediction(model::predict(cfg, in.r));
  return 0;
}

int cmd_sweep(const cli::SweepInputs& in) {
  const model::CombinedConfig cfg = in.scenario.build();
  // The sweep is the one campaign-shaped command: it runs on the experiment
  // harness, so it gets --jobs/--json/--filter/--csv for free.
  const exp::BenchArgs& args = in.harness;

  exp::ParamGrid grid;
  grid.axis("r", exp::ParamGrid::range(1.0, 3.0, in.step));
  const std::vector<exp::Trial> trials = grid.trials(args.filter);

  // Every cell is evaluated once through predict_unreliable, whose `base` is
  // exactly predict() and whose defaults (p_v = s = 1, no levels, no flush)
  // add nothing. The hierarchy/flush knobs only switch the printed schema
  // to the unreliable-C/R columns; without them the legacy columns (and
  // bytes) stay as they were. Under --keep-going the schema grows a status
  // column and a failing cell becomes a row instead of ending the sweep.
  const bool unreliable = in.hierarchy_terms;
  model::UnreliableCkptParams u;
  if (unreliable) {
    u = in.unreliable;
    if (!u.async_flush) u.async_exposed_fraction = 0.0;  // --exposed needs it
    u.validate();
  }
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

int cmd_simulate(const cli::RunInputs& in) {
  in.check_workload_flags();  // bad input: main() exits 2
  runtime::JobConfig cfg = in.job;
  if (cfg.checkpoint_enabled) cfg.checkpoint_interval = in.interval_sec;
  if (in.ckpt_levels) {
    try {
      cfg.hierarchy = ckpt::parse_hierarchy(*in.ckpt_levels);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "redcr_cli: --ckpt-levels: %s\n", e.what());
      return 2;
    }
    cfg.hierarchy.async_flush = in.async_flush;
  } else if (in.async_flush) {
    std::fprintf(stderr,
                 "redcr_cli: --async-flush requires --ckpt-levels with a "
                 "pfs level\n");
    return 2;
  }

  // run_job attaches the observability recorder when a sink is requested
  // and writes the exports after the run; main() already applied the log
  // level, so the option block carries only the sinks and the engine.
  const redcr::RunOptions& options = in.options;
  runtime::JobReport report;
  try {
    report = redcr::run_job(cfg, in.workload_factory(), options);
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

int cmd_analyze(const cli::AnalyzeInputs& in) {
  const std::string& path = in.journal;
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
  if (in.diff) {
    const std::string& diff_path = *in.diff;
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

  const bool want_levels = in.levels;
  const bool want_blame = in.blame || !want_levels;  // the default
  if (want_blame) {
    const obs::BlameReport report = obs::blame(events);
    obs::BlameOptions options;
    options.top_k = in.top;
    // Predicted-waste columns at the journal's observed δ, c, R — skipped
    // when the journal carries no interval (checkpointing off) or the user
    // asked for attribution only.
    if (!in.no_model && report.summary.interval > 0.0) {
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
int cmd_serve(const cli::ServeInputs& in) {
  const std::string& path = in.replay;
  if (path.empty()) {
    std::fprintf(stderr,
                 "redcr_cli serve: --replay FILE is required ('-' = stdin)\n");
    return 2;
  }
  std::string requests;
  std::string responses;
  apps::ServeReport report;
  try {
    requests = read_text(path);
    report = apps::serve_replay(requests, responses, in.options);
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

/// "  redcr_cli <command> [--flag META (default)] ..." from the rows.
template <class Inputs>
void print_synopsis(const char* command, util::FlagSet (*flags_of)(Inputs&)) {
  Inputs unused;
  char head[32];
  std::snprintf(head, sizeof head, "  redcr_cli %-8s ", command);
  std::printf("%s%s", head,
              flags_of(unused).synopsis(std::string(head).size()).c_str());
}

util::FlagSet global_flags(std::optional<util::LogLevel>& log_level) {
  return {exp::log_level_knob(log_level)};
}

void usage() {
  std::printf(
      "redcr_cli — combined partial redundancy + checkpointing toolkit\n\n");
  print_synopsis("model", cli::model_flags);
  print_synopsis("sweep", cli::sweep_flags);
  print_synopsis("run", cli::run_flags);
  std::printf("%21s(alias: simulate)\n", "");
  print_synopsis("analyze", cli::analyze_flags);
  print_synopsis("serve", cli::serve_flags);
  print_synopsis("<any>", global_flags);
  std::printf(
      "\n"
      "Serving: `serve --replay FILE` replays an NDJSON query log (one\n"
      "scenario per line, keys id/procs/hours/alpha/mtbf_years/ckpt_sec/\n"
      "restart_sec/r_min/r_max/r_step, all optional; the scenario keys are\n"
      "the `model` flags with '_' for '-', defaults and ranges included)\n"
      "through the plan-cached redcr::Planner and prints one NDJSON\n"
      "response per request on stdout — best_r, total_hours, nodes,\n"
      "interval_min, system_mtbf_hours, expected_failures, from_cache —\n"
      "deterministic bytes, identical across reruns. --cache N bounds the\n"
      "plan cache at N entries (default 256; 0 = no eviction). The\n"
      "qps/latency report and planner.* metrics land on stderr. --mode\n"
      "exact answers bitwise-identically to scalar predict(); fast (default)\n"
      "uses the vectorized kernels. '-' reads stdin.\n\n"
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
      "Global: --log-level, or the REDCR_LOG_LEVEL env var (the flag wins).\n"
      "--trace-out writes Chrome trace-event JSON (open in Perfetto or\n"
      "chrome://tracing); --metrics-out writes one JSON object per metric,\n"
      "newline-delimited; --journal-out writes the causal event journal, one\n"
      "event per line. Use '-' for stdout.\n\n"
      "Exit codes: bad input exits 2 (an unknown flag, a missing value, a\n"
      "value after a switch, a value outside its domain, or one the model\n"
      "rejects); `run` exits 1 when the simulator rejects its config or the\n"
      "job does not complete.\n");
}

/// Parses `command`'s flags and the global --log-level from argv[2..],
/// applies the log level and runs `body`.
template <class Inputs>
int run_command(int argc, char** argv, util::FlagSet (*flags_of)(Inputs&),
                int (*body)(const Inputs&)) {
  Inputs in;
  std::optional<util::LogLevel> log_level;
  util::FlagSet flags = flags_of(in);
  flags.add(global_flags(log_level));
  if (!flags.parse(argc, argv, 2)) {
    usage();
    return 0;
  }
  // Env first, explicit flag last, so --log-level wins.
  util::init_log_level_from_env();
  if (log_level) util::set_log_level(*log_level);
  return body(in);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // An invalid_argument that escapes is bad input: a flag outside its
  // domain, or a value the model or harness rejects.
  try {
    if (command == "model")
      return run_command(argc, argv, cli::model_flags, cmd_model);
    if (command == "sweep")
      return run_command(argc, argv, cli::sweep_flags, cmd_sweep);
    if (command == "run" || command == "simulate")
      return run_command(argc, argv, cli::run_flags, cmd_simulate);
    if (command == "analyze")
      return run_command(argc, argv, cli::analyze_flags, cmd_analyze);
    if (command == "serve")
      return run_command(argc, argv, cli::serve_flags, cmd_serve);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "redcr_cli %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  usage();
  return command == "--help" || command == "help" ? 0 : 2;
}
