#include "cli_inputs.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "apps/cg.hpp"
#include "apps/master_worker.hpp"
#include "apps/spectral.hpp"
#include "apps/stencil.hpp"
#include "apps/synthetic.hpp"

namespace redcr::cli {

namespace {

using runtime::Replication;
using util::Domain;
using util::Value;

constexpr double kMaxFinite = std::numeric_limits<double>::max();

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t at = 0, end = 0; end < s.size(); at = end + 1) {
    end = std::min(s.find(sep, at), s.size());
    out.push_back(s.substr(at, end - at));
  }
  return out;
}

/// "p:fetch[:stale];..." per storage level, fastest first.
void add_recovery_levels(SweepInputs& in, std::string_view spec) {
  in.hierarchy_terms = true;
  const Domain number = Domain::number();
  for (const std::string_view part : split(spec, ';')) {
    const std::vector<std::string_view> f = split(part, ':');
    if (f.size() < 2 || f.size() > 3)
      throw std::invalid_argument(
          "--ml-levels: expected 'prob:fetch_sec[:staleness_periods]' per "
          "';'-separated level, got '" + std::string(part) + "'");
    in.unreliable.levels.push_back(
        {number.parse("--ml-levels", f[0]).number,
         number.parse("--ml-levels", f[1]).number,
         f.size() == 3 ? number.parse("--ml-levels", f[2]).number : 0.0});
  }
}

/// Each workload's --iterations and --compute-sec defaults.
struct WorkloadDefaults {
  std::string_view name;
  long iterations;
  double compute_sec;
};
constexpr WorkloadDefaults kWorkloadDefaults[] = {
    {"synthetic", 92, 24.0}, {"cg", 150, 5.0},         {"stencil", 64, 5.0},
    {"spectral", 32, 5.0},   {"masterworker", 32, 1.0}};

/// The setter of `flag`, which only `reader` reads: writes `field` and
/// records the flag when it was given, for check_workload_flags().
template <class T>
util::Knob workload_knob(RunInputs& in, std::string_view flag,
                         std::string_view metavar, std::string_view fallback,
                         std::string_view reader, T& field) {
  return {flag, metavar, fallback, Domain::of<T>(),
          [&in, flag, reader, &field](Value v) {
            v.to(field);
            if (v.given) in.workload_flags.push_back({flag, reader});
          }};
}

}  // namespace

void RunInputs::check_workload_flags() const {
  for (const auto& [flag, reader] : workload_flags) {
    if (workload != reader)
      throw std::invalid_argument("--" + std::string(flag) +
                                  " is read only by --workload " +
                                  std::string(reader) + ", not " + workload);
  }
}

runtime::WorkloadFactory RunInputs::workload_factory() const {
  const WorkloadDefaults* d =
      std::find_if(std::begin(kWorkloadDefaults), std::end(kWorkloadDefaults),
                   [&](const auto& w) { return w.name == workload; });
  if (d == std::end(kWorkloadDefaults)) d = kWorkloadDefaults;  // synthetic
  const long iters = iterations.value_or(d->iterations);
  const double compute = compute_sec.value_or(d->compute_sec);
  if (workload == "cg") {
    const apps::CgSpec spec{.rows_per_rank = rows,
                            .max_iterations = iters,
                            .compute_per_iteration = compute};
    return [spec](int rank, int n) {
      return std::make_unique<apps::CgSolver>(spec, rank, n);
    };
  }
  if (workload == "stencil") {
    const apps::StencilSpec spec{.iterations = iters,
                                 .grid = {grid_side, grid_side, grid_side},
                                 .compute_per_iteration = compute};
    return [spec](int, int) { return std::make_unique<apps::Stencil3d>(spec); };
  }
  if (workload == "spectral") {
    const apps::SpectralSpec spec{.iterations = iters,
                                  .compute_per_iteration = compute};
    return [spec](int, int) {
      return std::make_unique<apps::SpectralWorkload>(spec);
    };
  }
  if (workload == "masterworker") {
    const apps::MasterWorkerSpec spec{.rounds = iters,
                                      .base_task_cost = compute};
    return [spec](int rank, int n) {
      return std::make_unique<apps::MasterWorker>(spec, rank, n);
    };
  }
  const apps::SyntheticSpec spec{.iterations = iters,
                                 .compute_per_iteration = compute,
                                 .halo_bytes = halo_bytes};
  return [spec](int, int) {
    return std::make_unique<apps::SyntheticWorkload>(spec);
  };
}

util::FlagSet model_flags(ModelInputs& in) {
  util::FlagSet flags = scenario_flags(in.scenario);
  // predict() only asserts its domain; this is the simulator's range.
  flags.add({{"r", "R", "2", Domain::number(1, 8), in.r},
             {"optimize", "", "", in.optimize}});
  return flags;
}

util::FlagSet sweep_flags(SweepInputs& in) {
  model::UnreliableCkptParams& u = in.unreliable;
  const auto hierarchy_term = [&in](auto& field) {
    return [&in, &field](Value v) {
      v.to(field);
      in.hierarchy_terms = true;
    };
  };
  util::FlagSet flags = scenario_flags(in.scenario);
  flags.add({
      // At most 1e6 degrees over [1, 3], like serve's grid bound.
      {"step", "S", "0.25", Domain::number(2e-6, kMaxFinite), in.step},
      {"ml-levels", "'p:fetch[:stale];...'", "", Domain::text(),
       [&in](Value v) { add_recovery_levels(in, v.text); }},
      {"flush-cost", "C", "", Domain::number(), hierarchy_term(u.flush_cost)},
      {"flush-period", "M", "", u.flush_period},
      {"async-flush", "", "", Domain::flag(), hierarchy_term(u.async_flush)},
      {"exposed", "F", "", u.async_exposed_fraction},
      exp::jobs_knob(in.harness.jobs),
  });
  flags.add(exp::campaign_flags(in.harness));
  return flags;
}

util::FlagSet run_flags(RunInputs& in) {
  runtime::JobConfig& job = in.job;
  return {
      {"virtual", "N", "32", job.num_virtual},
      {"redundancy", "R", "2", job.redundancy},
      {"mtbf-hours", "H", "6", Domain::number(),
       [&job](Value v) { job.fail.node_mtbf = util::hours(v.number); }},
      {"workload", "", "synthetic",
       Domain::word("synthetic|cg|stencil|spectral|masterworker"),
       in.workload},
      {"iterations", "N", "", Domain::of<long>(),
       [&in](Value v) { in.iterations = long(v.number); }},
      {"compute-sec", "S", "", Domain::number(),
       [&in](Value v) { in.compute_sec = v.number; }},
      workload_knob(in, "rows", "N", "64", "cg", in.rows),
      workload_knob(in, "grid-side", "N", "2", "stencil", in.grid_side),
      workload_knob(in, "halo-bytes", "B", "300e6", "synthetic",
                    in.halo_bytes),
      {"protocol", "", "push", Domain::word("push|pull"),  // Replication order
       [&job](Value v) { job.replication = Replication(v.word); }},
      {"msg-plus-hash", "", "", Domain::flag(),
       [&job](Value) { job.red.mode = red::Mode::kMsgPlusHash; }},
      {"live", "", "", Domain::flag(),
       [&job](Value) {
         job.live_failure_semantics = true;
         job.checkpoint_enabled = false;
       }},
      {"no-checkpoint", "", "", Domain::flag(),
       [&job](Value) { job.checkpoint_enabled = false; }},
      {"no-failures", "", "", Domain::flag(),
       [&job](Value) { job.inject_failures = false; }},
      {"seed", "S", "1", job.fail.seed},
      {"bandwidth", "B/s", "100e6", job.network.bandwidth},
      {"storage-bandwidth", "B/s", "2e9", job.storage.bandwidth},
      {"image-bytes", "B", "1e9", job.image_bytes},
      {"restart-sec", "R", "500", job.restart_cost},
      {"forked-checkpoint", "", "", job.ckpt_forked},
      {"incremental-fraction", "F", "1", job.ckpt_incremental_fraction},
      {"weibull-shape", "K", "1", job.fail.weibull_shape},
      {"interval-sec", "D", "300", in.interval_sec},
      // Unreliable C/R and SDC: zero rates and retention 1 leave the
      // fault-free pipeline and its output untouched.
      {"ckpt-write-failure-prob", "P", "0", job.ckpt_faults.write_failure_prob},
      {"ckpt-corruption-prob", "P", "0", job.ckpt_faults.corruption_prob},
      {"restart-failure-prob", "P", "0", job.ckpt_faults.restart_failure_prob},
      {"faults-seed", "S", "", job.ckpt_faults.seed},
      {"ckpt-retention", "D", "1", job.ckpt_retention},
      {"write-retries", "N", "", job.ckpt_write_retry.max_attempts},
      {"restart-retries", "N", "", job.restart_retry.max_attempts},
      {"retry-backoff", "B", "", Domain::number(),
       [&job](Value v) {
         v.to(job.ckpt_write_retry.backoff_base);
         v.to(job.restart_retry.backoff_base);
       }},
      {"retry-backoff-cap", "C", "", Domain::number(),
       [&job](Value v) {
         v.to(job.ckpt_write_retry.backoff_cap);
         v.to(job.restart_retry.backoff_cap);
       }},
      {"sdc-inflight-prob", "P", "0", job.sdc.inflight_prob},
      {"sdc-atrest-rate", "R", "0", job.sdc.atrest_rate},
      {"sdc-seed", "S", "", job.sdc.seed},
      // Absent: the flat single-device store.
      {"ckpt-levels", "SPEC", "", in.ckpt_levels},
      {"async-flush", "", "", in.async_flush},
      runtime::engine_knob(in.options.engine),
      {"trace-out", "FILE", "", in.options.trace_out},
      {"metrics-out", "FILE", "", in.options.metrics_out},
      {"journal-out", "FILE", "", in.options.journal_out},
  };
}

util::FlagSet analyze_flags(AnalyzeInputs& in) {
  return {{"journal", "FILE", "", in.journal},
          {"blame", "", "", in.blame},
          {"levels", "", "", in.levels},
          {"top", "K", "10", in.top},
          {"no-model", "", "", in.no_model},
          {"diff", "FILE2", "", in.diff}};
}

util::FlagSet serve_flags(ServeInputs& in) {
  return {
      {"replay", "FILE", "", in.replay},
      exp::jobs_knob(in.options.jobs),
      // 0 = an unbounded cache (no eviction). ServeOptions holds the
      // defaults of these two.
      {"cache", "N", "", Domain::count(0, 1e15), in.options.cache_capacity},
      {"mode", "", "", Domain::word("exact|fast"),  // EvalMode order
       [&in](Value v) { in.options.mode = model::EvalMode(v.word); }},
  };
}

}  // namespace redcr::cli
