// Capacity planner: the paper's "tuning knob" (conclusion) as a tool.
//
// Given a machine and a job, prints for each redundancy degree the total
// wallclock time, node cost, and node-hours, then answers three planning
// questions:
//   - fastest completion (capability user),
//   - cheapest node-hours (capacity user),
//   - a cost-weighted blend (the paper's "cost function giving different
//     weights to execution time and number of resources").
//
//   $ ./capacity_planner [scenario flags] [--time-weight W] [--jobs N|auto]
//
// The scenario flags are `redcr_cli model`'s (redcr::scenario_flags());
// --help lists them with their defaults.
#include <cstdio>
#include <vector>

#include "redcr/redcr.hpp"

int main(int argc, char** argv) {
  using namespace redcr;
  using namespace redcr::util;

  ScenarioBuilder builder;
  double time_weight = 0.0;
  int jobs = 0;
  util::FlagSet flags = scenario_flags(builder);
  flags.add({{"time-weight", "W", "0.5", time_weight}, exp::jobs_knob(jobs)});
  flags.parse_or_exit(argc, argv, "capacity_planner");
  model::CombinedConfig config;
  try {
    config = builder.build();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "capacity_planner: %s\n", e.what());
    return 2;
  }

  std::printf("Job: N=%zu procs, t=%.0f h, alpha=%.2f | Machine: theta=%.1f y,"
              " c=%.0f s, R=%.0f s\n\n",
              config.app.num_procs, to_hours(config.app.base_time),
              config.app.comm_fraction, to_years(config.machine.node_mtbf),
              config.machine.checkpoint_cost, config.machine.restart_cost);

  // The degree sweep is a one-axis campaign — exactly the query shape
  // redcr::Planner serves: the batch engine memoizes the shared Eq. 9
  // terms and runs the points on a worker pool, and the default
  // EvalMode::kExact stays bitwise-identical to scalar predict().
  exp::ParamGrid grid;
  grid.axis("r", exp::ParamGrid::range(1.0, 3.0, 0.25));
  const std::vector<exp::Trial> trials = grid.trials();
  Planner planner;
  PlanRequest request;
  request.config = config;
  request.degrees.reserve(trials.size());
  for (const exp::Trial& trial : trials)
    request.degrees.push_back(trial.at("r"));
  const PlanResponse plan = planner.plan(request, jobs);
  const std::vector<model::Prediction>& preds = plan.sweep();

  exp::ResultSink t("capacity", {{"r"}, {"T_total [h]"}, {"nodes"},
                                 {"node-hours"}, {"delta [min]"},
                                 {"E[failures]"}, {"Theta_sys [h]"}});
  t.set_title("Redundancy/checkpoint trade-off");

  struct Row {
    double r, time_h, node_hours;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const model::Prediction& p = preds[i];
    const double node_hours =
        to_hours(p.total_time) * static_cast<double>(p.total_procs);
    rows.push_back({trials[i].at("r"), to_hours(p.total_time), node_hours});
    t.add_row({{fmt(trials[i].at("r"), 2) + "x", trials[i].at("r")},
               {to_hours(p.total_time), 1},
               exp::Cell::count(static_cast<long long>(p.total_procs)),
               {fmt(node_hours / 1e6, 2) + "M", node_hours},
               {to_minutes(p.interval), 1},
               {p.expected_failures, 1},
               {to_hours(p.system_mtbf), 1}});
  }
  std::printf("%s\n", t.text().c_str());

  const Row* fastest = &rows[0];
  const Row* cheapest = &rows[0];
  const Row* blended = &rows[0];
  const double t0 = rows[0].time_h, nh0 = rows[0].node_hours;
  auto blend = [&](const Row& row) {
    return time_weight * row.time_h / t0 +
           (1.0 - time_weight) * row.node_hours / nh0;
  };
  for (const Row& row : rows) {
    if (row.time_h < fastest->time_h) fastest = &row;
    if (row.node_hours < cheapest->node_hours) cheapest = &row;
    if (blend(row) < blend(*blended)) blended = &row;
  }
  std::printf("Fastest completion:    r=%.2fx (%.1f h)\n", fastest->r,
              fastest->time_h);
  std::printf("Cheapest node-hours:   r=%.2fx (%.2fM node-hours)\n",
              cheapest->r, cheapest->node_hours / 1e6);
  std::printf("Blended (w_time=%.2f): r=%.2fx\n", time_weight, blended->r);

  // Throughput view (Fig. 14): how many redundant jobs fit in one plain job?
  const double plain = rows[0].time_h;
  const model::Prediction dual = model::predict(config, 2.0);
  std::printf(
      "\nThroughput: %.2f dual-redundant jobs complete within one "
      "non-redundant job's wallclock.\n",
      plain / to_hours(dual.total_time));
  return 0;
}
