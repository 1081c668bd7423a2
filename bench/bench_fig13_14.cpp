// Reproduces Figures 13 and 14: modeled wallclock time of a 128-hour job
// under weak scaling for redundancy degrees 1x, 1.5x, 2x, 2.5x, 3x, and the
// headline crossover points:
//   Fig. 13: T(2x) < T(1x) from ~4,351 processes; T(3x) < T(1x) from ~12,551.
//   Fig. 14: 2·T(2x) = T(1x) at ~78,536 (two dual-redundant jobs finish
//            within one plain job); 3x cheapest beyond ~771,251.
// Node MTBF is 5 years (stated in the conclusion); c and R are not published
// — we use c = 600 s, R = 1800 s and compare crossover *ordering and
// magnitude*, not exact N (see EXPERIMENTS.md).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "exp/exp.hpp"
#include "model/batch.hpp"

namespace {

using namespace redcr;

model::CombinedConfig figure_config() {
  model::CombinedConfig cfg;
  cfg.app.base_time = util::hours(128);
  cfg.app.comm_fraction = 0.2;
  cfg.machine.node_mtbf = util::years(5);
  cfg.machine.checkpoint_cost = 600.0;
  cfg.machine.restart_cost = 1800.0;
  return cfg;
}

/// One weak-scaling figure: N axis × degree axis on the runner.
void run_figure(const exp::BenchArgs& args, const char* csv_name,
                const char* title, const std::vector<double>& procs,
                bool star_minima) {
  const std::vector<double> degrees = {1.0, 1.5, 2.0, 2.5, 3.0};
  exp::ParamGrid grid;
  grid.axis("procs", procs).axis("r", degrees);
  const std::vector<exp::Trial> trials = grid.trials(args.filter);
  // Pure model grid: hand the whole figure to the batch evaluator, whose
  // kExact loop shares the Eq. 9 sphere terms the procs axis repeats.
  // Bitwise-identical to mapping predict() over the trials.
  std::vector<model::BatchPoint> points;
  points.reserve(trials.size());
  for (const exp::Trial& trial : trials) {
    model::BatchPoint point;
    point.config = figure_config();
    point.config.app.num_procs =
        static_cast<std::size_t>(trial.at("procs"));
    point.r = trial.at("r");
    points.push_back(point);
  }
  const std::vector<model::Prediction> preds = model::evaluate_batch(points);
  std::vector<double> hours(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i)
    hours[i] = util::to_hours(preds[i].total_time);

  exp::ResultSink t(csv_name, {{"N", "N"},
                               {"1x [h]", "r1"},
                               {"1.5x [h]", "r1.5"},
                               {"2x [h]", "r2"},
                               {"2.5x [h]", "r2.5"},
                               {"3x [h]", "r3"}});
  t.set_title(title);
  for (std::size_t p = 0; p < procs.size(); ++p) {
    std::vector<exp::Cell> row{
        {util::fmt_count(static_cast<long long>(procs[p])), procs[p]}};
    double best = 1e300;
    std::size_t best_col = 0;
    bool any = false;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (trials[i].at("procs") != procs[p]) continue;
      any = true;
      row.push_back({std::isfinite(hours[i]) ? util::fmt(hours[i], 1) : "inf",
                     hours[i]});
      if (hours[i] < best) {
        best = hours[i];
        best_col = row.size() - 1;
      }
    }
    if (!any) continue;
    while (row.size() < 6) row.push_back({"-"});
    t.add_row(std::move(row));
    if (star_minima) t.emphasize_last(best_col);
  }
  t.emit(args);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  exp::print_header(
      args, "bench_fig13_14 — weak-scaling wallclock and crossover points",
      "Figures 13 and 14 (128 h job, theta = 5 y/node)");

  run_figure(args, "fig13",
             "Figure 13: modeled wallclock [hours] up to 30k processes",
             {1000, 2000, 4000, 6000, 8000, 10000, 15000, 20000, 25000, 30000},
             /*star_minima=*/true);
  run_figure(args, "fig14",
             "Figure 14: modeled wallclock [hours] up to 200k processes",
             {40000, 60000, 80000, 100000, 130000, 160000, 200000},
             /*star_minima=*/false);

  // ---- Crossover points ----
  model::CombinedConfig cfg = figure_config();
  args.say("Crossover points (measured vs paper):\n");
  const auto x12 = model::crossover_procs(cfg, 1.0, 2.0, 100, 3000000);
  const auto x13 = model::crossover_procs(cfg, 1.0, 3.0, 100, 3000000);
  const auto be2 = model::break_even_procs(cfg, 2.0, 2.0, 1000, 10000000);
  const auto x23 = model::crossover_procs(cfg, 2.0, 3.0, 10000, 10000000);
  auto print_point = [&](const char* what, const std::optional<double>& n,
                         const char* paper) {
    if (n)
      args.say("  %-46s N = %9s   (paper: %s)\n", what,
               util::fmt_count(static_cast<long long>(*n)).c_str(), paper);
    else
      args.say("  %-46s not found in bracket (paper: %s)\n", what, paper);
  };
  print_point("T(2x) < T(1x) from", x12, "4,351");
  print_point("T(3x) < T(1x) from", x13, "12,551");
  print_point("two 2x jobs within one 1x job: T(1x)=2T(2x) at", be2, "78,536");
  print_point("T(3x) < T(2x) from", x23, "771,251");

  args.say(
      "\nOrdering checks: 1x/2x < 1x/3x crossover: %s; break-even < 2x/3x "
      "crossover: %s\n",
      (x12 && x13 && *x12 < *x13) ? "OK" : "FAIL",
      (be2 && x23 && *be2 < *x23) ? "OK" : "FAIL");
  return 0;
}
