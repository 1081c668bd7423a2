// Reproduces Figures 11 and 12: the Section-6 simplified model's predicted
// execution times over the redundancy degree (Fig. 11), overlaid with the
// observed times from the simulated cluster (Fig. 12), plus the Q-Q fit the
// paper uses to argue model/measurement agreement.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "exp/exp.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace redcr;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  exp::print_header(
      args, "bench_fig11_12 — simplified model vs observed performance",
      "Figures 11-12 (c=120 s, R=500 s, alpha=0.2; Q-Q fit)");

  const std::vector<double> mtbfs = {6, 12, 18, 24, 30};
  const std::vector<double> degrees = exp::ParamGrid::range(1.0, 3.0, 0.25);

  // ---- Figure 11: the simplified model (Section 6's time function). ----
  std::vector<exp::Column> columns{{"MTBF"}};
  for (const double r : degrees) columns.push_back({util::fmt(r, 2) + "x"});
  exp::ResultSink model_table("fig11_model", columns);
  model_table.set_title("Figure 11: modeled execution time [minutes]");
  std::vector<std::vector<double>> modeled(mtbfs.size());
  for (std::size_t m = 0; m < mtbfs.size(); ++m) {
    model::CombinedConfig cfg;
    cfg.app = bench::paper_app();
    cfg.machine = bench::paper_machine(mtbfs[m]);
    std::vector<exp::Cell> row{{util::fmt(mtbfs[m], 0) + " hrs", mtbfs[m]}};
    double best = 1e300;
    std::size_t best_col = 1;
    for (std::size_t d = 0; d < degrees.size(); ++d) {
      const double minutes = util::to_minutes(
          model::predict_simplified(cfg, degrees[d]).total_time);
      modeled[m].push_back(minutes);
      row.push_back({util::fmt(minutes, 0), minutes});
      if (minutes < best) {
        best = minutes;
        best_col = d + 1;
      }
    }
    model_table.add_row(std::move(row));
    model_table.emphasize_last(best_col);
  }
  model_table.emit(args, exp::Emit::kTextOnly);

  // ---- Figure 12: overlay with observed times for selected MTBFs — the
  // DES campaign, declared as a grid and run on the worker pool. ----
  const std::vector<double> overlay_mtbfs =
      args.quick ? std::vector<double>{6, 30} : std::vector<double>{6, 18, 30};
  const std::vector<double> overlay_degrees = {1.0, 1.5, 2.0, 2.5, 3.0};
  exp::ParamGrid grid;
  grid.axis("mtbf", overlay_mtbfs).axis("r", overlay_degrees);
  const std::vector<exp::Trial> trials = grid.trials(args.filter);
  const exp::SweepRunner runner(args.run_options());
  const std::vector<bench::CellResult> cells =
      runner.map(trials, [&](const exp::Trial& trial) {
        const bench::CellResult cell = bench::run_experiment_cell(
            trial.at("mtbf"), trial.at("r"), args.seeds, args.quick,
            args.engine);
        std::fprintf(stderr, "  overlay mtbf=%gh r=%.2f obs=%.0f\n",
                     trial.at("mtbf"), trial.at("r"), cell.minutes_mean);
        return cell;
      });

  const auto modeled_at = [&](double mtbf, double r) {
    std::size_t m = 0, d = 0;
    while (mtbfs[m] != mtbf) ++m;
    while (degrees[d] != r) ++d;
    return modeled[m][d];
  };

  exp::ResultSink overlay("fig12_overlay",
                          {{"MTBF"}, {"series"}, {"1x"}, {"1.5x"}, {"2x"},
                           {"2.5x"}, {"3x"}});
  overlay.set_title("Figure 12: observed vs modeled [minutes]");
  exp::ResultSink series("fig11_12", {{"mtbf_hours"},
                                      {"r"},
                                      {"modeled_min"},
                                      {"observed_min"}});
  std::vector<double> modeled_sample, observed_sample;
  for (std::size_t m = 0; m < overlay_mtbfs.size(); ++m) {
    std::vector<exp::Cell> obs_row{{util::fmt(overlay_mtbfs[m], 0) + " hrs",
                                    overlay_mtbfs[m]},
                                   {"observed"}};
    std::vector<exp::Cell> mod_row{{""}, {"modeled"}};
    bool any = false;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (trials[i].at("mtbf") != overlay_mtbfs[m]) continue;
      any = true;
      const double r = trials[i].at("r");
      const double mod = modeled_at(overlay_mtbfs[m], r);
      obs_row.push_back({util::fmt(cells[i].minutes_mean, 0),
                         cells[i].minutes_mean});
      mod_row.push_back({util::fmt(mod, 0), mod});
      modeled_sample.push_back(mod);
      observed_sample.push_back(cells[i].minutes_mean);
      series.add_row({{overlay_mtbfs[m], 6},
                      {r, 6},
                      {mod, 6},
                      {cells[i].minutes_mean, 6}});
    }
    if (!any) continue;
    while (obs_row.size() < 7) obs_row.push_back({"-"});
    while (mod_row.size() < 7) mod_row.push_back({"-"});
    overlay.add_row(std::move(obs_row));
    overlay.add_row(std::move(mod_row));
  }
  overlay.emit(args, exp::Emit::kTextOnly);
  series.emit(args, exp::Emit::kDataOnly);

  // ---- Q-Q fit (the paper: "a Q-Q plot ... indicates a close fit"). ----
  if (modeled_sample.size() < 2) return 0;
  const auto qq = util::qq_points(modeled_sample, observed_sample, 9);
  args.say("Q-Q points (modeled quantile -> observed quantile):\n");
  std::vector<double> qx, qy;
  for (const auto& [mq, oq] : qq) {
    args.say("  %7.1f -> %7.1f\n", mq, oq);
    qx.push_back(mq);
    qy.push_back(oq);
  }
  const util::LineFit fit = util::fit_line(qx, qy);
  args.say(
      "Q-Q line fit: slope=%.2f intercept=%.1f R^2=%.3f (close fit: slope~1, "
      "R^2~1)\n",
      fit.slope, fit.intercept, fit.r_squared);
  args.say("Verdict: %s\n",
           fit.r_squared > 0.9 ? "CLOSE FIT (reproduced)" : "WEAK FIT");
  return 0;
}
