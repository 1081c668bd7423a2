// Reproduces Table 4 (and the same data rendered as Figures 8 and 9):
// measured application execution time [minutes] of the modified CG under
// combined checkpoint/restart + redundancy, for node MTBF 6..30 h and
// redundancy degrees 1x..3x in 0.25 steps — on the discrete-event cluster
// with the paper's failure injector and Daly-interval checkpointer.
//
// The paper's qualitative findings this harness must reproduce:
//   (1) at 6 h MTBF the minimum is at high degree (~3x);
//   (2) at 24/30 h MTBF the minimum is at 2x, and more redundancy hurts;
//   (3) partial degrees can win at intermediate MTBF;
//   (4) 1.25x is worse than 1x, 2.25x worse than 2x (superlinear overhead).
//
// The MTBF × degree campaign is declared as an exp::ParamGrid and executed
// on the exp::SweepRunner worker pool; every cell is an independent DES, so
// --jobs N only changes wall-clock, never the output.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "exp/exp.hpp"
#include "model/batch.hpp"

int main(int argc, char** argv) {
  using namespace redcr;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  exp::print_header(
      args, "bench_table4 — combined C/R + redundancy on the simulated cluster",
      "Table 4 / Figures 8-9 (execution time [min], 128 procs, CG 46 min)");

  const std::vector<double> mtbfs = {6, 12, 18, 24, 30};
  const std::vector<double> degrees = exp::ParamGrid::range(1.0, 3.0, 0.25);
  // Paper's Table 4, for side-by-side comparison.
  const double paper[5][9] = {
      {275, 279, 212, 189, 146, 158, 139, 132, 123},
      {201, 207, 167, 143, 103, 113, 98, 111, 125},
      {184, 179, 148, 120, 72, 126, 88, 80, 84},
      {159, 143, 133, 100, 67, 92, 78, 84, 83},
      {136, 128, 110, 101, 66, 73, 80, 82, 84},
  };

  exp::ParamGrid grid;
  grid.axis("mtbf", mtbfs).axis("r", degrees);
  const std::vector<exp::Trial> trials = grid.trials(args.filter);
  const exp::SweepRunner runner(args.run_options());
  const std::vector<bench::CellResult> cells =
      runner.map(trials, [&](const exp::Trial& trial) {
        const bench::CellResult cell = bench::run_experiment_cell(
            trial.at("mtbf"), trial.at("r"), args.seeds, args.quick,
            args.engine);
        std::fprintf(stderr, "  cell mtbf=%gh r=%.2f -> %.0f min (%d seeds)\n",
                     trial.at("mtbf"), trial.at("r"), cell.minutes_mean,
                     args.seeds);
        return cell;
      });

  // Index the (possibly filtered) results back into the full grid: cells
  // not run stay NaN and render as "-".
  std::vector<std::vector<double>> measured(
      mtbfs.size(), std::vector<double>(degrees.size(), -1.0));
  std::vector<std::vector<const bench::CellResult*>> by_cell(
      mtbfs.size(),
      std::vector<const bench::CellResult*>(degrees.size(), nullptr));
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const std::size_t m = trials[i].index() / degrees.size();
    const std::size_t d = trials[i].index() % degrees.size();
    measured[m][d] = cells[i].minutes_mean;
    by_cell[m][d] = &cells[i];
  }

  std::vector<exp::Column> columns{{"MTBF", "mtbf_hours"}};
  for (const double r : degrees) columns.push_back({util::fmt(r, 2) + "x",
                                                    util::fmt(r, 2)});
  exp::ResultSink t("table4", columns);
  t.set_title("Measured execution time [minutes] (per-row minimum starred)");
  exp::ResultSink tp("table4_paper", columns);
  tp.set_title("Paper's Table 4 [minutes] (per-row minimum starred)");

  for (std::size_t m = 0; m < mtbfs.size(); ++m) {
    std::vector<exp::Cell> row{{util::fmt(mtbfs[m], 0) + " hrs", mtbfs[m]}};
    std::vector<exp::Cell> paper_row{{util::fmt(mtbfs[m], 0) + " hrs",
                                      mtbfs[m]}};
    double best = 1e300, paper_best = 1e300;
    std::size_t best_col = 1, paper_best_col = 1;
    bool any = false;
    for (std::size_t d = 0; d < degrees.size(); ++d) {
      if (const bench::CellResult* cell = by_cell[m][d]) {
        any = true;
        row.push_back({util::fmt(cell->minutes_mean, 0) +
                           (cell->all_completed ? "" : "!"),
                       cell->minutes_mean});
        if (cell->minutes_mean < best) {
          best = cell->minutes_mean;
          best_col = d + 1;
        }
      } else {
        row.push_back({"-"});
      }
      paper_row.push_back({util::fmt(paper[m][d], 0), paper[m][d]});
      if (paper[m][d] < paper_best) {
        paper_best = paper[m][d];
        paper_best_col = d + 1;
      }
    }
    if (!any) continue;  // entire MTBF row filtered out
    t.add_row(std::move(row));
    t.emphasize_last(best_col);
    tp.add_row(std::move(paper_row));
    tp.emphasize_last(paper_best_col);
  }
  t.emit(args);
  tp.emit(args, exp::Emit::kTextOnly);

  // Model counterpart of the same grid (Section 4.3 prediction at the
  // paper's CG calibration), batch-evaluated with the shared sphere-term
  // cache. Text-only: the NDJSON stream carries only measured cells.
  {
    std::vector<model::BatchPoint> points;
    points.reserve(mtbfs.size() * degrees.size());
    for (const double mtbf : mtbfs)
      for (const double r : degrees) {
        model::BatchPoint point;
        point.config.app = bench::paper_app();
        point.config.machine = bench::paper_machine(mtbf);
        point.r = r;
        points.push_back(point);
      }
    const std::vector<model::Prediction> model_preds =
        model::evaluate_batch(points);
    exp::ResultSink tm("table4_model", columns);
    tm.set_title("Combined-model prediction [minutes] (same grid)");
    for (std::size_t m = 0; m < mtbfs.size(); ++m) {
      std::vector<exp::Cell> row{{util::fmt(mtbfs[m], 0) + " hrs", mtbfs[m]}};
      double best = 1e300;
      std::size_t best_col = 1;
      for (std::size_t d = 0; d < degrees.size(); ++d) {
        const double minutes = util::to_minutes(
            model_preds[m * degrees.size() + d].total_time);
        row.push_back({util::fmt(minutes, 0), minutes});
        if (minutes < best) {
          best = minutes;
          best_col = d + 1;
        }
      }
      tm.add_row(std::move(row));
      tm.emphasize_last(best_col);
    }
    tm.emit(args, exp::Emit::kTextOnly);
  }

  // Long-format per-cell dump with the observability columns: one row per
  // grid cell actually run, in grid order (so the bytes are identical at
  // any --jobs). Data-only — the pivoted table above is the human view.
  exp::ResultSink obs("table4_cells",
                      {{"MTBF", "mtbf_hours"},
                       {"r", "r"},
                       {"minutes", "minutes_mean"},
                       {"ckpt min", "ckpt_minutes_mean"},
                       {"rework min", "rework_minutes_mean"},
                       {"failures", "job_failures_mean"},
                       {"ckpts", "checkpoints_mean"},
                       {"events", "engine_events_mean"},
                       {"msgs", "messages_mean"},
                       {"contention s", "contention_wait_mean"}});
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const bench::CellResult& cell = cells[i];
    obs.add_row({{trials[i].at("mtbf"), 0},
                 {trials[i].at("r"), 2},
                 {cell.minutes_mean, 1},
                 {cell.ckpt_minutes_mean, 1},
                 {cell.rework_minutes_mean, 1},
                 {cell.job_failures_mean, 1},
                 {cell.checkpoints_mean, 1},
                 {cell.engine_events_mean, 0},
                 {cell.messages_mean, 0},
                 {cell.contention_wait_mean, 2}});
  }
  obs.emit(args, exp::Emit::kDataOnly);

  // The qualitative checks need the full grid; skip them under --filter.
  if (!args.filter.empty()) return 0;

  // ---- Figure 8 rendering: one line per MTBF over the degree axis is the
  // table above; print the paper's four qualitative checks instead. ----
  auto col = [&](std::size_t m, double r) {
    for (std::size_t d = 0; d < degrees.size(); ++d)
      if (degrees[d] == r) return measured[m][d];
    return -1.0;
  };
  auto argmin_r = [&](std::size_t m) {
    std::size_t best = 0;
    for (std::size_t d = 1; d < degrees.size(); ++d)
      if (measured[m][d] < measured[m][best]) best = d;
    return degrees[best];
  };
  args.say("Qualitative checks vs the paper's observations:\n");
  args.say("  (1) 6 h MTBF minimum at high degree: argmin r = %.2fx -> %s\n",
           argmin_r(0), argmin_r(0) >= 2.5 ? "REPRODUCED" : "DIFFERS");
  args.say("  (2) 30 h MTBF minimum at 2x: argmin r = %.2fx -> %s\n",
           argmin_r(4), argmin_r(4) == 2.0 ? "REPRODUCED" : "DIFFERS");
  args.say("      and 3x worse than 2x at 30 h: %.0f vs %.0f -> %s\n",
           col(4, 3.0), col(4, 2.0),
           col(4, 3.0) > col(4, 2.0) ? "REPRODUCED" : "DIFFERS");
  args.say("  (4) 1.25x worse than 1x at low failure rates: %.0f vs %.0f -> %s\n",
           col(4, 1.25), col(4, 1.0),
           col(4, 1.25) > col(4, 1.0) ? "REPRODUCED" : "DIFFERS");
  args.say("      2.25x worse than 2x: %.0f vs %.0f -> %s\n", col(4, 2.25),
           col(4, 2.0), col(4, 2.25) > col(4, 2.0) ? "REPRODUCED" : "DIFFERS");

  // ---- Figure 9 (surface view): row/column minima summary. ----
  args.say("\nSurface minima (Fig. 9): per-MTBF optimum degree:\n");
  for (std::size_t m = 0; m < mtbfs.size(); ++m)
    args.say("  MTBF %2.0f h -> best r = %.2fx (%.0f min)\n", mtbfs[m],
             argmin_r(m),
             *std::min_element(measured[m].begin(), measured[m].end()));
  return 0;
}
