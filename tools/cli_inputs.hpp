// redcr_cli's flags: each command's knob rows (util/knob.hpp) bound to its
// inputs. redcr_cli.cpp keeps main and the command bodies.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/serve.hpp"
#include "exp/cli.hpp"
#include "redcr/run_options.hpp"
#include "redcr/scenario.hpp"
#include "runtime/executor.hpp"

namespace redcr::cli {

struct ModelInputs {
  ScenarioBuilder scenario;
  double r = 0.0;
  bool optimize = false;
};

struct SweepInputs {
  ScenarioBuilder scenario;
  double step = 0.0;
  exp::BenchArgs harness;  ///< --jobs and the campaign flags
  /// The hierarchy terms; the command validates them.
  model::UnreliableCkptParams unreliable;
  /// --ml-levels, --flush-cost or --async-flush: predict with them.
  bool hierarchy_terms = false;
};

struct RunInputs {
  runtime::JobConfig job;
  RunOptions options;  ///< the sinks and the engine
  std::string workload;
  std::optional<long> iterations;     ///< absent: the workload's default
  std::optional<double> compute_sec;  ///< absent: the workload's default
  std::size_t rows = 0;               ///< cg
  int grid_side = 0;                  ///< stencil
  double halo_bytes = 0.0;            ///< synthetic
  /// A workload flag given on the command line, and the one workload that
  /// reads it.
  struct WorkloadFlag {
    std::string_view flag;
    std::string_view reader;
  };
  std::vector<WorkloadFlag> workload_flags;
  double interval_sec = 0.0;  ///< applied only while checkpointing is on
  std::optional<std::string> ckpt_levels;
  bool async_flush = false;

  [[nodiscard]] runtime::WorkloadFactory workload_factory() const;

  /// Throws std::invalid_argument naming a given workload flag that
  /// --workload does not read (--rows without cg, ...).
  void check_workload_flags() const;
};

struct AnalyzeInputs {
  std::string journal;
  std::optional<std::string> diff;
  bool blame = false;
  bool levels = false;
  bool no_model = false;
  int top = 0;
};

struct ServeInputs {
  std::string replay;
  apps::ServeOptions options;
};

[[nodiscard]] util::FlagSet model_flags(ModelInputs& in);
[[nodiscard]] util::FlagSet sweep_flags(SweepInputs& in);
[[nodiscard]] util::FlagSet run_flags(RunInputs& in);
[[nodiscard]] util::FlagSet analyze_flags(AnalyzeInputs& in);
[[nodiscard]] util::FlagSet serve_flags(ServeInputs& in);

}  // namespace redcr::cli
