// runtime::ExecMode — which engine advances a job between failures — and the
// one parser for its `--engine` spelling. Kept apart from executor.hpp so the
// option blocks (redcr::RunOptions, exp::BenchArgs) can carry the executor's
// own enum without pulling in the executor.
#pragma once

#include <optional>
#include <string_view>

namespace redcr::runtime {

/// Which engine advances the job between failures.
enum class ExecMode {
  kEvent,        ///< full discrete-event simulation, the reference path
  kFastForward,  ///< sample deaths from the fault oracle and advance the
                 ///< inter-failure stretches arithmetically; falls back to
                 ///< the event engine per episode (and warns when the whole
                 ///< configuration is unsupported)
  kAuto,         ///< kFastForward when the configuration supports it,
                 ///< silently kEvent otherwise (per-event consumers such as
                 ///< trace/journal sinks force the event engine)
};

/// Parses an `--engine` argument ("event", "fastforward", "auto").
[[nodiscard]] inline std::optional<ExecMode> parse_engine(
    std::string_view name) {
  if (name == "event") return ExecMode::kEvent;
  if (name == "fastforward") return ExecMode::kFastForward;
  if (name == "auto") return ExecMode::kAuto;
  return std::nullopt;
}

}  // namespace redcr::runtime
