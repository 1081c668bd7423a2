// runtime::ExecMode — which engine advances a job between failures — and
// its `--engine` knob row. Kept apart from executor.hpp so the option blocks
// (redcr::RunOptions, exp::BenchArgs) can carry the executor's own enum
// without pulling in the executor.
#pragma once

#include "util/knob.hpp"

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

/// --engine event|fastforward|auto (the words in ExecMode order), default
/// auto: fast-forward wherever bit-identity is provable.
[[nodiscard]] inline util::Knob engine_knob(ExecMode& mode) {
  return {"engine", "", "auto", util::Domain::word("event|fastforward|auto"),
          [&mode](util::Value v) { mode = ExecMode(v.word); }};
}

}  // namespace redcr::runtime
