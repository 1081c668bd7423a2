// Umbrella header for the experiment-harness layer: declarative grids,
// parallel sweep execution, unified result sinks, the shared bench CLI and
// the perf guard.
#pragma once

#include "exp/cli.hpp"     // IWYU pragma: export
#include "exp/grid.hpp"    // IWYU pragma: export
#include "exp/guard.hpp"   // IWYU pragma: export
#include "exp/runner.hpp"  // IWYU pragma: export
#include "exp/sink.hpp"    // IWYU pragma: export
