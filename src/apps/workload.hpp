// Workload interface: an application kernel that runs on one rank of a
// (virtual) communicator, structured as iterations with a checkpoint hook at
// every boundary.
//
// Contract:
//  - `run` executes iterations [start_iteration, total) and must
//    `co_await hook(i)` exactly once before each iteration i — the hook is
//    collective across ranks (it hides the checkpoint agreement protocol),
//    so every rank must make the same sequence of hook calls.
//  - When the hook returns true, a coordinated checkpoint was taken at this
//    boundary and the workload must persist whatever rank-local state it
//    needs to later `restore(i)`.
//  - `restore(i)` rewinds the workload to the state it persisted at
//    iteration boundary i (i == 0 means pristine initial state). Workload
//    objects outlive job episodes; communicators do not.
#pragma once

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/cotask.hpp"
#include "simmpi/comm.hpp"

namespace redcr::apps {

/// Spec check shared by the kernels: a compute time or byte size must be
/// finite and >= 0 (zero is valid, e.g. a halo-free job). Throws
/// std::invalid_argument naming `what`.
inline void require_quantity(double value, const char* what) {
  if (!(value >= 0.0) || !std::isfinite(value))
    throw std::invalid_argument(std::string(what) +
                                " must be finite and >= 0, got " +
                                std::to_string(value));
}

/// Collective per-boundary hook; returns true if a checkpoint was taken.
using BoundaryHook = std::function<sim::CoTask<bool>(long iteration)>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Upper bound on iterations (SPMD-uniform). Early termination is allowed
  /// only if every rank terminates at the same boundary.
  [[nodiscard]] virtual long total_iterations() const noexcept = 0;

  /// Runs this rank's part of iterations [start_iteration, total).
  virtual sim::CoTask<void> run(simmpi::Comm& comm, long start_iteration,
                                BoundaryHook hook) = 0;

  /// Rewinds rank-local state to the checkpoint taken at `iteration`.
  virtual void restore(long iteration) = 0;

  /// True when the kernel's simulated timing is a pure function of how many
  /// iterations remain — i.e. iteration S+k of an episode started at S costs
  /// exactly what iteration k of a from-scratch run costs. This is the
  /// property the fast-forward executor's prototype-prefix reconstruction
  /// relies on; kernels whose per-iteration cost depends on the absolute
  /// iteration index (or on restored state) must leave this false, which
  /// routes every job through the event engine.
  [[nodiscard]] virtual bool fast_forward_safe() const noexcept {
    return false;
  }

  /// Shape equality for the fast-forward driver's per-thread prototypes:
  /// true only when `other` is known to run exactly like this instance (the
  /// same kernel and spec). The default never matches, so a kernel without
  /// its own never shares prototypes across jobs.
  [[nodiscard]] virtual bool same_shape(const Workload& /*other*/) const
      noexcept {
    return false;
  }
};

}  // namespace redcr::apps
