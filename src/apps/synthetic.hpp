// SyntheticWorkload: a timing-only kernel with the communication structure
// of the paper's modified NPB-CG benchmark — per iteration, a block of local
// computation, a halo exchange with ring neighbours, and a few small
// allreduces (CG's dot products). The communication/computation ratio α is
// set directly by the byte volumes and compute time, so experiment
// harnesses can calibrate α = 0.2 like the paper measured for CG.
//
// Payloads are size-only: memory stays flat no matter the scale, which is
// what lets the Table-4 harness sweep 45 configurations of up to 384
// physical ranks.
#pragma once

#include "apps/workload.hpp"
#include "util/units.hpp"

namespace redcr::apps {

struct SyntheticSpec {
  long iterations = 128;
  /// Local compute per iteration, seconds.
  util::Seconds compute_per_iteration = 1.0;
  /// Bytes sent to each halo neighbour per iteration.
  util::Bytes halo_bytes = 64.0 * 1024;
  /// Ring-halo radius: exchanges with ranks me±1..me±radius.
  int halo_radius = 1;
  /// Number of allreduces per iteration (CG: 2 dot products).
  int allreduces_per_iteration = 2;
  /// Contribution size of each allreduce, bytes.
  util::Bytes allreduce_bytes = 16.0;

  bool operator==(const SyntheticSpec&) const = default;
};

class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(SyntheticSpec spec);

  [[nodiscard]] long total_iterations() const noexcept override {
    return spec_.iterations;
  }
  sim::CoTask<void> run(simmpi::Comm& comm, long start_iteration,
                        BoundaryHook hook) override;
  void restore(long /*iteration*/) override {}  // stateless
  /// Every iteration costs the same regardless of its index, so an episode
  /// resumed at S is a time-shifted prefix of a from-scratch run.
  [[nodiscard]] bool fast_forward_safe() const noexcept override {
    return true;
  }
  /// Equal specs run identically: the kernel keeps no per-rank state.
  [[nodiscard]] bool same_shape(const Workload& other) const noexcept override;

  [[nodiscard]] const SyntheticSpec& spec() const noexcept { return spec_; }

 private:
  SyntheticSpec spec_;
};

}  // namespace redcr::apps
