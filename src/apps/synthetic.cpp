#include "apps/synthetic.hpp"

#include <stdexcept>
#include <vector>

#include "simmpi/collectives.hpp"

namespace redcr::apps {

namespace {
/// Application tag band for the halo exchange; offset by radius step so a
/// rank's sends to distinct neighbours never alias.
constexpr int kHaloTag = 100;
}  // namespace

SyntheticWorkload::SyntheticWorkload(SyntheticSpec spec) : spec_(spec) {
  if (spec_.iterations <= 0)
    throw std::invalid_argument("SyntheticWorkload: iterations must be > 0");
  if (spec_.halo_radius < 0)
    throw std::invalid_argument("SyntheticWorkload: negative halo radius");
  require_quantity(spec_.compute_per_iteration,
                   "SyntheticWorkload: compute_per_iteration");
  require_quantity(spec_.halo_bytes, "SyntheticWorkload: halo_bytes");
  require_quantity(spec_.allreduce_bytes, "SyntheticWorkload: allreduce_bytes");
}

bool SyntheticWorkload::same_shape(const Workload& other) const noexcept {
  const auto* synthetic = dynamic_cast<const SyntheticWorkload*>(&other);
  return synthetic != nullptr && synthetic->spec_ == spec_;
}

sim::CoTask<void> SyntheticWorkload::run(simmpi::Comm& comm,
                                         long start_iteration,
                                         BoundaryHook hook) {
  const int n = comm.size();
  const simmpi::Rank me = comm.rank();

  for (long iter = start_iteration; iter < spec_.iterations; ++iter) {
    co_await hook(iter);

    // Local computation (sparse matvec + vector updates in CG).
    co_await comm.compute(spec_.compute_per_iteration);

    // Halo exchange with ring neighbours: post all receives, then sends,
    // then wait for everything — the classic nonblocking exchange.
    std::vector<simmpi::Request> pending;
    pending.reserve(4 * static_cast<std::size_t>(spec_.halo_radius));
    for (int k = 1; k <= spec_.halo_radius && 2 * k <= n; ++k) {
      const simmpi::Rank right = (me + k) % n;
      const simmpi::Rank left = (me - k + n) % n;
      const int tag = kHaloTag + k;
      pending.push_back(comm.irecv(left, tag));
      if (left != right) pending.push_back(comm.irecv(right, tag));
    }
    for (int k = 1; k <= spec_.halo_radius && 2 * k <= n; ++k) {
      const simmpi::Rank right = (me + k) % n;
      const simmpi::Rank left = (me - k + n) % n;
      const int tag = kHaloTag + k;
      pending.push_back(
          comm.isend(right, tag, simmpi::Payload::sized(spec_.halo_bytes)));
      if (left != right)
        pending.push_back(
            comm.isend(left, tag, simmpi::Payload::sized(spec_.halo_bytes)));
    }
    co_await simmpi::wait_all(std::move(pending));

    // Dot products.
    for (int j = 0; j < spec_.allreduces_per_iteration; ++j) {
      co_await simmpi::allreduce(
          comm, simmpi::Payload::sized(spec_.allreduce_bytes), j);
    }
  }
}

}  // namespace redcr::apps
