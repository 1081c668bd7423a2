#include "apps/spectral.hpp"

#include <stdexcept>
#include <vector>

#include "simmpi/collectives.hpp"

namespace redcr::apps {

SpectralWorkload::SpectralWorkload(SpectralSpec spec) : spec_(spec) {
  if (spec_.iterations <= 0)
    throw std::invalid_argument("SpectralWorkload: iterations must be > 0");
  require_quantity(spec_.compute_per_iteration,
                   "SpectralWorkload: compute_per_iteration");
  require_quantity(spec_.slab_bytes, "SpectralWorkload: slab_bytes");
}

sim::CoTask<void> SpectralWorkload::run(simmpi::Comm& comm,
                                        long start_iteration,
                                        BoundaryHook hook) {
  const int n = comm.size();
  for (long iter = start_iteration; iter < spec_.iterations; ++iter) {
    co_await hook(iter);
    co_await comm.compute(spec_.compute_per_iteration / 2.0);

    // The transpose: one slab to every peer.
    std::vector<simmpi::Payload> slabs;
    slabs.reserve(static_cast<std::size_t>(n));
    for (int peer = 0; peer < n; ++peer)
      slabs.push_back(simmpi::Payload::sized(spec_.slab_bytes));
    co_await simmpi::alltoall(comm, std::move(slabs));

    co_await comm.compute(spec_.compute_per_iteration / 2.0);
    if (spec_.residual_check)
      co_await simmpi::allreduce(comm, simmpi::Payload::sized(8.0), 1);
  }
}

}  // namespace redcr::apps
