#include "apps/stencil.hpp"

#include <stdexcept>
#include <vector>

#include "simmpi/collectives.hpp"

namespace redcr::apps {

namespace {
/// Face-exchange tags: one per (dimension, direction).
int face_tag(int dim, int dir) { return 300 + dim * 2 + (dir > 0 ? 1 : 0); }
}  // namespace

Stencil3d::Stencil3d(StencilSpec spec) : spec_(spec) {
  if (spec_.iterations <= 0)
    throw std::invalid_argument("Stencil3d: iterations must be > 0");
  for (const int d : spec_.grid)
    if (d <= 0) throw std::invalid_argument("Stencil3d: bad grid dimension");
  require_quantity(spec_.compute_per_iteration,
                   "Stencil3d: compute_per_iteration");
  require_quantity(spec_.face_bytes, "Stencil3d: face_bytes");
}

std::array<int, 3> Stencil3d::coords_of(int rank) const noexcept {
  const auto [nx, ny, nz] = spec_.grid;
  (void)nz;
  return {rank % nx, (rank / nx) % ny, rank / (nx * ny)};
}

int Stencil3d::rank_of(const std::array<int, 3>& c) const noexcept {
  const auto [nx, ny, nz] = spec_.grid;
  (void)nz;
  return c[0] + nx * (c[1] + ny * c[2]);
}

int Stencil3d::neighbor(int rank, int dim, int dir) const noexcept {
  std::array<int, 3> c = coords_of(rank);
  c[static_cast<std::size_t>(dim)] += dir;
  const int extent = spec_.grid[static_cast<std::size_t>(dim)];
  auto& coord = c[static_cast<std::size_t>(dim)];
  if (coord < 0 || coord >= extent) {
    if (!spec_.periodic) return -1;
    coord = (coord + extent) % extent;
  }
  return rank_of(c);
}

sim::CoTask<void> Stencil3d::run(simmpi::Comm& comm, long start_iteration,
                                 BoundaryHook hook) {
  const int n = comm.size();
  if (n != spec_.grid[0] * spec_.grid[1] * spec_.grid[2])
    throw std::invalid_argument("Stencil3d: grid does not match world size");
  const int me = comm.rank();

  for (long iter = start_iteration; iter < spec_.iterations; ++iter) {
    co_await hook(iter);
    co_await comm.compute(spec_.compute_per_iteration);

    // Exchange all six faces; receives first, classic nonblocking pattern.
    std::vector<simmpi::Request> pending;
    pending.reserve(12);
    for (int dim = 0; dim < 3; ++dim) {
      for (const int dir : {-1, +1}) {
        const int peer = neighbor(me, dim, dir);
        if (peer < 0 || peer == me) continue;
        // The face a peer sends toward us travels in the opposite
        // direction, so it carries the mirrored tag.
        pending.push_back(comm.irecv(peer, face_tag(dim, -dir)));
      }
    }
    for (int dim = 0; dim < 3; ++dim) {
      for (const int dir : {-1, +1}) {
        const int peer = neighbor(me, dim, dir);
        if (peer < 0 || peer == me) continue;
        pending.push_back(comm.isend(
            peer, face_tag(dim, dir), simmpi::Payload::sized(spec_.face_bytes)));
      }
    }
    co_await simmpi::wait_all(std::move(pending));

    if (spec_.residual_every > 0 && iter % spec_.residual_every == 0) {
      co_await simmpi::allreduce(comm, simmpi::Payload::sized(8.0));
    }
  }
}

}  // namespace redcr::apps
