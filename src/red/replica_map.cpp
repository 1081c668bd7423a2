#include "red/replica_map.hpp"

#include <cmath>
#include <stdexcept>

#include "model/redundancy.hpp"

namespace redcr::red {

namespace {
/// Ceiling division for non-negative integers.
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

ReplicaMap::ReplicaMap(std::size_t num_virtual, double r) : degree_(r) {
  if (num_virtual == 0)
    throw std::invalid_argument("ReplicaMap: need at least one process");
  if (!(r >= 1.0) || !(r <= kMaxDegree))
    throw std::invalid_argument("ReplicaMap: degree must be in [1, 8]");

  // Delegate the set sizes to the model's partition (Eqs. 5-8) so the
  // executable system and the analytic model can never disagree.
  const model::Partition part = model::partition_processes(num_virtual, r);

  // Spread the ⌈r⌉-degree spheres evenly from rank 0 (Bresenham): rank v is
  // high-degree iff ceil((v+1)·K/N) > ceil(v·K/N) with K = N_⌈r⌉. For
  // r = 1.5 this replicates exactly the even ranks, matching the paper.
  replicas_of_.resize(num_virtual);
  const std::size_t k = part.n_ceil_set;
  std::vector<unsigned> degrees(num_virtual, part.floor_degree);
  std::size_t assigned_high = 0;
  for (std::size_t v = 0; v < num_virtual; ++v) {
    if (ceil_div((v + 1) * k, num_virtual) > ceil_div(v * k, num_virtual)) {
      degrees[v] = part.ceil_degree;
      ++assigned_high;
    }
  }
  if (assigned_high != part.n_ceil_set)
    throw std::logic_error("ReplicaMap: Bresenham spread miscounted");

  // Primaries first...
  virtual_of_.reserve(part.total_procs);
  replica_index_of_.reserve(part.total_procs);
  for (std::size_t v = 0; v < num_virtual; ++v) {
    replicas_of_[v].push_back(static_cast<Rank>(v));
    virtual_of_.push_back(static_cast<Rank>(v));
    replica_index_of_.push_back(0);
  }
  // ...then extra replicas grouped by virtual rank.
  for (std::size_t v = 0; v < num_virtual; ++v) {
    for (unsigned i = 1; i < degrees[v]; ++i) {
      replicas_of_[v].push_back(static_cast<Rank>(virtual_of_.size()));
      virtual_of_.push_back(static_cast<Rank>(v));
      replica_index_of_.push_back(i);
    }
  }
  if (virtual_of_.size() != part.total_procs)
    throw std::logic_error("ReplicaMap: physical count mismatch with Eq. 8");
}

unsigned ReplicaMap::degree(Rank v) const {
  return static_cast<unsigned>(replicas(v).size());
}

std::span<const Rank> ReplicaMap::replicas(Rank v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= replicas_of_.size())
    throw std::out_of_range("ReplicaMap::replicas: virtual rank out of range");
  return replicas_of_[static_cast<std::size_t>(v)];
}

Rank ReplicaMap::virtual_of(Rank p) const {
  if (p < 0 || static_cast<std::size_t>(p) >= virtual_of_.size())
    throw std::out_of_range("ReplicaMap::virtual_of: rank out of range");
  return virtual_of_[static_cast<std::size_t>(p)];
}

unsigned ReplicaMap::replica_index(Rank p) const {
  if (p < 0 || static_cast<std::size_t>(p) >= replica_index_of_.size())
    throw std::out_of_range("ReplicaMap::replica_index: rank out of range");
  return replica_index_of_[static_cast<std::size_t>(p)];
}

}  // namespace redcr::red
