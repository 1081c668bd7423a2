// Virtual-to-physical process mapping for (partial) redundancy.
//
// Implements the paper's partitioning (Eqs. 5-8): with degree r, N virtual
// processes split into N_⌊r⌋ spheres of ⌊r⌋ replicas and N_⌈r⌉ spheres of
// ⌈r⌉ replicas. Which virtual ranks get the higher degree follows the
// paper's convention "1.5x means every other (i.e. every even) process has a
// replica": higher-degree spheres are spread evenly starting at rank 0
// (Bresenham spacing).
//
// Physical layout: physical ranks [0, N) are replica 0 of virtual ranks
// [0, N); additional replicas occupy [N, N_total) grouped by virtual rank in
// ascending order. Each physical rank runs on its own node (assumption 2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "simmpi/types.hpp"

namespace redcr::red {

using simmpi::Rank;

class ReplicaMap {
 public:
  /// Degree ceiling: no sphere holds more replicas than this. It sizes the
  /// redundancy layer's fixed per-message arrays (red_comm.cpp).
  static constexpr unsigned kMaxDegree = 8;

  /// Builds the map for `num_virtual` processes at degree `r` in
  /// [1, kMaxDegree].
  ReplicaMap(std::size_t num_virtual, double r);

  [[nodiscard]] std::size_t num_virtual() const noexcept {
    return replicas_of_.size();
  }
  [[nodiscard]] std::size_t num_physical() const noexcept {
    return virtual_of_.size();
  }
  [[nodiscard]] double requested_degree() const noexcept { return degree_; }

  /// Number of physical replicas of virtual rank `v`.
  [[nodiscard]] unsigned degree(Rank v) const;

  /// Physical ranks of virtual rank `v`'s sphere, replica index order.
  [[nodiscard]] std::span<const Rank> replicas(Rank v) const;

  /// Virtual rank that physical rank `p` belongs to.
  [[nodiscard]] Rank virtual_of(Rank p) const;

  /// Replica index of physical rank `p` within its sphere (0 = primary).
  [[nodiscard]] unsigned replica_index(Rank p) const;

 private:
  double degree_;
  std::vector<std::vector<Rank>> replicas_of_;  // virtual -> physical ranks
  std::vector<Rank> virtual_of_;                // physical -> virtual
  std::vector<unsigned> replica_index_of_;      // physical -> replica index
};

}  // namespace redcr::red
