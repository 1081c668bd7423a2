// α-β network cost model with per-node NIC injection serialization.
//
// A message of s bytes from node a to node b is delivered at
//     max(now, egress_free(a)) + s/bandwidth + latency,
// and the sender's NIC stays busy for the s/bandwidth transmission slot.
// Serializing the injection port is what makes redundancy overhead grow
// *superlinearly* in the fan-out (each physical process injects r copies of
// every message through one NIC) — the effect the paper measures in Table 5
// / Fig. 10, where the 1x→1.25x step costs more than the linear model
// predicts.
//
// The model is deliberately topology-free: the paper's cluster (QDR
// InfiniBand, fat-tree) is well-approximated by per-endpoint contention for
// the message sizes involved, and the analytic model it validates has no
// topology term either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace redcr::net {

/// Identifies a physical node (an independent unit of failure; one process
/// per node per the paper's assumption 2).
using NodeId = std::size_t;

struct NetworkParams {
  /// α: one-way wire latency, seconds.
  util::Seconds latency = 2e-6;
  /// β⁻¹: per-NIC injection bandwidth, bytes/second (QDR IB ≈ 3.2 GB/s).
  double bandwidth = 3.2e9;
  /// Fixed per-message CPU overhead at the sender (matching engine, stack).
  util::Seconds send_overhead = 0.5e-6;
  /// If false, NIC serialization is disabled (pure α-β model; ablation).
  bool model_contention = true;

  /// Rejects NaN/non-positive bandwidth and a non-finite or negative
  /// latency or send overhead with a one-line std::invalid_argument.
  void validate() const;

  bool operator==(const NetworkParams&) const = default;
};

/// Cumulative traffic counters.
struct TrafficStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  /// Total time messages spent queued behind a busy NIC.
  util::Seconds contention_wait = 0.0;
};

class Network {
 public:
  Network(sim::Engine& engine, std::size_t num_nodes, NetworkParams params);

  /// Accounts for one message injection and returns the *absolute* simulated
  /// time at which the message is fully delivered at the destination.
  /// Mutates the sender's NIC availability.
  sim::Time delivery_time(NodeId src, NodeId dst, util::Bytes size);

  /// Sender-side cost of initiating a send (time the sending process is
  /// busy before it can continue): per-message overhead only — transmission
  /// is offloaded to the NIC.
  [[nodiscard]] util::Seconds send_busy_time() const noexcept {
    return params_.send_overhead;
  }

  [[nodiscard]] const NetworkParams& params() const noexcept { return params_; }
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return egress_free_.size();
  }

  /// Attaches an observability recorder (nullptr detaches). Feeds the
  /// "net.messages" / "net.bytes" / "net.contention_wait" counters — the
  /// redundant-communication overhead `t_Red` shows up here as injected
  /// bytes and NIC queueing the r-fold fan-out causes.
  void set_recorder(obs::Recorder* recorder);

  /// Attaches an append-only (time, cumulative contention_wait after the
  /// addition) log, fed only when a message actually queues (nullptr
  /// detaches; not owned). The fast-forward prototypes read the cumulative
  /// value as of any simulated instant from it.
  void set_contention_log(std::vector<std::pair<sim::Time, double>>* log)
      noexcept {
    contention_log_ = log;
  }

 private:
  sim::Engine& engine_;
  NetworkParams params_;
  std::vector<sim::Time> egress_free_;  // per-node NIC available-at time
  TrafficStats stats_;
  obs::Counter* messages_counter_ = nullptr;  // cached registry handles
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* wait_counter_ = nullptr;
  std::vector<std::pair<sim::Time, double>>* contention_log_ = nullptr;
};

}  // namespace redcr::net
