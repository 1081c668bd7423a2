#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/text.hpp"

namespace redcr::net {

void NetworkParams::validate() const {
  const auto fail = [](const std::string& what, double value) {
    throw std::invalid_argument("redcr::net::NetworkParams: " + what +
                                ", got " + util::shortest(value));
  };
  // !(x > 0) also catches NaN.
  if (!(bandwidth > 0.0)) fail("bandwidth must be > 0 bytes/s", bandwidth);
  if (!(latency >= 0.0) || !std::isfinite(latency))
    fail("latency must be finite and >= 0 s", latency);
  if (!(send_overhead >= 0.0) || !std::isfinite(send_overhead))
    fail("send_overhead must be finite and >= 0 s", send_overhead);
}

Network::Network(sim::Engine& engine, std::size_t num_nodes,
                 NetworkParams params)
    : engine_(engine), params_(params), egress_free_(num_nodes, 0.0) {
  assert(num_nodes > 0);
  assert(params_.latency >= 0.0);
  assert(params_.bandwidth > 0.0);
}

void Network::set_recorder(obs::Recorder* recorder) {
  if (recorder == nullptr) {
    messages_counter_ = nullptr;
    bytes_counter_ = nullptr;
    wait_counter_ = nullptr;
    return;
  }
  messages_counter_ = &recorder->metrics().counter("net.messages");
  bytes_counter_ = &recorder->metrics().counter("net.bytes");
  wait_counter_ = &recorder->metrics().counter("net.contention_wait");
}

sim::Time Network::delivery_time(NodeId src, NodeId dst, util::Bytes size) {
  assert(src < egress_free_.size());
  assert(dst < egress_free_.size());
  assert(size >= 0.0);
  (void)dst;  // destination-side contention is folded into latency
  const sim::Time now = engine_.now();
  const double transmission = size / params_.bandwidth;

  ++stats_.messages;
  stats_.bytes += size;
  if (messages_counter_ != nullptr) {
    messages_counter_->add();
    bytes_counter_->add(size);
  }

  if (!params_.model_contention) {
    return now + params_.send_overhead + transmission + params_.latency;
  }

  const sim::Time inject_start =
      std::max(now + params_.send_overhead, egress_free_[src]);
  stats_.contention_wait += inject_start - (now + params_.send_overhead);
  if (wait_counter_ != nullptr)
    wait_counter_->add(inject_start - (now + params_.send_overhead));
  if (contention_log_ != nullptr &&
      inject_start > now + params_.send_overhead)
    contention_log_->emplace_back(now, stats_.contention_wait);
  egress_free_[src] = inject_start + transmission;
  return egress_free_[src] + params_.latency;
}

}  // namespace redcr::net
