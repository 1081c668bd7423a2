#include "ckpt/storage.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/text.hpp"

namespace redcr::ckpt {

void StorageParams::validate() const {
  // !(x > 0) also catches NaN.
  if (!(bandwidth > 0.0)) {
    throw std::invalid_argument(
        "redcr::ckpt::StorageParams: bandwidth must be > 0 bytes/s, got " +
        util::shortest(bandwidth));
  }
  if (!(base_latency >= 0.0)) {
    throw std::invalid_argument(
        "redcr::ckpt::StorageParams: base_latency must be >= 0 s, got " +
        util::shortest(base_latency));
  }
}

StableStorage::StableStorage(sim::Engine& engine, StorageParams params)
    : engine_(engine), params_(params) {
  params_.validate();
}

sim::Time StableStorage::write_completion(util::Bytes size) {
  assert(size >= 0.0);
  ++writes_;
  if (write_log_ != nullptr) write_log_->push_back(engine_.now());
  bytes_ += size;
  const sim::Time start = std::max(engine_.now(), device_free_);
  device_free_ = start + params_.base_latency + size / params_.bandwidth;
  return device_free_;
}

StableStorage::WriteResult StableStorage::charge_failed_write(
    util::Bytes size) {
  assert(size >= 0.0);
  const double cost = params_.base_latency + size / params_.bandwidth;
  const sim::Time start = std::max(engine_.now(), device_free_);
  device_free_ = start + cost;
  ++failed_writes_;
  wasted_seconds_ += cost;
  return {device_free_, cost, false};
}

}  // namespace redcr::ckpt
