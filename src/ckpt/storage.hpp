// Stable-storage cost model.
//
// The paper's checkpoint cost `c` is dominated by writing per-process images
// to a shared parallel filesystem. We model the store as a single device
// with an aggregate bandwidth: concurrent writers serialize, so the
// coordinated checkpoint of P processes with image size S completes in
// roughly base_latency + P·S/bandwidth — which is how experiment harnesses
// calibrate an effective `c`.
//
// Unreliable mode: the CheckpointController draws each write attempt's
// fate from the failure::FaultProcess oracle; a visibly failed attempt
// still consumes its device slot (charge_failed_write) and is retried with
// capped exponential backoff. Latent image corruption is drawn separately
// at generation commit and only surfaces at restart-time validation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "util/units.hpp"

namespace redcr::ckpt {

struct StorageParams {
  /// Aggregate write bandwidth of the stable store, bytes/second.
  double bandwidth = 1.0e9;
  /// Per-write setup latency (metadata, open, sync), seconds.
  util::Seconds base_latency = 0.05;

  /// Rejects NaN/non-positive bandwidth and NaN/negative latency with a
  /// one-line std::invalid_argument.
  void validate() const;

  bool operator==(const StorageParams&) const = default;
};

class StableStorage {
 public:
  StableStorage(sim::Engine& engine, StorageParams params);

  /// Reserves device time for a write of `size` bytes starting no earlier
  /// than now; returns the absolute completion time.
  sim::Time write_completion(util::Bytes size);

  /// Outcome of one image-write attempt.
  struct WriteResult {
    sim::Time completion = 0.0;  ///< absolute time the device frees up
    double device_time = 0.0;    ///< seconds of device time consumed
    bool ok = true;
  };

  /// Reserves the device slot for a write the *caller* already knows failed
  /// (the controller draws each level's failures from the fault oracle).
  /// The slot is consumed but nothing durable is written; counts the
  /// attempt as failed and its slot as wasted.
  WriteResult charge_failed_write(util::Bytes size);

  /// Attaches an append-only log of successful-write reservation timestamps
  /// (nullptr detaches; not owned). The fast-forward prototypes read
  /// writes() as of any simulated instant from it.
  void set_write_log(std::vector<sim::Time>* log) noexcept {
    write_log_ = log;
  }

  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] double bytes_written() const noexcept { return bytes_; }
  /// Write attempts that failed visibly (unreliable mode only).
  [[nodiscard]] std::uint64_t failed_writes() const noexcept {
    return failed_writes_;
  }
  /// Device seconds consumed by failed write attempts.
  [[nodiscard]] double wasted_write_seconds() const noexcept {
    return wasted_seconds_;
  }
  [[nodiscard]] const StorageParams& params() const noexcept { return params_; }
  /// Time at which all writes reserved so far will have completed; used by
  /// forked checkpointing to know when a whole image set becomes durable.
  [[nodiscard]] sim::Time busy_until() const noexcept { return device_free_; }

 private:
  sim::Engine& engine_;
  StorageParams params_;
  sim::Time device_free_ = 0.0;
  std::uint64_t writes_ = 0;
  std::uint64_t failed_writes_ = 0;
  double bytes_ = 0.0;
  double wasted_seconds_ = 0.0;
  std::vector<sim::Time>* write_log_ = nullptr;  // fast-forward prototypes
};

}  // namespace redcr::ckpt
