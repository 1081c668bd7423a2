// Checkpoint/restart fault taxonomy (beyond the paper's fail-stop nodes).
//
// The paper's model assumes the C/R pipeline itself is perfect: every image
// write succeeds, the latest checkpoint always restores, and restart phases
// never fail. Production systems (LLNL's SCR is the blueprint) see three
// more fault classes, modeled here:
//
//   kWriteFailure     an image write to stable storage fails and the writer
//                     notices immediately (I/O error) — retried with capped
//                     exponential backoff by the CheckpointController
//   kImageCorruption  an image is written "successfully" but is corrupt;
//                     detected only at restart-time validation — the
//                     CheckpointStore then falls back to generation N-1,
//                     N-2, ... (the motivation for retention depth > 1)
//   kRestartFailure   the restart phase itself fails (relaunch/process
//                     failure) — retried by the JobExecutor; exhausted
//                     retries end the job in a structured JobAbort
//
// Determinism: FaultProcess is a pure oracle. Every query derives a fresh
// RNG stream from (seed, fault class, indices) via Xoshiro splits, so the
// answer is a function of the coordinates alone — independent of call
// order, engine interleaving, and sweep worker count (`--jobs`).
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace redcr::failure {

/// The unreliable-C/R fault classes (see file comment).
enum class FaultClass : std::uint64_t {
  kWriteFailure = 1,
  kImageCorruption = 2,
  kRestartFailure = 3,
  /// Per-storage-level variants of write failure / latent corruption for
  /// the levels of a configured hierarchy: same fault physics, but each
  /// level has its own stream, salted with the level index. The flat store
  /// (level id -1) draws kWriteFailure / kImageCorruption.
  kLevelWriteFailure = 4,
  kLevelCorruption = 5,
  /// Silent data corruption, the paper's Msg-plus-hash/voting target: a
  /// payload flipped on the wire (one physical copy of one send) or a rank's
  /// state silently infected at rest. Neither is visible to the C/R pipeline
  /// — only replica voting can observe the divergence.
  kSdcInFlight = 6,
  kSdcAtRest = 7,
};

/// Probabilities of the three C/R fault classes. All default to 0, which is
/// bit-identical to the reliable pre-fault pipeline.
struct CkptFaultParams {
  /// Probability one image-write *attempt* fails visibly (per rank, per
  /// checkpoint epoch, per attempt).
  double write_failure_prob = 0.0;
  /// Probability a committed image is latently corrupt (per rank per
  /// checkpoint epoch; detected only at restart-time validation).
  double corruption_prob = 0.0;
  /// Probability one restart *attempt* fails (per job failure, per attempt).
  double restart_failure_prob = 0.0;
  /// Root seed of the fault streams; independent of FailureParams::seed so
  /// the node-failure schedule is unchanged when faults are enabled.
  std::uint64_t seed = 1097;

  /// True when any fault class can actually fire.
  [[nodiscard]] bool enabled() const noexcept {
    return write_failure_prob > 0.0 || corruption_prob > 0.0 ||
           restart_failure_prob > 0.0;
  }

  /// Rejects NaN and out-of-range probabilities with a one-line
  /// std::invalid_argument naming the offending knob.
  void validate() const;

  bool operator==(const CkptFaultParams&) const = default;
};

/// Silent-data-corruption injection knobs. Both default to 0, which keeps
/// every code path bit-identical to the SDC-free pipeline.
struct SdcParams {
  /// Probability one *physical copy* of one send is flipped on the wire
  /// (per sender rank, per send, per replica copy). Transient: only that
  /// copy is wrong; the sender's state stays clean.
  double inflight_prob = 0.0;
  /// Per-physical-rank rate (infections per second of episode time) of
  /// at-rest state corruption. The first infection time of each rank is an
  /// exponential draw; once infected, every payload the rank sends carries
  /// its strain until the episode ends (a rollback restores clean state, a
  /// restore from an unverified checkpoint resurrects the infection).
  double atrest_rate = 0.0;
  /// Root seed of the SDC streams; independent of the C/R fault seed and of
  /// FailureParams::seed so enabling SDC changes neither schedule.
  std::uint64_t seed = 4243;

  [[nodiscard]] bool enabled() const noexcept {
    return inflight_prob > 0.0 || atrest_rate > 0.0;
  }

  /// Rejects NaN/out-of-range knobs with a one-line std::invalid_argument.
  void validate() const;

  bool operator==(const SdcParams&) const = default;
};

/// Capped exponential backoff: attempt 0 runs immediately, attempt k waits
/// min(backoff_base * 2^(k-1), backoff_cap) seconds first.
struct RetryPolicy {
  int max_attempts = 4;       ///< total attempts, including the first
  double backoff_base = 1.0;  ///< delay before the second attempt, seconds
  double backoff_cap = 60.0;  ///< upper bound on any single backoff delay

  /// Backoff delay inserted before the given attempt (0 for the first).
  [[nodiscard]] double delay_before(int attempt) const noexcept;

  /// Rejects non-positive attempt counts and NaN/negative delays; `what`
  /// names the policy in the error message (e.g. "ckpt_write_retry").
  void validate(const char* what) const;

  bool operator==(const RetryPolicy&) const = default;
};

/// Deterministic fault oracle over CkptFaultParams (see file comment).
class FaultProcess {
 public:
  /// Validates `params` (throws std::invalid_argument).
  explicit FaultProcess(CkptFaultParams params);

  /// Same, with SDC injection enabled (both are validated).
  FaultProcess(CkptFaultParams params, SdcParams sdc);

  /// Does this restart attempt fail?
  [[nodiscard]] bool restart_fails(std::uint64_t restart_index,
                                   int attempt) const noexcept;

  /// Does this image-write attempt at storage level `level` fail visibly?
  /// `level` is the level's public id (ckpt::StorageHierarchy::public_id):
  /// -1 for the flat store, whose stream is kWriteFailure; a hierarchy
  /// level L >= 0 draws kLevelWriteFailure salted with L, so levels fail
  /// independently at the same coordinates. `prob` is the level's own
  /// probability (ckpt::LevelParams carries it; this oracle only supplies
  /// the deterministic stream).
  [[nodiscard]] bool level_write_fails(int level, double prob,
                                       std::uint64_t episode, int epoch,
                                       int rank, int attempt) const noexcept;

  /// Is this committed image at storage level `level` latently corrupt?
  /// Same level-id keying as level_write_fails (kImageCorruption for the
  /// flat store, kLevelCorruption salted with L otherwise).
  [[nodiscard]] bool level_image_corrupts(int level, double prob,
                                          std::uint64_t episode, int epoch,
                                          int rank) const noexcept;

  /// Is this physical copy of this send flipped in flight? `ordinal` is the
  /// sender's send counter (deterministic under the engine's fixed event
  /// order), `copy` the replica-copy index within the send's fan-out.
  [[nodiscard]] bool sdc_flips_copy(std::uint64_t episode, int sender_rank,
                                    std::uint64_t ordinal,
                                    int copy) const noexcept;

  /// The salt that picks (sender rank, copy) within an episode's in-flight
  /// stream; the send ordinal salts the next split.
  [[nodiscard]] static std::uint64_t sdc_copy_salt(int sender_rank,
                                                   int copy) noexcept {
    return (static_cast<std::uint64_t>(sender_rank) << 16) |
           static_cast<std::uint64_t>(copy & 0xFFFF);
  }

  /// Key of `episode`'s in-flight stream. sdc_flips_copy() draws
  ///   split_uniform01(split_key(key, sdc_copy_salt(rank, copy)), ordinal)
  /// (util::Xoshiro256ss's keyed forms), so a caller that keeps the
  /// (rank, copy) keys of an episode decides each copy with two SplitMix64
  /// finalizers instead of five generator constructions (SdcMonitor).
  [[nodiscard]] util::SplitKey sdc_inflight_key(
      std::uint64_t episode) const noexcept;

  /// First at-rest infection time of `rank` in `episode`, seconds from the
  /// episode start; +infinity when the at-rest rate is 0 (never fires).
  [[nodiscard]] double sdc_infection_time(std::uint64_t episode,
                                          int rank) const noexcept;

  /// Deterministic nonzero strain identifier for the injection at these
  /// coordinates — a pure function of (seed, class, episode, a, b), so two
  /// copies flipped by the same injection stay bitwise consistent.
  [[nodiscard]] std::uint64_t sdc_strain(FaultClass cls, std::uint64_t episode,
                                         std::uint64_t a,
                                         std::uint64_t b) const noexcept;

  [[nodiscard]] const CkptFaultParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const SdcParams& sdc() const noexcept { return sdc_; }
  [[nodiscard]] bool enabled() const noexcept { return params_.enabled(); }

 private:
  /// Uniform [0,1) draw from the stream (seed, cls, a, b, c).
  [[nodiscard]] double draw(FaultClass cls, std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) const noexcept;
  /// SDC variant: same stream construction, rooted at the SDC seed.
  [[nodiscard]] double sdc_draw(FaultClass cls, std::uint64_t a,
                                std::uint64_t b,
                                std::uint64_t c) const noexcept;

  CkptFaultParams params_;
  SdcParams sdc_;
};

}  // namespace redcr::failure
