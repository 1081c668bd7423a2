// Silent-data-corruption injection and epidemic tracking.
//
// The paper's Msg-plus-hash and triple-voting modes (src/red/) are SDC
// *detectors*: they observe replica divergence, not wrongness. This module
// supplies the matching *fault* model, driven by the seeded FaultProcess
// oracle so every draw is a pure function of its coordinates:
//
//   in-flight  one physical copy of one send is flipped on the wire
//              (transient: the sender's state stays clean). Detected
//              immediately when the receiving copy-set holds >= 2 copies;
//              silently infects the receiver otherwise.
//   at-rest    a rank's state is infected at an exponential first-infection
//              time; every payload it sends from then on carries its strain.
//              Divergence exists only against clean sibling replicas, so an
//              infection of an r=1 sphere — or one that spreads through a
//              full sphere consistently — passes every vote silently.
//
// Each corruption carries a *strain*: a deterministic identifier of the
// injection event. Copies tainted by the same strain stay bitwise
// consistent (no false divergence), clean vs. tainted and cross-strain
// copies hash apart. A tainted payload that survives voting infects the
// receiving rank — that is how an undetected infection spreads and how it
// ends up inside checkpoint images (ckpt::Generation records the live
// infections at publish; restoring such an *unverified* image resurrects
// them through SdcMonitor::seed()).
//
// Detection semantics (on_delivery):
//   mismatch + strict majority  ->  corrected; execution continues (triple
//                                   redundancy votes the bad copy out)
//   mismatch, no majority       ->  detected-uncorrectable; the alarm ends
//                                   the episode and the executor rolls back
//                                   to the last *verified* checkpoint
//   no mismatch, tainted        ->  the detector was blind; the receiver is
//                                   silently infected
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "failure/faults.hpp"
#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "red/red_comm.hpp"
#include "red/replica_map.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace redcr::failure {

/// One persistent rank infection as recorded inside a checkpoint
/// generation: restoring an unverified image resurrects it.
struct InfectionRecord {
  int rank = -1;
  std::uint64_t strain = 0;
  /// Journal id of the original sdc-injected event (0 without a journal);
  /// preserved across episodes so later detections still chain to the root.
  std::uint64_t cause = 0;
};

/// The first uncorrectable divergence of an episode; handed to the alarm so
/// the executor can end the episode and roll back with an SDC root cause.
struct SdcDetection {
  double time = 0.0;  ///< engine-local detection time
  int rank = -1;      ///< receiver physical rank whose vote detected it
  std::uint64_t strain = 0;
  std::uint64_t injection_event = 0;  ///< root cause (sdc-injected id)
  std::uint64_t detection_event = 0;  ///< the sdc-detected journal id
  /// Detection time minus injection time (0-based for infections restored
  /// from an unverified checkpoint, whose injection predates the episode).
  double latency = 0.0;
};

/// Lifetime counters of one episode's monitor.
struct SdcStats {
  std::uint64_t injected_inflight = 0;
  std::uint64_t injected_atrest = 0;
  /// Uncorrectable strain-involved mismatches observed (>= 1 per rollback;
  /// simultaneous detections at the stop timestamp all count).
  std::uint64_t detections = 0;
  std::uint64_t corrected_deliveries = 0;   ///< majority outvoted a strain
  std::uint64_t undetected_deliveries = 0;  ///< tainted payload passed voting
  std::uint64_t infected_ranks = 0;         ///< state infections (incl. spread)
};

/// Per-episode SDC state: injection (via the oracle), rank infection
/// tracking, and the post-vote classification consulted by every RedComm.
class SdcMonitor final : public red::SdcPolicy {
 public:
  /// `map` and `faults` must outlive the monitor; `episode` salts every
  /// oracle draw so reruns and sweep workers stay bit-identical.
  SdcMonitor(const red::ReplicaMap& map, const FaultProcess& faults,
             std::uint64_t episode);

  /// Attaches an observability recorder (nullptr detaches): feeds the
  /// "red.sdc.injected" / "red.sdc.detected" / "red.sdc.corrected" /
  /// "red.sdc.undetected" / "red.sdc.infections" counters.
  void set_recorder(obs::Recorder* recorder);
  void set_journal(obs::Journal* journal) { journal_ = journal; }
  /// Raised once, on the episode's first uncorrectable detection.
  void set_alarm(std::function<void(const SdcDetection&)> alarm) {
    alarm_ = std::move(alarm);
  }

  /// Resurrects infections recorded in a restored unverified checkpoint.
  /// Must run before the episode's first send.
  void seed(const std::vector<InfectionRecord>& infections);

  /// Background at-rest injector: walks the oracle's per-rank first
  /// infection times in order and infects each rank as its time arrives.
  /// Spawn once per episode when sdc().atrest_rate > 0.
  sim::Task run(sim::Engine& engine);

  // red::SdcPolicy
  simmpi::Payload on_send(red::Rank sender_physical, simmpi::Payload payload,
                          double now) override;
  void on_copies(red::Rank sender_physical, std::uint64_t ordinal,
                 std::span<std::uint64_t> strains, double now) override;
  void on_delivery(const Delivery& delivery) override;

  [[nodiscard]] const SdcStats& stats() const noexcept { return stats_; }
  /// True while any rank's state carries an infection — the controller
  /// consults this at checkpoint publish to set the verified bit.
  [[nodiscard]] bool any_infected() const noexcept {
    return infected_count_ > 0;
  }
  /// The live infections, rank-ordered (recorded into each Generation).
  [[nodiscard]] std::vector<InfectionRecord> snapshot_infections() const;
  /// The episode-ending detection, if one fired.
  [[nodiscard]] const std::optional<SdcDetection>& detection() const noexcept {
    return detection_;
  }

 private:
  /// Where a strain came from: injection time + journal event id.
  struct Origin {
    double time = 0.0;
    std::uint64_t event = 0;
  };

  /// Marks `rank` infected (first strain wins); returns true when newly
  /// infected.
  bool infect(int rank, std::uint64_t strain, std::uint64_t cause, double now);
  [[nodiscard]] Origin origin_of(std::uint64_t strain) const;
  std::uint64_t journal_event(const char* type, int rank, double t,
                              std::uint64_t cause, const char* detail);

  const red::ReplicaMap* map_;
  const FaultProcess* faults_;
  std::uint64_t episode_;
  /// Journals and counts the in-flight flip of copy `copy` of this send;
  /// returns its strain.
  std::uint64_t inject_inflight(red::Rank sender_physical,
                                std::uint64_t ordinal, int copy, double now);

  /// In-flight flips: the key of split(sdc_copy_salt(rank, copy)) of the
  /// episode's stream for every physical rank and copy index, rank-major
  /// (empty when the in-flight probability is 0). A copy flips when the top
  /// 53 bits of split_next(key, ordinal) fall below `inflight_below_`, the
  /// same decision as sdc_flips_copy()'s uniform01() < inflight_prob.
  std::vector<util::SplitKey> inflight_keys_;
  std::size_t copies_per_rank_ = 0;
  std::uint64_t inflight_below_ = 0;
  /// Per physical rank: the infecting strain (0 = clean).
  std::vector<std::uint64_t> strain_of_;
  std::vector<std::uint64_t> cause_of_;
  int infected_count_ = 0;
  std::map<std::uint64_t, Origin> origins_;
  /// Strains whose correction was already journalled (a continuously
  /// outvoted replica would otherwise flood the journal every message).
  std::set<std::uint64_t> corrected_journaled_;
  SdcStats stats_;
  std::optional<SdcDetection> detection_;
  std::function<void(const SdcDetection&)> alarm_;
  obs::Recorder* recorder_ = nullptr;
  obs::Journal* journal_ = nullptr;
  obs::Counter* injected_counter_ = nullptr;
  obs::Counter* detected_counter_ = nullptr;
  obs::Counter* corrected_counter_ = nullptr;
  obs::Counter* undetected_counter_ = nullptr;
  obs::Counter* infections_counter_ = nullptr;
};

}  // namespace redcr::failure
