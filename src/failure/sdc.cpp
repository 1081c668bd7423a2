#include "failure/sdc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

namespace redcr::failure {

SdcMonitor::SdcMonitor(const red::ReplicaMap& map, const FaultProcess& faults,
                       std::uint64_t episode)
    : map_(&map),
      faults_(&faults),
      episode_(episode),
      strain_of_(map.num_physical(), 0),
      cause_of_(map.num_physical(), 0) {
  const double p = faults.sdc().inflight_prob;
  if (p <= 0.0) return;
  // uniform01() is k * 2^-53 for the integer k = next() >> 11, exactly, so
  // uniform01() < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53): scaling by
  // 2^53 is exact for p in [0, 1], and k is whole.
  inflight_below_ = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
  // A send has one copy per live replica of its destination sphere.
  for (std::size_t v = 0; v < map.num_virtual(); ++v)
    copies_per_rank_ = std::max<std::size_t>(
        copies_per_rank_, map.degree(static_cast<red::Rank>(v)));
  const util::SplitKey episode_key = faults.sdc_inflight_key(episode);
  inflight_keys_.reserve(map.num_physical() * copies_per_rank_);
  for (std::size_t rank = 0; rank < map.num_physical(); ++rank) {
    for (std::size_t copy = 0; copy < copies_per_rank_; ++copy) {
      inflight_keys_.push_back(util::Xoshiro256ss::split_key(
          episode_key, FaultProcess::sdc_copy_salt(static_cast<int>(rank),
                                                   static_cast<int>(copy))));
    }
  }
}

void SdcMonitor::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    injected_counter_ = nullptr;
    detected_counter_ = nullptr;
    corrected_counter_ = nullptr;
    undetected_counter_ = nullptr;
    infections_counter_ = nullptr;
    return;
  }
  injected_counter_ = &recorder->metrics().counter("red.sdc.injected");
  detected_counter_ = &recorder->metrics().counter("red.sdc.detected");
  corrected_counter_ = &recorder->metrics().counter("red.sdc.corrected");
  undetected_counter_ = &recorder->metrics().counter("red.sdc.undetected");
  infections_counter_ = &recorder->metrics().counter("red.sdc.infections");
}

void SdcMonitor::seed(const std::vector<InfectionRecord>& infections) {
  for (const InfectionRecord& record : infections) {
    if (record.rank < 0 ||
        static_cast<std::size_t>(record.rank) >= strain_of_.size())
      continue;
    const auto idx = static_cast<std::size_t>(record.rank);
    if (strain_of_[idx] != 0) continue;
    strain_of_[idx] = record.strain;
    cause_of_[idx] = record.cause;
    ++infected_count_;
    // The original injection predates this episode; anchor its origin at
    // the episode start so latency stays well-defined (and conservative).
    origins_.emplace(record.strain, Origin{0.0, record.cause});
  }
}

bool SdcMonitor::infect(int rank, std::uint64_t strain, std::uint64_t cause,
                        double /*now*/) {
  const auto idx = static_cast<std::size_t>(rank);
  if (strain_of_[idx] != 0) return false;  // first strain wins
  strain_of_[idx] = strain;
  cause_of_[idx] = cause;
  ++infected_count_;
  ++stats_.infected_ranks;
  if (infections_counter_ != nullptr) infections_counter_->add();
  return true;
}

SdcMonitor::Origin SdcMonitor::origin_of(std::uint64_t strain) const {
  const auto it = origins_.find(strain);
  return it != origins_.end() ? it->second : Origin{};
}

std::uint64_t SdcMonitor::journal_event(const char* type, int rank, double t,
                                        std::uint64_t cause,
                                        const char* detail) {
  if (journal_ == nullptr) return 0;
  obs::Journal::Event ev;
  ev.t = t;
  ev.type = type;
  ev.cause = cause;
  ev.episode = static_cast<int>(episode_);
  ev.rank = rank;
  ev.sphere = static_cast<int>(map_->virtual_of(rank));
  if (detail != nullptr) ev.detail = detail;
  return journal_->append(std::move(ev));
}

sim::Task SdcMonitor::run(sim::Engine& engine) {
  // Oracle-drawn first-infection time per rank; walk them in order. The
  // draws are pure functions of (seed, episode, rank), so the schedule is
  // independent of event interleaving.
  std::vector<double> times(strain_of_.size());
  std::vector<std::size_t> order;
  for (std::size_t p = 0; p < times.size(); ++p) {
    times[p] = faults_->sdc_infection_time(episode_, static_cast<int>(p));
    if (std::isfinite(times[p])) order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return times[a] != times[b] ? times[a] < times[b] : a < b;
  });

  for (const std::size_t p : order) {
    if (times[p] > engine.now())
      co_await sim::delay(engine, times[p] - engine.now());
    const auto rank = static_cast<int>(p);
    if (strain_of_[p] != 0) continue;  // spread got there first
    const std::uint64_t strain =
        faults_->sdc_strain(FaultClass::kSdcAtRest, episode_, p, 0);
    ++stats_.injected_atrest;
    if (injected_counter_ != nullptr) injected_counter_->add();
    if (recorder_ != nullptr) {
      recorder_->instant("sdc-injected", "failure", obs::rank_pid(rank),
                         engine.now());
    }
    // The root-fault event: detections, corrections, invalidated
    // checkpoints, and the rollback's rework/restart all chain to this id.
    const std::uint64_t cause = journal_event("sdc-injected", rank,
                                              engine.now(), 0, "kind=at-rest");
    origins_.emplace(strain, Origin{engine.now(), cause});
    infect(rank, strain, cause, engine.now());
  }
}

simmpi::Payload SdcMonitor::on_send(red::Rank sender_physical,
                                    simmpi::Payload payload, double /*now*/) {
  const std::uint64_t strain =
      strain_of_[static_cast<std::size_t>(sender_physical)];
  if (strain == 0) return payload;
  return payload.corrupted(strain);
}

void SdcMonitor::on_copies(red::Rank sender_physical, std::uint64_t ordinal,
                           std::span<std::uint64_t> strains, double now) {
  if (inflight_keys_.empty()) return;
  assert(strains.size() <= copies_per_rank_);
  const util::SplitKey* const keys =
      &inflight_keys_[static_cast<std::size_t>(sender_physical) *
                      copies_per_rank_];
  for (std::size_t copy = 0; copy < strains.size(); ++copy) {
    const std::uint64_t draw =
        util::Xoshiro256ss::split_next(keys[copy], ordinal);
    strains[copy] = (draw >> 11) < inflight_below_
                        ? inject_inflight(sender_physical, ordinal,
                                          static_cast<int>(copy), now)
                        : 0;
  }
}

std::uint64_t SdcMonitor::inject_inflight(red::Rank sender_physical,
                                          std::uint64_t ordinal, int copy,
                                          double now) {
  const std::uint64_t strain = faults_->sdc_strain(
      FaultClass::kSdcInFlight, episode_,
      FaultProcess::sdc_copy_salt(sender_physical, copy), ordinal);
  ++stats_.injected_inflight;
  if (injected_counter_ != nullptr) injected_counter_->add();
  const std::uint64_t cause = journal_event(
      "sdc-injected", sender_physical, now, 0, "kind=in-flight");
  origins_.emplace(strain, Origin{now, cause});
  return strain;
}

void SdcMonitor::on_delivery(const Delivery& d) {
  // Divergence without any strain is the legacy test corruption hook at
  // work — not this fault model's business.
  if (d.seen_strain == 0) return;
  if (d.mismatch) {
    if (d.corrected) {
      ++stats_.corrected_deliveries;
      if (corrected_counter_ != nullptr) corrected_counter_->add();
      if (journal_ != nullptr &&
          corrected_journaled_.insert(d.seen_strain).second) {
        // Once per strain: a continuously outvoted replica re-corrects on
        // every message and would flood the journal otherwise.
        journal_event("sdc-corrected", d.receiver_physical, d.now,
                      origin_of(d.seen_strain).event, nullptr);
      }
      if (d.chosen_strain != 0) {
        // The strict majority itself was tainted (a consistently infected
        // sender pair): the "correction" still delivered corrupt data.
        const Origin origin = origin_of(d.chosen_strain);
        if (infect(d.receiver_physical, d.chosen_strain, origin.event,
                   d.now)) {
          journal_event("sdc-undetected", d.receiver_physical, d.now,
                        origin.event, nullptr);
        }
      }
      return;
    }
    // Detected but uncorrectable (dual redundancy: one-vs-one). The first
    // one ends the episode; simultaneous detections at the stop timestamp
    // only count.
    ++stats_.detections;
    if (detected_counter_ != nullptr) detected_counter_->add();
    if (!detection_) {
      const Origin origin = origin_of(d.seen_strain);
      SdcDetection det;
      det.time = d.now;
      det.rank = d.receiver_physical;
      det.strain = d.seen_strain;
      det.injection_event = origin.event;
      det.latency = std::max(0.0, d.now - origin.time);
      det.detection_event = journal_event("sdc-detected", d.receiver_physical,
                                          d.now, origin.event, nullptr);
      detection_ = det;
      if (alarm_) alarm_(*detection_);
    }
    return;
  }
  // No divergence observed, yet the surfaced payload is tainted: the
  // detector was blind (r=1 sphere or consistent infection). A clean chosen
  // copy with voting off is not a delivery of corrupt data — skip it.
  if (d.chosen_strain == 0) return;
  ++stats_.undetected_deliveries;
  if (undetected_counter_ != nullptr) undetected_counter_->add();
  const Origin origin = origin_of(d.chosen_strain);
  if (infect(d.receiver_physical, d.chosen_strain, origin.event, d.now)) {
    journal_event("sdc-undetected", d.receiver_physical, d.now, origin.event,
                  nullptr);
  }
}

std::vector<InfectionRecord> SdcMonitor::snapshot_infections() const {
  std::vector<InfectionRecord> out;
  for (std::size_t p = 0; p < strain_of_.size(); ++p) {
    if (strain_of_[p] == 0) continue;
    out.push_back(InfectionRecord{static_cast<int>(p), strain_of_[p],
                                  cause_of_[p]});
  }
  return out;
}

}  // namespace redcr::failure
