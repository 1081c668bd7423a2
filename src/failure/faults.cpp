#include "failure/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/text.hpp"

namespace redcr::failure {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("redcr::failure: " + what);
}

void check_prob(double p, const char* name) {
  // !(p >= 0 && p <= 1) also catches NaN.
  if (!(p >= 0.0 && p <= 1.0)) {
    reject(std::string(name) + " must be in [0, 1], got " + util::shortest(p));
  }
}

}  // namespace

void CkptFaultParams::validate() const {
  check_prob(write_failure_prob, "write_failure_prob");
  check_prob(corruption_prob, "corruption_prob");
  check_prob(restart_failure_prob, "restart_failure_prob");
}

void SdcParams::validate() const {
  check_prob(inflight_prob, "sdc.inflight_prob");
  if (!(atrest_rate >= 0.0) || std::isinf(atrest_rate)) {
    reject("sdc.atrest_rate must be finite and >= 0, got " +
           util::shortest(atrest_rate));
  }
}

double RetryPolicy::delay_before(int attempt) const noexcept {
  if (attempt <= 0) return 0.0;
  // backoff_base * 2^(attempt-1), capped; ldexp avoids overflow for the
  // doubling itself (the min() clamps long before it matters).
  double raw = std::ldexp(backoff_base, std::min(attempt - 1, 60));
  return std::min(raw, backoff_cap);
}

void RetryPolicy::validate(const char* what) const {
  if (max_attempts < 1) {
    reject(std::string(what) + ".max_attempts must be >= 1, got " +
           std::to_string(max_attempts));
  }
  if (!(backoff_base >= 0.0)) {
    reject(std::string(what) + ".backoff_base must be >= 0, got " +
           util::shortest(backoff_base));
  }
  if (!(backoff_cap >= 0.0)) {
    reject(std::string(what) + ".backoff_cap must be >= 0, got " +
           util::shortest(backoff_cap));
  }
}

FaultProcess::FaultProcess(CkptFaultParams params) : params_(params) {
  params_.validate();
}

FaultProcess::FaultProcess(CkptFaultParams params, SdcParams sdc)
    : params_(params), sdc_(sdc) {
  params_.validate();
  sdc_.validate();
}

double FaultProcess::draw(FaultClass cls, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) const noexcept {
  return util::Xoshiro256ss(params_.seed)
      .split(static_cast<std::uint64_t>(cls))
      .split(a)
      .split(b)
      .split(c)
      .uniform01();
}

double FaultProcess::sdc_draw(FaultClass cls, std::uint64_t a, std::uint64_t b,
                              std::uint64_t c) const noexcept {
  return util::Xoshiro256ss(sdc_.seed)
      .split(static_cast<std::uint64_t>(cls))
      .split(a)
      .split(b)
      .split(c)
      .uniform01();
}

bool FaultProcess::restart_fails(std::uint64_t restart_index,
                                 int attempt) const noexcept {
  if (params_.restart_failure_prob <= 0.0) return false;
  return draw(FaultClass::kRestartFailure, restart_index,
              static_cast<std::uint64_t>(attempt), 0) <
         params_.restart_failure_prob;
}

bool FaultProcess::level_write_fails(int level, double prob,
                                     std::uint64_t episode, int epoch,
                                     int rank, int attempt) const noexcept {
  if (prob <= 0.0) return false;
  // Fold (level, rank, attempt) into one salt; 16 bits each keeps the
  // coordinates disjoint for any realistic world size / retry budget. The
  // flat store (level -1) keeps its historical (rank, attempt) salt.
  std::uint64_t who = (static_cast<std::uint64_t>(rank) << 16) |
                      static_cast<std::uint64_t>(attempt & 0xFFFF);
  FaultClass cls = FaultClass::kWriteFailure;
  if (level >= 0) {
    who |= static_cast<std::uint64_t>(level) << 32;
    cls = FaultClass::kLevelWriteFailure;
  }
  return draw(cls, episode, static_cast<std::uint64_t>(epoch), who) < prob;
}

bool FaultProcess::sdc_flips_copy(std::uint64_t episode, int sender_rank,
                                  std::uint64_t ordinal,
                                  int copy) const noexcept {
  if (sdc_.inflight_prob <= 0.0) return false;
  // Fold (rank, copy) into one salt; the send ordinal keeps its own slot so
  // long-running ranks never alias earlier sends.
  return sdc_draw(FaultClass::kSdcInFlight, episode,
                  sdc_copy_salt(sender_rank, copy), ordinal) <
         sdc_.inflight_prob;
}

util::SplitKey FaultProcess::sdc_inflight_key(
    std::uint64_t episode) const noexcept {
  return util::Xoshiro256ss(sdc_.seed)
      .split(static_cast<std::uint64_t>(FaultClass::kSdcInFlight))
      .split(episode)
      .key();
}

double FaultProcess::sdc_infection_time(std::uint64_t episode,
                                        int rank) const noexcept {
  if (sdc_.atrest_rate <= 0.0) return std::numeric_limits<double>::infinity();
  auto rng = util::Xoshiro256ss(sdc_.seed)
                 .split(static_cast<std::uint64_t>(FaultClass::kSdcAtRest))
                 .split(episode)
                 .split(static_cast<std::uint64_t>(rank));
  return rng.exponential(1.0 / sdc_.atrest_rate);
}

std::uint64_t FaultProcess::sdc_strain(FaultClass cls, std::uint64_t episode,
                                       std::uint64_t a,
                                       std::uint64_t b) const noexcept {
  std::uint64_t strain = util::Xoshiro256ss(sdc_.seed)
                             .split(static_cast<std::uint64_t>(cls))
                             .split(episode)
                             .split(a)
                             .split(b)
                             .next();
  return strain != 0 ? strain : 1;  // strain 0 means "clean"
}

bool FaultProcess::level_image_corrupts(int level, double prob,
                                        std::uint64_t episode, int epoch,
                                        int rank) const noexcept {
  if (prob <= 0.0) return false;
  std::uint64_t who = static_cast<std::uint64_t>(rank);
  FaultClass cls = FaultClass::kImageCorruption;
  if (level >= 0) {
    who |= static_cast<std::uint64_t>(level) << 32;
    cls = FaultClass::kLevelCorruption;
  }
  return draw(cls, episode, static_cast<std::uint64_t>(epoch), who) < prob;
}

}  // namespace redcr::failure
