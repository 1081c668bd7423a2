// The plan cache's canonical request key (DESIGN.md §12): the words a
// PlanRequest is encoded as, and their hash. Internal to redcr::Planner;
// declared here so tests can check that distinct keys hash apart, which no
// cache counter shows (a hash that dropped a word would still answer every
// lookup right, from one long bucket chain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "redcr/planner.hpp"

namespace redcr::model {

/// The request as the model sees it: every double bit_cast to its uint64
/// pattern with -0.0 collapsed into 0.0, enums and flags as words, and the
/// grid as the degrees it expands to, so an explicit degree list and the
/// equivalent range spelling encode alike.
[[nodiscard]] std::vector<std::uint64_t> plan_key_words(
    const PlanRequest& request);

/// One xor-multiply step per 64-bit word, then a fold of the high half into
/// the low half. Collisions are tolerated: the cache index compares full
/// keys on lookup.
[[nodiscard]] std::size_t plan_key_hash(
    std::span<const std::uint64_t> words) noexcept;

}  // namespace redcr::model
