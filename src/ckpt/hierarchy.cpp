#include "ckpt/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/text.hpp"

namespace redcr::ckpt {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

std::string level_prefix(int index, LevelKind kind) {
  std::ostringstream os;
  os << "hierarchy level " << index << " (" << level_kind_name(kind) << "): ";
  return os.str();
}

}  // namespace

util::FlagSet level_keys(LevelParams& l) {
  return {{"bw", "B/s", "", l.device.bandwidth},
          {"lat", "S", "", l.device.base_latency},
          {"rbw", "B/s", "", l.read_bandwidth},
          {"ret", "N", "", l.retention},
          {"interval", "M", "", l.interval},
          {"corr", "P", "", l.corruption_prob},
          {"wfail", "P", "", l.write_failure_prob},
          {"group", "G", "", l.group_size},
          {"k", "K", "", l.xor_tolerance}};
}

LevelKind parse_level_kind(const std::string& token) {
  if (token == "local") return LevelKind::kLocal;
  if (token == "partner") return LevelKind::kPartner;
  if (token == "xor") return LevelKind::kXor;
  if (token == "pfs") return LevelKind::kPfs;
  fail("unknown storage level kind '" + token +
       "' (expected local, partner, xor, or pfs)");
}

const char* level_kind_name(LevelKind kind) noexcept {
  switch (kind) {
    case LevelKind::kLocal: return "local";
    case LevelKind::kPartner: return "partner";
    case LevelKind::kXor: return "xor";
    case LevelKind::kPfs: return "pfs";
  }
  return "?";
}

double LevelParams::write_factor(int num_ranks) const noexcept {
  switch (kind) {
    case LevelKind::kPartner:
      return 2.0;
    case LevelKind::kXor: {
      const int g = effective_group(num_ranks);
      return 1.0 + 1.0 / static_cast<double>(g > 1 ? g - 1 : 1);
    }
    case LevelKind::kLocal:
    case LevelKind::kPfs:
      return 1.0;
  }
  return 1.0;
}

int LevelParams::effective_group(int num_ranks) const noexcept {
  return group_size == 0 ? num_ranks : std::min(group_size, num_ranks);
}

void LevelParams::validate(int index, int num_ranks) const {
  const std::string at = level_prefix(index, kind);
  try {
    device.validate();
  } catch (const std::invalid_argument& e) {
    fail(at + e.what());
  }
  if (std::isnan(read_bandwidth) || read_bandwidth < 0.0) {
    fail(at + "read bandwidth must be >= 0 (0 = free fetch), got " +
         util::shortest(read_bandwidth));
  }
  if (retention < 1) {
    fail(at + "retention must be >= 1, got " + std::to_string(retention));
  }
  if (interval < 1) {
    fail(at + "interval must be >= 1 (epochs between writes), got " +
         std::to_string(interval));
  }
  if (std::isnan(corruption_prob) || corruption_prob < 0.0 ||
      corruption_prob > 1.0) {
    fail(at + "corruption probability must be in [0, 1], got " +
         util::shortest(corruption_prob));
  }
  if (std::isnan(write_failure_prob) || write_failure_prob < 0.0 ||
      write_failure_prob > 1.0) {
    fail(at + "write-failure probability must be in [0, 1], got " +
         util::shortest(write_failure_prob));
  }
  if (group_size < 0) {
    fail(at + "group size must be >= 0 (0 = all ranks), got " +
         std::to_string(group_size));
  }
  if (group_size == 1) {
    fail(at + "group size 1 has no redundancy; use 0 for one all-ranks group");
  }
  if (group_size > num_ranks) {
    fail(at + "group size " + std::to_string(group_size) +
         " exceeds the world size " + std::to_string(num_ranks));
  }
  if (kind == LevelKind::kPartner || kind == LevelKind::kXor) {
    if (effective_group(num_ranks) < 2) {
      fail(at + "needs groups of >= 2 ranks, but the world has " +
           std::to_string(num_ranks));
    }
  }
  if (kind == LevelKind::kXor) {
    if (xor_tolerance < 1) {
      fail(at + "xor tolerance k must be >= 1, got " +
           std::to_string(xor_tolerance));
    }
    const int g = effective_group(num_ranks);
    if (xor_tolerance >= g) {
      fail(at + "xor tolerance k=" + std::to_string(xor_tolerance) +
           " must be < group size " + std::to_string(g) +
           " (an XOR set cannot outlive its own group)");
    }
  }
}

int HierarchyParams::pfs_level() const noexcept {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].kind == LevelKind::kPfs) return static_cast<int>(i);
  }
  return -1;
}

bool HierarchyParams::any_fault_prob() const noexcept {
  for (const auto& l : levels) {
    if (l.corruption_prob > 0.0 || l.write_failure_prob > 0.0) return true;
  }
  return false;
}

void HierarchyParams::validate(int num_ranks) const {
  constexpr int kMaxLevels = 8;
  if (levels.empty()) {
    fail("storage hierarchy must declare at least one level "
         "(omit it entirely for the flat pipeline)");
  }
  if (static_cast<int>(levels.size()) > kMaxLevels) {
    fail("storage hierarchy has " + std::to_string(levels.size()) +
         " levels; at most " + std::to_string(kMaxLevels) + " are supported");
  }
  if (num_ranks < 1) {
    fail("storage hierarchy needs a positive world size, got " +
         std::to_string(num_ranks));
  }
  if (levels.front().interval != 1) {
    fail(level_prefix(0, levels.front().kind) +
         "the fastest level must have interval 1 so every checkpoint epoch "
         "lands somewhere, got " + std::to_string(levels.front().interval));
  }
  int pfs_count = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i].validate(static_cast<int>(i), num_ranks);
    if (levels[i].kind == LevelKind::kPfs) {
      ++pfs_count;
      if (i + 1 != levels.size()) {
        fail("hierarchy level " + std::to_string(i) +
             ": the pfs level must be last (levels are ordered fastest "
             "to slowest)");
      }
    }
  }
  if (pfs_count > 1) {
    fail("storage hierarchy declares " + std::to_string(pfs_count) +
         " pfs levels; at most one is supported");
  }
  if (async_flush && pfs_count == 0) {
    fail("async flush requires a pfs level to drain to; add a trailing "
         "'pfs' level or disable async flush");
  }
}

HierarchyParams parse_hierarchy(const std::string& spec) {
  HierarchyParams params;
  std::stringstream levels_in(spec);
  std::string level_spec;
  int index = 0;
  while (std::getline(levels_in, level_spec, ';')) {
    if (level_spec.empty()) {
      fail("hierarchy level " + std::to_string(index) +
           ": empty level spec (check for stray ';')");
    }
    std::stringstream fields_in(level_spec);
    std::string field;
    LevelParams level;
    const util::FlagSet keys = level_keys(level);
    bool first = true;
    while (std::getline(fields_in, field, ',')) {
      if (first) {
        level.kind = parse_level_kind(field);
        first = false;
        continue;
      }
      const auto eq = field.find('=');
      const std::string at = "hierarchy level " + std::to_string(index);
      if (eq == std::string::npos || eq == 0 || eq + 1 == field.size())
        fail(at + ": field '" + field + "' is not key=value");
      const std::string key = field.substr(0, eq);
      const util::Knob* knob = keys.find(key);
      if (knob == nullptr) {
        std::string known;
        for (const util::Knob& k : keys.knobs())
          known += (known.empty() ? "" : ", ") + std::string(k.name);
        fail(at + ": unknown key '" + key + "' (expected " + known + ")");
      }
      knob->set(knob->domain.parse(at + ": key '" + key + "'",
                                   field.substr(eq + 1)));
    }
    if (first) {
      fail("hierarchy level " + std::to_string(index) + ": missing kind");
    }
    params.levels.push_back(level);
    ++index;
  }
  if (params.levels.empty()) {
    fail("empty hierarchy spec (expected e.g. \"local;pfs,interval=4\")");
  }
  return params;
}

StorageHierarchy::StorageHierarchy(HierarchyParams params, int num_ranks)
    : params_(std::move(params)), num_ranks_(num_ranks) {
  params_.validate(num_ranks_);
  pfs_level_ = params_.pfs_level();
  levels_.reserve(params_.levels.size());
  for (const auto& lp : params_.levels) levels_.emplace_back(lp);
  // Memoize the interval routing: it is periodic in lcm(intervals), so one
  // table of that size answers every epoch. Pathological interval choices
  // (coprime large intervals) could blow the lcm up, so cap the table and
  // keep the per-call scan as the fallback (period_ stays 0).
  constexpr long kMaxPeriod = 4096;
  long period = 1;
  for (const auto& lp : params_.levels) {
    period = std::lcm(period, static_cast<long>(lp.interval));
    if (period > kMaxPeriod) return;
  }
  route_.resize(static_cast<size_t>(period));
  pfs_due_.resize(static_cast<size_t>(period));
  for (long m = 0; m < period; ++m) {
    route_[static_cast<size_t>(m)] = cache_level_for(static_cast<int>(m));
    pfs_due_[static_cast<size_t>(m)] =
        pfs_due(static_cast<int>(m)) ? 1 : 0;
  }
  period_ = static_cast<int>(period);  // set last: the fills above must scan
}

StorageHierarchy StorageHierarchy::flat(LevelParams level, int num_ranks) {
  level.kind = LevelKind::kPfs;
  HierarchyParams params;
  params.levels.push_back(level);
  StorageHierarchy store(std::move(params), num_ranks);
  store.flat_ = true;
  return store;
}

int StorageHierarchy::cache_level_for(int epoch) const noexcept {
  if (period_ > 0) return route_[static_cast<size_t>(epoch % period_)];
  int chosen = -1;
  for (int i = 0; i < num_levels(); ++i) {
    if (i == pfs_level_) continue;
    if (epoch % levels_[static_cast<size_t>(i)].params.interval == 0) {
      chosen = i;  // keep walking: the slowest eligible cache level wins
    }
  }
  return chosen;
}

bool StorageHierarchy::pfs_due(int epoch) const noexcept {
  if (period_ > 0) return pfs_due_[static_cast<size_t>(epoch % period_)] != 0;
  return pfs_level_ >= 0 &&
         epoch % levels_[static_cast<size_t>(pfs_level_)].params.interval == 0;
}

bool StorageHierarchy::level_survives(int level,
                                      const std::vector<char>& dead) const {
  const LevelParams& lp = levels_[static_cast<size_t>(level)].params;
  switch (lp.kind) {
    case LevelKind::kPfs:
      return true;
    case LevelKind::kLocal:
      // Every rank's image lives only on that rank: one death loses it.
      for (char d : dead) {
        if (d) return false;
      }
      return true;
    case LevelKind::kPartner: {
      // Rank r's image is mirrored on the cyclically next rank inside its
      // group; the copy chain breaks iff a rank and its partner both die.
      const int g = lp.effective_group(num_ranks_);
      for (int r = 0; r < num_ranks_; ++r) {
        if (!dead[static_cast<size_t>(r)]) continue;
        const int group_base = (r / g) * g;
        const int group_end = std::min(group_base + g, num_ranks_);
        const int span = group_end - group_base;
        const int partner = group_base + (r - group_base + 1) % span;
        if (dead[static_cast<size_t>(partner)]) return false;
      }
      return true;
    }
    case LevelKind::kXor: {
      const int g = lp.effective_group(num_ranks_);
      for (int base = 0; base < num_ranks_; base += g) {
        const int end = std::min(base + g, num_ranks_);
        int lost = 0;
        for (int r = base; r < end; ++r) {
          if (dead[static_cast<size_t>(r)]) ++lost;
        }
        if (lost > lp.xor_tolerance) return false;
      }
      return true;
    }
  }
  return false;
}

void StorageHierarchy::commit(int level, Generation gen) {
  levels_[static_cast<size_t>(level)].store.commit(std::move(gen));
}

StorageHierarchy::FetchResult StorageHierarchy::fetch(
    const std::vector<char>& dead, util::Bytes image_bytes) {
  FetchResult result;
  for (int i = 0; i < num_levels(); ++i) {
    Level& l = levels_[static_cast<size_t>(i)];
    if (!level_survives(i, dead)) {
      // The failure physically destroyed this level's images. Destroyed
      // data deliberately does NOT set had_generations: with every level
      // wiped the job restarts from scratch (the work is redone), whereas
      // surviving-but-all-corrupt generations are an abort — the restart
      // would just re-read the same bad images.
      if (!l.store.empty()) {
        ++l.defeated;
        ++result.levels_defeated;
        result.defeated_levels.push_back(i);
        l.store.clear();
      }
      continue;
    }
    RestoreResult r = l.store.restore();
    if (r.had_generations) result.had_generations = true;
    if (!r.found) continue;
    result.found = true;
    result.level = i;
    result.generation = std::move(r.generation);
    result.fallback_depth = r.fallback_depth;
    if (l.params.read_bandwidth > 0.0) {
      result.fetch_seconds =
          static_cast<double>(num_ranks_) * image_bytes / l.params.read_bandwidth;
    }
    ++l.fetches;
    return result;
  }
  return result;
}

std::vector<StorageHierarchy::Invalidated>
StorageHierarchy::invalidate_unverified() {
  std::vector<Invalidated> removed;
  for (int i = 0; i < num_levels(); ++i) {
    for (Generation& gen :
         levels_[static_cast<size_t>(i)].store.invalidate_unverified()) {
      removed.push_back(Invalidated{i, std::move(gen)});
    }
  }
  return removed;
}

}  // namespace redcr::ckpt
