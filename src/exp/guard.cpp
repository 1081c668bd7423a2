#include "exp/guard.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

#include "exp/cli.hpp"

namespace redcr::exp {

void Measurement::keep_fastest(double run_seconds, std::uint64_t run_ops) {
  if (run_seconds < seconds) {
    seconds = run_seconds;
    ops = run_ops;
  }
}

double Measurement::rate() const { return static_cast<double>(ops) / seconds; }

std::string Measurement::json_fields() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"name\": \"%s\", \"rate\": %.6e, \"unit\": \"%s\", "
                "\"ops\": %llu, \"seconds\": %.6f",
                name.c_str(), rate(), unit.c_str(),
                static_cast<unsigned long long>(ops), seconds);
  std::string out = buf;
  if (!speedup_label.empty()) {
    std::snprintf(buf, sizeof buf, ", \"%s\": %.3f", speedup_label.c_str(),
                  speedup);
    out += buf;
  }
  return out;
}

std::optional<double> baseline_rate(std::string_view baseline,
                                    std::string_view name) {
  const std::string needle = "\"name\": \"" + std::string(name) + "\"";
  const std::size_t at = baseline.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  constexpr std::string_view kKey = "\"rate\": ";
  const std::size_t key = baseline.find(kKey, at);
  if (key == std::string_view::npos) return std::nullopt;
  // strtod needs a terminator the view does not promise.
  const std::string tail(baseline.substr(key + kKey.size(), 64));
  char* end = nullptr;
  const double rate = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str() || !(rate > 0.0)) return std::nullopt;
  return rate;
}

Measurement PerfGuard::best_of(
    std::string name, std::string unit,
    const std::function<std::uint64_t()>& run) const {
  Measurement m{std::move(name), std::move(unit)};
  for (int rep = 0; rep < repeat; ++rep) {
    const Stopwatch clock;
    const std::uint64_t ops = run();
    m.keep_fastest(clock.seconds(), ops);
  }
  return m;
}

util::FlagSet guard_flags(PerfGuard& guard) {
  return {
      {"repeat", "N", "", util::Domain::count(1, 1 << 24), guard.repeat},
      {"guard", "BASELINE.json", "", guard.baseline_path},
      // A tolerance >= 1 makes the floor zero or negative: no gate at all.
      {"tolerance", "F", "", util::Domain::number(0, 1, true), guard.tolerance},
  };
}

bool PerfGuard::passes(double rate, double base) const {
  return rate >= base * (1.0 - tolerance);
}

bool PerfGuard::check(const BenchArgs& args, const char* bench,
                      std::span<const Measurement> scenarios) const {
  if (baseline_path.empty()) return true;
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read baseline '%s'\n", bench,
                 baseline_path.c_str());
    return false;
  }
  const std::string baseline((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  args.say("guard vs %s (tolerance %.0f%%):\n", baseline_path.c_str(),
           100.0 * tolerance);
  bool ok = true;
  for (const Measurement& m : scenarios) {
    if (!m.guarded) continue;
    const std::optional<double> base = baseline_rate(baseline, m.name);
    if (!base) {
      std::fprintf(stderr, "%s: baseline has no rate for '%s'\n", bench,
                   m.name.c_str());
      ok = false;
      continue;
    }
    const bool pass = passes(m.rate(), *base);
    args.say("  %-17s: %10.0f vs baseline %10.0f -> %s\n", m.name.c_str(),
             m.rate(), *base, pass ? "ok" : "REGRESSION");
    ok = ok && pass;
  }
  return ok;
}

bool PerfGuard::require(const BenchArgs& args, const Measurement& m, bool ok,
                        const char* observed, const char* rule) const {
  if (ok || baseline_path.empty()) return true;
  char value[64];
  std::snprintf(value, sizeof value, observed, m.speedup);
  args.say("  %-17s: %s -> REGRESSION (%s)\n", m.name.c_str(), value, rule);
  return false;
}

bool PerfGuard::report(const BenchArgs& args, const char* bench,
                       const Measurement& m, const char* note) const {
  args.say("%-19s: %10.0f %s (%s)\n", m.name.c_str(), m.rate(),
           m.unit.c_str(), note);
  if (args.json)
    std::printf("{\"bench\": \"%s\", %s}\n", bench, m.json_fields().c_str());
  return check(args, bench, {&m, 1});
}

}  // namespace redcr::exp
