#include "apps/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/flatjson.hpp"
#include "obs/json.hpp"
#include "redcr/scenario.hpp"
#include "util/knob.hpp"
#include "util/units.hpp"

namespace redcr::apps {

namespace {

/// One parsed request line.
struct Request {
  double id = 0.0;  // 0 = not given; replaced by the line number
  ScenarioBuilder scenario;
  double r_min = 0.0;
  double r_max = 0.0;
  double r_step = 0.0;
};

/// The request keys bound to `q`: the scenario's plus serve's own. The id
/// is echoed in the response, so it must be finite: JSON has no spelling
/// for an overflowed one, and the client could not match the answer.
util::FlagSet request_keys(Request& q) {
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  util::FlagSet keys = scenario_flags(q.scenario);
  keys.add({{"id", "", "", util::Domain::number(-kMaxFinite, kMaxFinite),
             q.id},
            {"r_min", "", "1", q.r_min},
            {"r_max", "", "3", q.r_max},
            {"r_step", "", "0.25", q.r_step}});
  return keys;
}

[[noreturn]] void bad_request(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("request at line " + std::to_string(lineno) +
                           ": " + what);
}

/// Parses one line into the request `keys` write, after its domain check.
void parse_request(std::string_view line, std::size_t lineno,
                   const util::FlagSet& keys) {
  obs::FlatLineParser parser(line, lineno, "request");
  parser.parse_object([&](const std::string& key) {
    const double v = parser.parse_number();
    const util::Knob* knob = keys.find(key);
    if (knob == nullptr) return;  // unknown keys: forward compatibility
    if (!knob->domain.admits(v))
      bad_request(lineno, knob->domain.reject(key, parser.numeral()));
    knob->set(util::Value{v, {}});
  });
}

PlanRequest to_plan(const Request& q, std::size_t lineno,
                    const ServeOptions& options) {
  const auto bad = [lineno](const std::string& what) {
    bad_request(lineno, what);
  };
  // The planner's grid walk asserts these in debug builds only; a replayed
  // log is external input, so validate with a line-numbered error instead.
  if (!(q.r_step > 0.0) || !std::isfinite(q.r_step))
    bad("r_step must be finite and > 0");
  if (!(q.r_min >= 1.0) || !(q.r_max >= q.r_min) || !std::isfinite(q.r_max))
    bad("need 1 <= r_min <= r_max (finite)");
  if ((q.r_max - q.r_min) / q.r_step > 1e6) bad("redundancy grid too large");

  PlanRequest plan;
  try {
    plan.config = q.scenario.build();
  } catch (const std::exception& e) {
    bad(e.what());
  }
  plan.r_begin = q.r_min;
  plan.r_end = q.r_max;
  plan.r_step = q.r_step;
  plan.mode = options.mode;
  return plan;
}

void append_response(std::string& out, const Request& q,
                     const PlanResponse& plan) {
  const model::Prediction& best = plan.best();
  out += "{\"id\":";
  obs::json::append_number(out, q.id);
  out += ",\"best_r\":";
  obs::json::append_number(out, best.r);
  out += ",\"total_hours\":";
  obs::json::append_number(out, util::to_hours(best.total_time));
  out += ",\"nodes\":";
  obs::json::append_number(out, static_cast<double>(best.total_procs));
  out += ",\"interval_min\":";
  obs::json::append_number(out, util::to_minutes(best.interval));
  out += ",\"system_mtbf_hours\":";
  obs::json::append_number(out, util::to_hours(best.system_mtbf));
  out += ",\"expected_failures\":";
  obs::json::append_number(out, best.expected_failures);
  out += ",\"from_cache\":";
  out += plan.from_cache() ? '1' : '0';
  out += "}\n";
}

/// The nearest-rank index of percentile `p` in a sample of `n` > 0.
std::size_t rank_index(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

ServeReport serve_replay(const std::string& text, std::string& responses,
                         const ServeOptions& options) {
  Planner planner(options.cache_capacity);
  Request q;
  const util::FlagSet keys = request_keys(q);
  (void)keys.parse(0, nullptr);  // no flags: every key at its default
  const Request defaults = q;
  ServeReport report;
  std::vector<double> latencies_us;
  using clock = std::chrono::steady_clock;
  const auto t_begin = clock::now();
  obs::for_each_line(text, [&](std::string_view line, std::size_t lineno) {
    q = defaults;
    parse_request(line, lineno, keys);
    if (q.id == 0.0) q.id = static_cast<double>(lineno);
    const PlanRequest plan_request = to_plan(q, lineno, options);
    const auto t0 = clock::now();
    const PlanResponse plan = planner.plan(plan_request, options.jobs);
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
    append_response(responses, q, plan);
    ++report.requests;
  });
  report.seconds =
      std::chrono::duration<double>(clock::now() - t_begin).count();
  report.qps = report.seconds > 0.0
                   ? static_cast<double>(report.requests) / report.seconds
                   : 0.0;
  if (!latencies_us.empty()) {
    // Nearest-rank percentiles by selection, largest rank first: each
    // nth_element leaves everything below its rank in front of it, so the
    // next, smaller rank is selected within that prefix.
    const auto at = [&](std::size_t i) { return latencies_us.begin() + i; };
    const std::size_t n = latencies_us.size();
    const std::size_t i99 = rank_index(99.0, n);
    const std::size_t i90 = rank_index(90.0, n);
    const std::size_t i50 = rank_index(50.0, n);
    report.max_us = *std::max_element(at(0), at(n));
    std::nth_element(at(0), at(i99), at(n));
    std::nth_element(at(0), at(i90), at(i99));
    std::nth_element(at(0), at(i50), at(i90));
    report.p99_us = *at(i99);
    report.p90_us = *at(i90);
    report.p50_us = *at(i50);
  }
  report.stats = planner.stats();
  return report;
}

std::string ServeReport::render() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "served %llu requests in %.3f s: %.0f qps\n"
      "latency: p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us\n"
      "plan cache: %llu hits, %llu misses, %llu evictions (%.1f%% hit "
      "rate); %llu model points evaluated\n",
      static_cast<unsigned long long>(requests), seconds, qps, p50_us, p90_us,
      p99_us, max_us, static_cast<unsigned long long>(stats.plan_cache_hits),
      static_cast<unsigned long long>(stats.plan_cache_misses),
      static_cast<unsigned long long>(stats.plan_cache_evictions),
      stats.plans > 0
          ? 100.0 * static_cast<double>(stats.plan_cache_hits) /
                static_cast<double>(stats.plans)
          : 0.0,
      static_cast<unsigned long long>(stats.points));
  return buf;
}

void ServeReport::export_metrics(obs::Registry& registry) const {
  registry.add("planner.plan_cache.hits",
               static_cast<double>(stats.plan_cache_hits));
  registry.add("planner.plan_cache.misses",
               static_cast<double>(stats.plan_cache_misses));
  registry.add("planner.plan_cache.evictions",
               static_cast<double>(stats.plan_cache_evictions));
  registry.add("planner.plans", static_cast<double>(stats.plans));
  registry.add("planner.points", static_cast<double>(stats.points));
  registry.add("serve.requests", static_cast<double>(requests));
  registry.set("serve.qps", qps);
  registry.set("serve.latency_p50_us", p50_us);
  registry.set("serve.latency_p99_us", p99_us);
}

}  // namespace redcr::apps
