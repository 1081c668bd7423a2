// bench_engine — microbenchmarks for the hot-path engine overhaul.
//
// Six scenarios, each reporting a primary `rate` (bigger is better):
//
//   event_throughput  self-rescheduling timer churn through sim::Engine
//                     (the calendar-queue schedule/fire fast path)
//   cancel_heavy      timer churn where most scheduled events are cancelled
//                     before firing, run side by side on the pre-overhaul
//                     reference scheduler (std::priority_queue + tombstone
//                     set) — reports the live speedup_vs_heap
//   message_storm     ring exchange through simmpi::World (arena-allocated
//                     messages, flat channel tables, pooled send FIFOs)
//   batch_eval        the EvalMode::kFast sweep-shaped grid entry
//                     (vectorized SoA pipeline) over a Table-4-shaped grid
//                     vs the scalar predict() loop — reports
//                     speedup_vs_scalar and validates the documented error
//                     bound (pole rule included; see model/batch.hpp)
//   batch_eval_exact  the default EvalMode::kExact engine over the same
//                     grid (a predict() loop sharing one sphere-term
//                     cache) — reports speedup_vs_scalar and checks
//                     bitwise equality against scalar predict()
//   serve_qps         apps::serve_replay over a synthetic NDJSON query log
//                     (80% plan-cache hit rate) — the serving front-end's
//                     end-to-end requests/sec
//   fastforward_sim   a failure-heavy flat DES job run on the event engine
//                     and on ExecMode::kFastForward back to back at the same
//                     host moment — reports speedup_vs_event and fails hard
//                     if the two reports are not bit-identical
//
//   bench_engine [--json] [--quick] [--jobs N] [--repeat N]
//                [--guard BASELINE.json] [--tolerance F]
//
// It parses the shared bench flags and honours --quick and --json; --jobs
// is accepted and ignored (every scenario runs on one thread).
// --guard compares this run against a committed baseline JSON (the output
// of a previous `bench_engine --json`) through exp::PerfGuard and exits 1
// when a guarded rate (event_throughput, batch_eval, batch_eval_exact,
// serve_qps, fastforward_sim) regresses by more than --tolerance (default
// 0.15) — or when any scenario reporting speedup_vs_scalar comes in at
// <= 1.0, or fastforward_sim's speedup_vs_event below 10x (the fast-forward
// engine's reason to exist is a ≥10x skip over the inter-failure event
// churn; both rules are absolute, independent of the baseline).
// scripts/bench_guard.sh wraps exactly this.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/serve.hpp"
#include "apps/synthetic.hpp"
#include "exp/cli.hpp"
#include "exp/guard.hpp"
#include "model/batch.hpp"
#include "net/network.hpp"
#include "runtime/executor.hpp"
#include "sim/engine.hpp"
#include "simmpi/world.hpp"
#include "util/units.hpp"

namespace {

using namespace redcr;

// ---------------------------------------------------------------------------
// Reference scheduler: the engine's event queue as it was before the
// calendar-queue overhaul — a (time, seq) min-heap plus a tombstone set for
// cancellations. Kept here (not in src/) so the comparison target stays
// frozen even as sim::Engine evolves.
class RefHeapScheduler {
 public:
  using Callback = std::function<void()>;

  std::uint64_t schedule_at(double t, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Item{t, seq, std::move(cb)});
    return seq;
  }
  std::uint64_t schedule_after(double dt, Callback cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }
  void cancel(std::uint64_t seq) { cancelled_.insert(seq); }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  void run() {
    while (!heap_.empty()) {
      // priority_queue::top() is const; moving the callback out before pop
      // is the standard (and pre-overhaul) idiom.
      Item& top = const_cast<Item&>(heap_.top());
      const double time = top.time;
      const std::uint64_t seq = top.seq;
      Callback cb = std::move(top.cb);
      heap_.pop();
      if (cancelled_.erase(seq) > 0) continue;  // tombstone: skip
      now_ = time;
      ++processed_;
      cb();
    }
  }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  double now_ = 0.0;
};

/// Adapter so the workloads below run identically on sim::Engine.
class NewEngineAdapter {
 public:
  std::uint64_t schedule_at(double t, sim::Engine::Callback cb) {
    return engine_.schedule_at(t, std::move(cb)).value;
  }
  std::uint64_t schedule_after(double dt, sim::Engine::Callback cb) {
    return engine_.schedule_after(dt, std::move(cb)).value;
  }
  void cancel(std::uint64_t id) { engine_.cancel(sim::EventId{id}); }
  [[nodiscard]] double now() const noexcept { return engine_.now(); }
  void run() { engine_.run(); }

 private:
  sim::Engine engine_;
};

// ---------------------------------------------------------------------------
// Deterministic PRNG for workload shaping (SplitMix64).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() {  // in [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

// ---------------------------------------------------------------------------
// Scenario workloads.

/// Self-rescheduling timers: `chains` concurrent timers, each firing and
/// rescheduling itself until `total` events have fired. Returns ops (events
/// fired); `out_seconds` gets the wall time of the run.
template <class Eng>
std::uint64_t run_event_throughput(Eng& eng, std::uint64_t total,
                                   double* out_seconds) {
  constexpr int kChains = 512;
  std::uint64_t fired = 0;
  Rng rng{12345};
  std::function<void(int)> arm = [&](int chain) {
    eng.schedule_after(1e-4 + rng.uniform() * 0.05, [&, chain] {
      if (++fired < total) arm(chain);
    });
  };
  for (int c = 0; c < kChains; ++c) arm(c);
  const exp::Stopwatch clock;
  eng.run();
  *out_seconds = clock.seconds();
  return fired;
}

/// Cancel-dominated churn: each fired event schedules one near successor
/// (continuing the chain) and three far-future "retransmit timers", then
/// cancels the three oldest outstanding timers — so 3 of every 4 scheduled
/// events are cancelled while pending. On the tombstone scheduler the
/// cancelled far-future items pile up in the heap until the final drain; the
/// calendar queue frees them in place. Returns total ops (schedules + fires
/// + cancels).
template <class Eng>
std::uint64_t run_cancel_heavy(Eng& eng, std::uint64_t total_fires,
                               double* out_seconds) {
  std::uint64_t fired = 0;
  std::uint64_t ops = 0;
  Rng rng{999};
  std::deque<std::uint64_t> fodder;
  std::function<void()> arm = [&] {
    eng.schedule_after(1e-4 + rng.uniform() * 0.01, [&] {
      ++fired;
      ++ops;
      if (fired >= total_fires) return;
      for (int i = 0; i < 3; ++i) {
        fodder.push_back(
            eng.schedule_after(1e6 + rng.uniform() * 1e3, [] {}));
        ++ops;
      }
      while (fodder.size() > 3) {
        eng.cancel(fodder.front());
        fodder.pop_front();
        ++ops;
      }
      arm();
      ++ops;
    });
  };
  for (int c = 0; c < 4; ++c) arm();
  const exp::Stopwatch clock;
  eng.run();
  *out_seconds = clock.seconds();
  // Drain leftovers so both engines end empty (the tombstone drain is part
  // of the measured cost above; these cancels are bookkeeping only).
  for (const std::uint64_t id : fodder) eng.cancel(id);
  return ops;
}

/// Ring exchange through the full World/Network message path.
std::uint64_t run_message_storm(int ranks, int rounds, double* out_seconds) {
  sim::Engine engine;
  net::Network network(engine, static_cast<std::size_t>(ranks),
                       net::NetworkParams{});
  simmpi::World world(engine, network, ranks);
  const exp::Stopwatch clock;
  constexpr int kBatch = 64;  // bound outstanding requests
  for (int done = 0; done < rounds; done += kBatch) {
    const int batch = std::min(kBatch, rounds - done);
    for (int round = 0; round < batch; ++round) {
      for (int r = 0; r < ranks; ++r) {
        world.endpoint(r).irecv((r + ranks - 1) % ranks, /*tag=*/1);
        world.endpoint(r).isend((r + 1) % ranks, /*tag=*/1,
                                simmpi::Payload::sized(4096));
      }
    }
    engine.run();
  }
  *out_seconds = clock.seconds();
  return world.stats().messages_sent;
}

/// Campaign-shaped model grid: MTBF × process count × redundancy degree,
/// the Table-4 calibration swept over the Fig-13 weak-scaling axis. The
/// procs axis multiplies the point count without adding distinct (pf,
/// degree) sphere terms — exactly the sharing evaluate_batch memoizes.
std::vector<model::BatchPoint> batch_grid(int procs_steps, double r_step) {
  std::vector<model::BatchPoint> points;
  for (const double mtbf_hours : {6.0, 12.0, 18.0, 24.0, 30.0}) {
    for (int p = 0; p < procs_steps; ++p) {
      model::CombinedConfig cfg;
      cfg.app.base_time = util::minutes(46);
      cfg.app.comm_fraction = 0.2;
      cfg.app.num_procs = static_cast<std::size_t>(128 + 512 * p);
      cfg.machine.node_mtbf = util::hours(mtbf_hours);
      cfg.machine.checkpoint_cost = 120.0;
      cfg.machine.restart_cost = 500.0;
      for (double r = 1.0; r <= 3.0 + 1e-9; r += r_step)
        points.push_back(model::BatchPoint{cfg, std::min(r, 3.0)});
    }
  }
  return points;
}

/// The baseline document: one scenario object per line, as
/// BENCH_baseline.json stores it.
std::string to_json(const std::vector<exp::Measurement>& results, bool quick) {
  std::string out = "{\n  \"bench\": \"bench_engine\",\n  \"quick\": ";
  out += quick ? "true" : "false";
  out += ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i)
    out += "    {" + results[i].json_fields() +
           (i + 1 < results.size() ? "},\n" : "}\n");
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exp::PerfGuard guard;
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv, &guard);
  const bool quick = args.quick;
  const int repeat = guard.repeat;

  const std::uint64_t throughput_events = quick ? 300000 : 2000000;
  const std::uint64_t cancel_fires = quick ? 40000 : 200000;
  const int storm_ranks = quick ? 32 : 64;
  const int storm_rounds = quick ? 400 : 1500;
  const int grid_procs_steps = quick ? 20 : 100;
  const double grid_step = quick ? 0.02 : 0.01;

  std::vector<exp::Measurement> results;
  args.say("bench_engine (%s, repeat %d)\n", quick ? "quick" : "full", repeat);

  {  // --- event_throughput ---
    exp::Measurement s{"event_throughput", "events/sec"};
    for (int i = 0; i < repeat; ++i) {
      NewEngineAdapter eng;
      double sec = 0.0;
      const std::uint64_t ops = run_event_throughput(eng, throughput_events,
                                                     &sec);
      s.keep_fastest(sec, ops);
    }
    args.say("  event_throughput : %10.0f events/sec\n", s.rate());
    results.push_back(std::move(s));
  }

  {  // --- cancel_heavy (calendar queue vs reference heap) ---
    exp::Measurement s{"cancel_heavy", "ops/sec"};
    s.guarded = false;
    double ref_seconds = 1e300;
    for (int i = 0; i < repeat; ++i) {
      NewEngineAdapter eng;
      double sec = 0.0;
      const std::uint64_t ops = run_cancel_heavy(eng, cancel_fires, &sec);
      s.keep_fastest(sec, ops);
      RefHeapScheduler ref;
      double rsec = 0.0;
      run_cancel_heavy(ref, cancel_fires, &rsec);
      ref_seconds = std::min(ref_seconds, rsec);
    }
    s.speedup = ref_seconds / s.seconds;
    s.speedup_label = "speedup_vs_heap";
    args.say("  cancel_heavy     : %10.0f ops/sec (%.2fx vs "
             "priority_queue+tombstones)\n",
             s.rate(), s.speedup);
    results.push_back(std::move(s));
  }

  {  // --- message_storm ---
    exp::Measurement s{"message_storm", "messages/sec"};
    s.guarded = false;
    for (int i = 0; i < repeat; ++i) {
      double sec = 0.0;
      const std::uint64_t ops = run_message_storm(storm_ranks, storm_rounds,
                                                  &sec);
      s.keep_fastest(sec, ops);
    }
    args.say("  message_storm    : %10.0f messages/sec\n", s.rate());
    results.push_back(std::move(s));
  }

  // Shared Table-4 grid and scalar reference for the two batch scenarios.
  // Both scenarios write into preallocated buffers and the scalar loop
  // writes in place too, so the speedup ratios compare evaluation cost,
  // not allocator behavior (the old 0.948x came from timing the batch
  // path's result-vector construction against a reserve()d scalar loop).
  const std::vector<model::BatchPoint> points =
      batch_grid(grid_procs_steps, grid_step);
  std::vector<model::Prediction> scalar_out(points.size());
  double scalar_seconds = 1e300;

  {  // --- batch_eval (EvalMode::kFast, the sweep-shaped grid entry) ---
    // One shared degree axis per config — the Planner::plan query shape.
    // The accumulation loop matches batch_grid exactly, so degrees[k] is
    // bitwise-equal to points[off + k].r.
    std::vector<double> degrees;
    for (double r = 1.0; r <= 3.0 + 1e-9; r += grid_step)
      degrees.push_back(std::min(r, 3.0));
    const std::size_t per_config = degrees.size();
    model::BatchOptions fast;
    fast.mode = model::EvalMode::kFast;
    exp::Measurement s{"batch_eval", "points/sec"};
    std::vector<model::Prediction> fast_out(points.size());
    for (int i = 0; i < repeat; ++i) {
      exp::Stopwatch clock;
      for (std::size_t off = 0; off < points.size(); off += per_config)
        model::evaluate_batch_into(
            points[off].config, degrees,
            std::span<model::Prediction>(fast_out.data() + off, per_config),
            fast);
      s.keep_fastest(clock.seconds(), points.size());
      clock.restart();
      for (std::size_t p = 0; p < points.size(); ++p)
        scalar_out[p] = model::predict(points[p].config, points[p].r);
      scalar_seconds = std::min(scalar_seconds, clock.seconds());
    }
    s.speedup = scalar_seconds / s.seconds;
    s.speedup_label = "speedup_vs_scalar";
    // kFast trades bitwise identity for a documented error bound; enforce
    // it here. Pole rule: near the 1 - λω → 0 pole of Eq. 13 both paths
    // blow up, so "both >= 1e15 in magnitude or both nonfinite" counts as
    // agreement (see model/batch.hpp).
    double max_rel = 0.0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const double* a = &fast_out[p].r;
      const double* b = &scalar_out[p].r;
      for (int f = 0; f < 11; ++f) {
        const bool a_huge = !std::isfinite(a[f]) || std::fabs(a[f]) >= 1e15;
        const bool b_huge = !std::isfinite(b[f]) || std::fabs(b[f]) >= 1e15;
        double rel;
        if (a_huge && b_huge) rel = 0.0;
        else if (a_huge != b_huge) rel = 1.0;
        else if (b[f] == 0.0) rel = a[f] == 0.0 ? 0.0 : 1.0;
        else rel = std::fabs(a[f] - b[f]) / std::fabs(b[f]);
        max_rel = std::max(max_rel, rel);
      }
    }
    args.say("  batch_eval       : %10.0f points/sec (%.2fx vs scalar "
             "loop; max rel err %.1e)\n",
             s.rate(), s.speedup, max_rel);
    if (max_rel > 5e-4) {
      std::fprintf(stderr,
                   "bench_engine: batch_eval kFast error %.3e exceeds the "
                   "5e-4 documented bound\n",
                   max_rel);
      return 1;
    }
    results.push_back(std::move(s));
  }

  {  // --- batch_eval_exact (default mode: bitwise contract) ---
    exp::Measurement s{"batch_eval_exact", "points/sec"};
    std::vector<model::Prediction> batch_out(points.size());
    for (int i = 0; i < repeat; ++i) {
      const exp::Stopwatch clock;
      model::evaluate_batch_into(points, batch_out);
      s.keep_fastest(clock.seconds(), points.size());
    }
    s.speedup = scalar_seconds / s.seconds;
    s.speedup_label = "speedup_vs_scalar";
    bool bitwise = batch_out.size() == scalar_out.size();
    for (std::size_t i = 0; bitwise && i < batch_out.size(); ++i)
      bitwise = std::memcmp(&batch_out[i], &scalar_out[i],
                            offsetof(model::Prediction, total_procs)) == 0 &&
                batch_out[i].total_procs == scalar_out[i].total_procs;
    args.say("  batch_eval_exact : %10.0f points/sec (%.2fx vs scalar "
             "loop; bitwise %s)\n",
             s.rate(), s.speedup, bitwise ? "identical" : "DIFFERENT");
    if (!bitwise) {
      std::fprintf(stderr,
                   "bench_engine: batch_eval_exact results diverge from "
                   "scalar predict()\n");
      return 1;
    }
    results.push_back(std::move(s));
  }

  {  // --- serve_qps (the serving front-end, end to end) ---
    // Synthetic replay log: `unique` distinct scenarios, each repeated 5x —
    // an 80% plan-cache hit rate, the serving steady state. Requests cost
    // parse + plan (hit or 41-point kFast sweep) + response formatting.
    const int request_count = quick ? 400 : 2000;
    const int unique = request_count / 5;
    std::string log;
    char line[96];
    for (int i = 0; i < request_count; ++i) {
      const int u = i % unique;
      std::snprintf(line, sizeof line,
                    "{\"id\":%d,\"procs\":%d,\"mtbf_years\":%d,"
                    "\"r_step\":0.05}\n",
                    i + 1, 128 + 512 * u, 1 + u % 5);
      log += line;
    }
    apps::ServeOptions options;
    options.cache_capacity = static_cast<std::size_t>(unique) + 1;
    exp::Measurement s{"serve_qps", "requests/sec"};
    for (int i = 0; i < repeat; ++i) {
      std::string responses;
      const apps::ServeReport report =
          apps::serve_replay(log, responses, options);
      s.keep_fastest(report.seconds, report.requests);
    }
    args.say("  serve_qps        : %10.0f requests/sec\n", s.rate());
    results.push_back(std::move(s));
  }

  {  // --- fastforward_sim (kFastForward vs the event engine, same job) ---
    // A failure-heavy flat job: MTBF well below the failure-free runtime, so
    // the event engine spends nearly all its time churning through events
    // between deaths — exactly the regime the fast-forward engine skips.
    apps::SyntheticSpec spec;
    spec.iterations = quick ? 40 : 80;
    spec.compute_per_iteration = 24.0;
    spec.halo_bytes = 1e6;
    spec.allreduces_per_iteration = 2;
    runtime::JobConfig cfg;
    cfg.num_virtual = static_cast<std::size_t>(quick ? 32 : 64);
    cfg.redundancy = 1.5;
    cfg.network.bandwidth = 1e8;
    cfg.image_bytes = 1e9;
    cfg.checkpoint_interval = 120.0;
    cfg.restart_cost = 30.0;
    cfg.fail.node_mtbf = util::hours(quick ? 0.15 : 0.2);
    cfg.fail.seed = 7;
    const auto make_factory = [&spec] {
      return runtime::WorkloadFactory([spec](int, int) {
        return std::make_unique<apps::SyntheticWorkload>(spec);
      });
    };
    exp::Measurement s{"fastforward_sim", "episodes/sec"};
    double event_seconds = 1e300;
    runtime::JobReport event_report, ff_report;
    for (int i = 0; i < repeat; ++i) {
      // Both engines run back to back within one repetition — the same
      // host moment — so load/frequency drift hits both sides of the
      // speedup ratio equally (the scalar-reference pattern above).
      runtime::JobConfig ev = cfg;
      ev.engine = runtime::ExecMode::kEvent;
      exp::Stopwatch clock;
      event_report = runtime::JobExecutor(ev, make_factory()).run();
      event_seconds = std::min(event_seconds, clock.seconds());
      runtime::JobConfig ff = cfg;
      ff.engine = runtime::ExecMode::kFastForward;
      clock.restart();
      ff_report = runtime::JobExecutor(ff, make_factory()).run();
      s.keep_fastest(clock.seconds(),
                     static_cast<std::uint64_t>(ff_report.episodes));
    }
    s.speedup = event_seconds / s.seconds;
    s.speedup_label = "speedup_vs_event";
    // The contract the speedup is worthless without: bit-identical reports
    // (exact double comparison; the ff diagnostics block is exempt).
    const bool identical =
        event_report.completed == ff_report.completed &&
        event_report.wallclock == ff_report.wallclock &&
        event_report.useful_work == ff_report.useful_work &&
        event_report.checkpoint_time == ff_report.checkpoint_time &&
        event_report.rework_time == ff_report.rework_time &&
        event_report.restart_time == ff_report.restart_time &&
        event_report.episodes == ff_report.episodes &&
        event_report.job_failures == ff_report.job_failures &&
        event_report.physical_failures == ff_report.physical_failures &&
        event_report.checkpoints == ff_report.checkpoints &&
        event_report.messages == ff_report.messages &&
        event_report.engine_events == ff_report.engine_events &&
        event_report.network_contention_wait ==
            ff_report.network_contention_wait &&
        event_report.red_messages_compared == ff_report.red_messages_compared;
    args.say("  fastforward_sim  : %10.0f episodes/sec (%.1fx vs event "
             "engine; %d failures; reports %s)\n",
             s.rate(), s.speedup, ff_report.job_failures,
             identical ? "identical" : "DIFFERENT");
    if (!identical) {
      std::fprintf(stderr,
                   "bench_engine: fastforward_sim report diverges from the "
                   "event engine\n");
      return 1;
    }
    if (ff_report.ff.episodes_fast == 0) {
      std::fprintf(stderr,
                   "bench_engine: fastforward_sim never took the fast path "
                   "(%d fallbacks)\n",
                   ff_report.ff.fallbacks);
      return 1;
    }
    results.push_back(std::move(s));
  }

  if (args.json) std::fputs(to_json(results, quick).c_str(), stdout);

  bool ok = guard.check(args, "bench_engine", results);
  // Absolute rules, independent of the baseline. A batch path slower than
  // its scalar reference is a regression: the old guard tolerated
  // batch_eval's 0.948x silently because only the rate was compared. The
  // fast-forward engine's contract is a >= 10x skip over the inter-failure
  // churn on failure-heavy jobs; below that, arithmetic reconstruction has
  // regressed into re-simulation.
  for (const exp::Measurement& s : results) {
    if (s.speedup_label == "speedup_vs_scalar")
      ok = guard.require(args, s, s.speedup > 1.0, "%.2fx vs scalar",
                         "batch path must beat the scalar loop") &&
           ok;
    if (s.speedup_label == "speedup_vs_event")
      ok = guard.require(args, s, s.speedup >= 10.0, "%.1fx vs event engine",
                         "fast-forward must skip >= 10x") &&
           ok;
  }
  return ok ? 0 : 1;
}
