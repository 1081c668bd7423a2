// Tests for the redcr::Planner public query surface and the serving
// front-end behind it: the kExact bitwise contract, the kFast error
// bound (with the Eq. 13 pole rule), grid-vs-span staging identity, the
// LRU plan cache (hits, misses, evictions, canonical keying, full-key
// compare on hash collisions, distinct keys hashing apart, concurrent
// plans on one planner), serve-mode replay determinism against the
// checked-in golden (from the respelled and CRLF logs too), the served
// answer at the Eq. 13 pole, and the --jobs auto spelling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/serve.hpp"
#include "model/plan_key.hpp"
#include "redcr/redcr.hpp"

namespace {

using namespace redcr;

model::CombinedConfig table4_config(std::size_t procs, double mtbf_years) {
  return scenario()
      .node_mtbf(util::years(mtbf_years))
      .checkpoint_cost(120.0)
      .restart_cost(500.0)
      .base_time(util::minutes(46.0))
      .comm_fraction(0.2)
      .processes(procs)
      .build();
}

/// The Table 4 / Figs. 13-14 sweep shape: several process counts per MTBF,
/// every redundancy degree in [1, 3]. Small enough for a smoke test, wide
/// enough to cross the Eq. 13 pole at low MTBF.
std::vector<model::BatchPoint> table4_grid() {
  std::vector<model::BatchPoint> points;
  for (const double mtbf_hours : {6.0, 18.0, 30.0}) {
    for (int step = 0; step < 8; ++step) {
      const model::CombinedConfig config =
          table4_config(128 + 512 * static_cast<std::size_t>(step),
                        mtbf_hours / (24.0 * 365.0));
      for (double r = 1.0; r <= 3.0 + 1e-9; r += 0.05)
        points.push_back({config, std::min(r, 3.0)});
    }
  }
  return points;
}

/// Bitwise equality over every Prediction field.
bool bitwise_equal(const model::Prediction& a, const model::Prediction& b) {
  return std::memcmp(&a, &b, offsetof(model::Prediction, total_procs)) == 0 &&
         a.total_procs == b.total_procs;
}

/// The kFast agreement rule from model/batch.hpp: relative error per
/// field, except that points where both sides exceed 1e15 in magnitude or
/// both go nonfinite (the Eq. 13 pole neighbourhood) count as agreement.
double pole_ruled_max_rel(const model::Prediction& fast,
                          const model::Prediction& exact) {
  const double* a = &fast.r;
  const double* b = &exact.r;
  double max_rel = 0.0;
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
  return max_rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// EvalMode contracts
// ---------------------------------------------------------------------------

TEST(EvalMode, ExactIsBitwiseIdenticalToScalarForAnyJobCount) {
  // Every batch runs on the calling thread, so no job count can reach it.
  const std::vector<model::BatchPoint> points = table4_grid();
  const std::vector<model::Prediction> batch = model::evaluate_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const model::Prediction scalar =
        model::predict(points[i].config, points[i].r);
    ASSERT_TRUE(bitwise_equal(batch[i], scalar))
        << "point " << i << " r=" << points[i].r;
  }
}

TEST(EvalMode, FastStaysWithinDocumentedBound) {
  const std::vector<model::BatchPoint> points = table4_grid();
  model::BatchOptions fast;
  fast.mode = model::EvalMode::kFast;
  const std::vector<model::Prediction> got =
      model::evaluate_batch(points, fast);
  double worst = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const model::Prediction exact =
        model::predict(points[i].config, points[i].r);
    worst = std::max(worst, pole_ruled_max_rel(got[i], exact));
  }
  // model/batch.hpp documents 5e-4 relative per field under the pole rule.
  EXPECT_LE(worst, 5e-4);
}

TEST(EvalMode, GridEntryMatchesSpanEntryBitwise) {
  // The sweep-shaped entry (shared config broadcast) must stage identical
  // values to the AoS entry: same expressions, same operation order.
  const model::CombinedConfig config = table4_config(2176, 12.0 / (24 * 365));
  std::vector<double> degrees;
  for (double r = 1.0; r <= 3.0 + 1e-9; r += 0.01)
    degrees.push_back(std::min(r, 3.0));
  std::vector<model::BatchPoint> points;
  for (const double r : degrees) points.push_back({config, r});

  for (const model::EvalMode mode :
       {model::EvalMode::kExact, model::EvalMode::kFast}) {
    model::BatchOptions options;
    options.mode = mode;
    const std::vector<model::Prediction> via_span =
        model::evaluate_batch(points, options);
    const std::vector<model::Prediction> via_grid =
        model::evaluate_batch(config, degrees, options);
    ASSERT_EQ(via_grid.size(), via_span.size());
    for (std::size_t i = 0; i < degrees.size(); ++i)
      ASSERT_TRUE(bitwise_equal(via_grid[i], via_span[i]))
          << "mode=" << static_cast<int>(mode) << " degree " << degrees[i];
  }
}

TEST(EvalMode, BatchIntoRejectsSizeMismatch) {
  const model::CombinedConfig config = table4_config(640, 1.0);
  const std::vector<model::BatchPoint> points{{config, 1.0}, {config, 2.0}};
  std::vector<model::Prediction> wrong(points.size() - 1);
  EXPECT_THROW(model::evaluate_batch_into(points, wrong), std::exception);
  const std::vector<double> degrees{1.0, 1.5, 2.0};
  EXPECT_THROW(model::evaluate_batch_into(config, degrees, wrong),
               std::exception);
}

// ---------------------------------------------------------------------------
// Planner facade and plan cache
// ---------------------------------------------------------------------------

TEST(Planner, PlanMatchesScalarSweepAndFindsBest) {
  Planner planner;
  PlanRequest request;
  request.config = table4_config(50000, 5.0);
  const PlanResponse response = planner.plan(request);
  ASSERT_EQ(response.sweep().size(), 9u);  // 1.0, 1.25, ..., 3.0
  double best_total = response.sweep()[0].total_time;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < response.sweep().size(); ++i) {
    const double r = 1.0 + 0.25 * static_cast<double>(i);
    const model::Prediction scalar = model::predict(request.config, r);
    ASSERT_TRUE(bitwise_equal(response.sweep()[i], scalar)) << "r=" << r;
    if (response.sweep()[i].total_time < best_total) {
      best_total = response.sweep()[i].total_time;
      best_index = i;
    }
  }
  EXPECT_EQ(response.best_index(), best_index);
  EXPECT_EQ(response.best_r(), response.sweep()[best_index].r);
}

TEST(Planner, PlanCacheHitsOnRepeatAndMissesOnChange) {
  Planner planner;
  PlanRequest request;
  request.config = table4_config(50000, 5.0);

  const PlanResponse first = planner.plan(request);
  EXPECT_FALSE(first.from_cache());
  const PlanResponse second = planner.plan(request);
  EXPECT_TRUE(second.from_cache());
  // Cache hits alias the cached sweep, not a copy.
  EXPECT_EQ(&first.sweep(), &second.sweep());

  PlanRequest changed = request;
  changed.config.machine.checkpoint_cost += 1.0;
  EXPECT_FALSE(planner.plan(changed).from_cache());

  const Planner::Stats stats = planner.stats();
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 2u);
  EXPECT_EQ(stats.plans, 3u);
  EXPECT_EQ(stats.points, 2u * 9u);  // two evaluated sweeps, one cached
}

TEST(Planner, CanonicalKeyCollapsesNegativeZeroAndGridSpelling) {
  Planner planner;
  PlanRequest range;
  range.config = table4_config(50000, 5.0);
  range.config.app.comm_fraction = 0.0;
  range.r_begin = 1.0;
  range.r_end = 2.0;
  range.r_step = 0.5;
  ASSERT_FALSE(planner.plan(range).from_cache());

  // The key canonicalizes the grid to its expanded degrees: an explicit
  // degree list producing the same doubles is the same plan...
  PlanRequest explicit_degrees = range;
  explicit_degrees.degrees = {1.0, 1.5, 2.0};
  EXPECT_TRUE(planner.plan(explicit_degrees).from_cache());

  // ...and -0.0 collapses to 0.0 (same model output, same key).
  PlanRequest negative_zero = range;
  negative_zero.config.app.comm_fraction = -0.0;
  EXPECT_TRUE(planner.plan(negative_zero).from_cache());
}

TEST(Planner, DistinctScenariosNeverAliasEvenOnHashCollision) {
  // The cache compares full canonical keys, so even a forced hash
  // collision (every request in a capacity-1 planner recycles one bucket
  // path) can only evict, never serve the wrong sweep.
  Planner planner(/*plan_cache_capacity=*/1);
  for (std::size_t procs : {1000u, 2000u, 3000u}) {
    PlanRequest request;
    request.config = table4_config(procs, 5.0);
    const PlanResponse response = planner.plan(request);
    EXPECT_FALSE(response.from_cache());
    EXPECT_EQ(response.sweep()[0].total_procs, procs);
  }
  const Planner::Stats stats = planner.stats();
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 3u);
  EXPECT_EQ(stats.plan_cache_evictions, 2u);
}

TEST(Planner, DistinctCanonicalKeysHashApart) {
  // The LRU index compares full keys, so a hash that dropped a word, or a
  // word's low bits, would pass every cache test while chaining the whole
  // index into one bucket. Hash a seeded serve-shaped catalogue (the three
  // grids of perfbench's plan_serve, 9, 41 and 201 points) and keys one low
  // bit apart, and require every distinct key to get its own hash.
  std::mt19937_64 rng(0x6b657973ull);
  const auto pick = [&](int lo, int hi) {
    return static_cast<double>(std::uniform_int_distribution<int>(lo, hi)(rng));
  };
  std::map<std::vector<std::uint64_t>, std::size_t> keys;
  for (const double step : {0.25, 0.05, 0.01}) {
    for (int i = 0; i < 2500; ++i) {
      PlanRequest request;
      request.config = scenario()
                           .node_mtbf(util::years(pick(3, 10)))
                           .checkpoint_cost(pick(2, 15) * 60)
                           .restart_cost(pick(5, 60) * 60)
                           .base_time(util::hours(pick(16, 256)))
                           .comm_fraction(pick(5, 40) / 100)
                           .processes(static_cast<std::size_t>(pick(1, 100)) *
                                      1000)
                           .build();
      request.r_step = step;
      request.mode = model::EvalMode::kFast;
      std::vector<std::uint64_t> words = model::plan_key_words(request);
      const std::size_t hash = model::plan_key_hash(words);
      keys.emplace(std::move(words), hash);
    }
  }
  // Every word of one key with its lowest bit flipped, one at a time.
  const std::vector<std::uint64_t> base = keys.begin()->first;
  for (std::size_t w = 0; w < base.size(); ++w) {
    std::vector<std::uint64_t> flipped = base;
    flipped[w] ^= 1u;
    const std::size_t hash = model::plan_key_hash(flipped);
    keys.emplace(std::move(flipped), hash);
  }
  ASSERT_GT(keys.size(), 6000u);
  std::set<std::size_t> hashes;
  for (const auto& [words, hash] : keys) {
    EXPECT_EQ(hash, model::plan_key_hash(words));  // a pure function
    hashes.insert(hash);
  }
  EXPECT_EQ(hashes.size(), keys.size());
}

TEST(Planner, ConcurrentPlansMatchSerial) {
  // Four threads plan an overlapping mix on one Planner whose capacity is
  // below the mix, so hits, misses, evictions and concurrent double misses
  // interleave. Every answer must be a serial planner's, bit for bit, and
  // every plan() must count as exactly one hit or one miss.
  std::vector<PlanRequest> mix;
  for (std::size_t i = 0; i < 12; ++i) {
    PlanRequest request;
    request.config =
        table4_config(1000 + 500 * i, 1.0 + static_cast<double>(i % 4));
    request.r_step = i % 2 == 0 ? 0.25 : 0.05;
    request.mode = i % 3 == 0 ? model::EvalMode::kExact
                              : model::EvalMode::kFast;
    mix.push_back(request);
  }
  Planner serial;
  std::vector<PlanResponse> expected;
  for (const PlanRequest& request : mix)
    expected.push_back(serial.plan(request));

  Planner shared(/*plan_cache_capacity=*/8);
  constexpr int kThreads = 4;
  constexpr int kPlansPerThread = 300;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      for (int k = 0; k < kPlansPerThread; ++k) {
        const std::size_t i = rng() % mix.size();
        const PlanResponse got = shared.plan(mix[i]);
        const PlanResponse& want = expected[i];
        bool same = got.best_index() == want.best_index() &&
                    got.sweep().size() == want.sweep().size();
        for (std::size_t j = 0; same && j < want.sweep().size(); ++j)
          same = bitwise_equal(got.sweep()[j], want.sweep()[j]);
        if (!same) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  const Planner::Stats stats = shared.stats();
  EXPECT_EQ(stats.plans, std::uint64_t{kThreads * kPlansPerThread});
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, stats.plans);
  EXPECT_GT(stats.plan_cache_hits, 0u);
  EXPECT_GT(stats.plan_cache_evictions, 0u);
}

TEST(Planner, LruEvictsOldestNotHottest) {
  Planner planner(/*plan_cache_capacity=*/2);
  PlanRequest a, b, c;
  a.config = table4_config(1000, 5.0);
  b.config = table4_config(2000, 5.0);
  c.config = table4_config(3000, 5.0);
  (void)planner.plan(a);       // cache: [a]
  (void)planner.plan(b);       // cache: [b, a]
  (void)planner.plan(a);       // hit; cache: [a, b]
  (void)planner.plan(c);       // evicts b; cache: [c, a]
  EXPECT_TRUE(planner.plan(a).from_cache());
  EXPECT_FALSE(planner.plan(b).from_cache());
}

// ---------------------------------------------------------------------------
// Serve-mode replay
// ---------------------------------------------------------------------------

TEST(Serve, ReplayMatchesCheckedInGolden) {
  const std::string requests =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_requests.ndjson");
  const std::string golden =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_golden.ndjson");
  ASSERT_FALSE(requests.empty());
  ASSERT_FALSE(golden.empty());

  std::string responses;
  const apps::ServeReport report = apps::serve_replay(requests, responses);
  EXPECT_EQ(responses, golden);
  EXPECT_GT(report.requests, 0u);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.stats.plan_cache_hits, 0u);  // the log replays scenarios
}

TEST(Serve, RespelledLogMatchesTheSameGolden) {
  // The same requests with every number written another JSON way
  // (3.712e3, 5E-2, 4.8e+1, 3.0, 0.40): the same doubles must give the
  // same response bytes.
  const std::string requests = read_file(std::string(REDCR_TEST_DATA_DIR) +
                                         "/serve_requests_respelled.ndjson");
  const std::string golden =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_golden.ndjson");
  ASSERT_FALSE(requests.empty());
  std::string responses;
  (void)apps::serve_replay(requests, responses);
  EXPECT_EQ(responses, golden);
}

TEST(Serve, CrlfLogMatchesTheSameGolden) {
  // JSON whitespace includes CR (RFC 8259) and a CRLF line end reads as an
  // LF one: the request log with every "\n" turned into "\r\n", blank
  // lines included, must give the same bytes.
  const std::string lf =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_requests.ndjson");
  const std::string golden =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_golden.ndjson");
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  ASSERT_GT(crlf.size(), lf.size());
  std::string responses;
  (void)apps::serve_replay(crlf, responses);
  EXPECT_EQ(responses, golden);
}

TEST(Serve, AnswerAtTheEq13PoleIsTheFirstDegreeWithNullCosts) {
  // At procs = 1e15 every degree of the default grid is past the Eq. 13
  // pole: T_total is infinite at every point, so the first degree (r = 1)
  // is reported as best and the non-finite fields are JSON nulls. Its
  // interval_min and system_mtbf_hours, below 1e-6, are the number
  // writer's to_chars fallback.
  std::string responses;
  (void)apps::serve_replay("{\"procs\":1e15}\n", responses);
  EXPECT_EQ(responses,
            "{\"id\":1,\"best_r\":1,\"total_hours\":null,"
            "\"nodes\":1000000000000000,"
            "\"interval_min\":2.6259581282263424e-09,"
            "\"system_mtbf_hours\":4.3765968803772377e-11,"
            "\"expected_failures\":null,\"from_cache\":0}\n");
}

TEST(Serve, ResponsesAreIdenticalAcrossJobCountsAndReruns) {
  // Every plan runs on the calling thread, so no job count reaches the
  // bytes; the wall clock must not either, in both modes.
  const std::string requests =
      read_file(std::string(REDCR_TEST_DATA_DIR) + "/serve_requests.ndjson");
  for (const model::EvalMode mode :
       {model::EvalMode::kFast, model::EvalMode::kExact}) {
    apps::ServeOptions options;
    options.mode = mode;
    std::string first, rerun;
    (void)apps::serve_replay(requests, first, options);
    (void)apps::serve_replay(requests, rerun, options);
    EXPECT_EQ(first, rerun) << "mode=" << static_cast<int>(mode);
  }
}

TEST(Serve, DuplicateRequestsComeFromCache) {
  std::string responses;
  const apps::ServeReport report = apps::serve_replay(
      "{\"procs\": 4096, \"mtbf_years\": 3}\n"
      "{\"procs\": 4096, \"mtbf_years\": 3}\n",
      responses);
  EXPECT_EQ(report.requests, 2u);
  EXPECT_NE(responses.find("\"from_cache\":0"), std::string::npos);
  EXPECT_NE(responses.find("\"from_cache\":1"), std::string::npos);
  EXPECT_EQ(report.stats.plan_cache_hits, 1u);
  EXPECT_EQ(report.stats.plan_cache_misses, 1u);
}

TEST(Serve, MalformedLinesNameTheLine) {
  std::string responses;
  try {
    (void)apps::serve_replay("{\"procs\": 1024}\n{\"procs\": oops}\n",
                             responses);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("request parse error at line 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serve, RejectedValuesAreEchoedAsSent) {
  // The message quotes the numeral from the request line, not the double it
  // parsed to: an overflowed 1e400 is inf, which JSON would render as null.
  const std::pair<const char*, const char*> cases[] = {
      {"{\"procs\":1e400}\n", "got '1e400'"},
      {"{\"procs\":-5}\n", "got '-5'"},
      {"{\"id\":-1e400}\n", "got '-1e400'"},
  };
  for (const auto& [request, echo] : cases) {
    std::string responses;
    try {
      (void)apps::serve_replay(request, responses);
      ADD_FAILURE() << "expected a rejection of " << request;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(echo), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serve, InvalidGridsAreRejectedNotExpanded) {
  std::string responses;
  // A degenerate step would expand to an unbounded grid; serve validates
  // before building the plan.
  EXPECT_THROW((void)apps::serve_replay("{\"r_step\": 0}\n", responses),
               std::runtime_error);
  EXPECT_THROW((void)apps::serve_replay("{\"r_min\": 3, \"r_max\": 1}\n",
                                        responses),
               std::runtime_error);
  EXPECT_THROW(
      (void)apps::serve_replay("{\"r_min\": 1, \"r_max\": 3, \"r_step\": "
                               "1e-9}\n",
                               responses),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// --jobs auto
// ---------------------------------------------------------------------------

TEST(BenchArgs, JobsAcceptsAutoAndIntegers) {
  std::string error;
  {
    const char* argv[] = {"bench", "--jobs", "auto"};
    const auto args = exp::BenchArgs::try_parse(3, const_cast<char**>(argv),
                                                &error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->jobs, 0);  // 0 = hardware concurrency downstream
  }
  {
    const char* argv[] = {"bench", "--jobs", "3"};
    const auto args = exp::BenchArgs::try_parse(3, const_cast<char**>(argv),
                                                &error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->jobs, 3);
  }
  {
    const char* argv[] = {"bench", "--jobs", "fast"};
    const auto args = exp::BenchArgs::try_parse(3, const_cast<char**>(argv),
                                                &error);
    EXPECT_FALSE(args.has_value());
    EXPECT_NE(error.find("auto"), std::string::npos);
  }
}

}  // namespace
