// Tests for the failure injector and sphere monitor, including the
// distributional properties the model assumes (exponential inter-arrivals).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "failure/injector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace redcr::failure {
namespace {

using red::ReplicaMap;
using util::hours;

TEST(SphereMonitor, SingleReplicaDeathKillsSphereAtDegreeOne) {
  const ReplicaMap map(4, 1.0);
  SphereMonitor monitor(map);
  EXPECT_FALSE(monitor.first_dead_sphere().has_value());
  EXPECT_TRUE(monitor.mark_dead(2));
  EXPECT_TRUE(monitor.sphere_dead(2));
  EXPECT_EQ(monitor.first_dead_sphere(), 2);
}

TEST(SphereMonitor, DualRedundancySurvivesFirstReplica) {
  const ReplicaMap map(4, 2.0);
  SphereMonitor monitor(map);
  const auto replicas = map.replicas(1);
  EXPECT_FALSE(monitor.mark_dead(replicas[0]));
  EXPECT_FALSE(monitor.sphere_dead(1));
  EXPECT_TRUE(monitor.mark_dead(replicas[1]));
  EXPECT_TRUE(monitor.sphere_dead(1));
  EXPECT_EQ(monitor.dead_processes(), 2u);
}

TEST(SphereMonitor, MarkDeadIsIdempotent) {
  const ReplicaMap map(2, 2.0);
  SphereMonitor monitor(map);
  EXPECT_FALSE(monitor.mark_dead(0));
  EXPECT_FALSE(monitor.mark_dead(0));
  EXPECT_EQ(monitor.dead_processes(), 1u);
}

TEST(Injector, DrawsAreDeterministicPerSeedAndEpisode) {
  const ReplicaMap map(16, 2.0);
  FailureParams params;
  params.node_mtbf = hours(6);
  params.seed = 7;
  const FailureInjector injector(map, params);
  EXPECT_EQ(injector.draw_failure_times(0), injector.draw_failure_times(0));
  EXPECT_NE(injector.draw_failure_times(0), injector.draw_failure_times(1));
  FailureParams other = params;
  other.seed = 8;
  const FailureInjector injector2(map, other);
  EXPECT_NE(injector.draw_failure_times(0), injector2.draw_failure_times(0));
}

TEST(Injector, InterArrivalsAreExponential) {
  // KS test of the drawn first-failure times against Exp(θ). First arrivals
  // of a Poisson process are exponential, so this validates both the RNG
  // and the injector plumbing.
  const ReplicaMap map(4000, 1.0);
  FailureParams params;
  params.node_mtbf = hours(6);
  params.seed = 123;
  const FailureInjector injector(map, params);
  const auto times = injector.draw_failure_times(0);
  const auto ks = util::ks_test_exponential(times, params.node_mtbf);
  EXPECT_FALSE(ks.reject_at_05)
      << "KS statistic " << ks.statistic << " p=" << ks.p_value;
}

TEST(Injector, FirstSphereDeathMatchesMinOfMax) {
  const ReplicaMap map(8, 2.0);
  FailureParams params;
  params.node_mtbf = hours(1);
  const FailureInjector injector(map, params);
  const auto times = injector.draw_failure_times(3);
  const auto death = FailureInjector::first_sphere_death(map, times);
  ASSERT_TRUE(death.has_value());
  // Cross-check against a direct computation.
  double expected = std::numeric_limits<double>::infinity();
  for (red::Rank v = 0; v < 8; ++v) {
    double sphere_death = 0.0;
    for (const red::Rank p : map.replicas(v))
      sphere_death = std::max(sphere_death,
                              times[static_cast<std::size_t>(p)]);
    expected = std::min(expected, sphere_death);
  }
  EXPECT_DOUBLE_EQ(death->time, expected);
}

// --- The failure schedule against the full-sort walk ------------------------

/// The injector's walk before the schedule existed: sort every rank by
/// (time, rank) and mark them dead in that order until a sphere dies. The
/// schedule must be exactly the prefix this walk reads.
struct ReferenceWalk {
  std::vector<Failure> failures;
  Rank sphere = -1;
};

ReferenceWalk full_sort_walk(const ReplicaMap& map,
                             const std::vector<sim::Time>& times) {
  std::vector<std::size_t> order(times.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return times[a] != times[b] ? times[a] < times[b] : a < b;
  });
  ReferenceWalk walk;
  SphereMonitor monitor(map);
  for (const std::size_t p : order) {
    const auto rank = static_cast<Rank>(p);
    walk.failures.push_back(Failure{times[p], rank});
    if (monitor.mark_dead(rank)) {
      walk.sphere = map.virtual_of(rank);
      break;
    }
  }
  return walk;
}

void expect_matches_walk(const FailureSchedule& schedule,
                         const ReferenceWalk& walk) {
  const auto failures = schedule.failures();
  ASSERT_EQ(failures.size(), walk.failures.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    EXPECT_EQ(failures[i].rank, walk.failures[i].rank) << "failure " << i;
    EXPECT_EQ(failures[i].time, walk.failures[i].time) << "failure " << i;
  }
  EXPECT_EQ(schedule.sphere(), walk.sphere);
}

void expect_schedule_is_walk_prefix(const ReplicaMap& map,
                                    const std::vector<sim::Time>& times,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  const ReferenceWalk walk = full_sort_walk(map, times);
  expect_matches_walk(FailureInjector::schedule(map, times), walk);
  const auto death = FailureInjector::first_sphere_death(map, times);
  ASSERT_TRUE(death.has_value());
  EXPECT_EQ(death->time, walk.failures.back().time);
  EXPECT_EQ(death->sphere, walk.sphere);
}

TEST(FailureSchedule, MatchesTheFullSortWalkOnDrawnEpisodes) {
  for (const double shape : {0.7, 1.0, 2.0}) {
    for (const double r : {1.0, 1.5, 2.0, 3.0}) {
      const ReplicaMap map(24, r);
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FailureParams params;
        params.node_mtbf = hours(1);
        params.seed = seed;
        params.weibull_shape = shape;
        const FailureInjector injector(map, params);
        FailureSchedule reused;
        for (std::uint64_t episode = 0; episode < 50; ++episode) {
          const std::string what = "k " + std::to_string(shape) + " r " +
                                   std::to_string(r) + " seed " +
                                   std::to_string(seed) + " episode " +
                                   std::to_string(episode);
          const auto drawn = injector.draw_failure_times(episode);
          expect_schedule_is_walk_prefix(map, drawn, what);
          // The reusing form builds the same schedule over storage left by
          // the previous episode.
          injector.schedule(episode, reused);
          SCOPED_TRACE(what);
          expect_matches_walk(reused, full_sort_walk(map, drawn));
        }
      }
    }
  }
}

TEST(FailureSchedule, ExactTiesFollowTheFullSortWalk) {
  // Spheres at r = 2 over 4 virtual ranks: {v, v + 4}.
  const ReplicaMap dual(4, 2.0);
  // Two spheres complete at the same instant; rank order decides, and a
  // later-ranked failure at that instant is not part of the schedule.
  const std::vector<sim::Time> at_kill{1.0, 2.0, 50.0, 50.0,
                                       3.0, 3.0, 3.0, 50.0};
  expect_schedule_is_walk_prefix(dual, at_kill, "tie at the killing instant");
  const FailureSchedule kill_tie = FailureInjector::schedule(dual, at_kill);
  ASSERT_EQ(kill_tie.failures().size(), 3u);
  EXPECT_EQ(kill_tie.failures().back().rank, 4);
  EXPECT_EQ(kill_tie.sphere(), 0);

  // Failures at t = 0, including the one that kills the job.
  const std::vector<sim::Time> at_zero{0.0, 0.0, 9.0, 9.0,
                                       7.0, 0.0, 9.0, 9.0};
  expect_schedule_is_walk_prefix(dual, at_zero, "ties at t = 0");
  const FailureSchedule zero = FailureInjector::schedule(dual, at_zero);
  ASSERT_EQ(zero.failures().size(), 3u);
  EXPECT_EQ(zero.failures().back().time, 0.0);
  EXPECT_EQ(zero.failures().back().rank, 5);
  EXPECT_EQ(zero.sphere(), 1);

  // Every rank fails at once: rank order alone decides.
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    const ReplicaMap map(8, r);
    const std::vector<sim::Time> equal(map.num_physical(), 7.0);
    expect_schedule_is_walk_prefix(map, equal,
                                   "all equal, r " + std::to_string(r));
  }
  const ReplicaMap partial(8, 1.5);
  const FailureSchedule all_equal = FailureInjector::schedule(
      partial, std::vector<sim::Time>(partial.num_physical(), 7.0));
  ASSERT_EQ(all_equal.failures().size(), 2u);  // ranks 0 and 1
  EXPECT_EQ(all_equal.sphere(), 1);
}

// --- The uniform build against the full draw ---------------------------------

/// Same failures (time bits, so -0.0 and +0.0 differ), ranks and sphere.
void expect_bit_identical(const FailureSchedule& got,
                          const FailureSchedule& want) {
  ASSERT_EQ(got.failures().size(), want.failures().size());
  for (std::size_t i = 0; i < got.failures().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.failures()[i].time),
              std::bit_cast<std::uint64_t>(want.failures()[i].time))
        << "failure " << i;
    EXPECT_EQ(got.failures()[i].rank, want.failures()[i].rank)
        << "failure " << i;
  }
  EXPECT_EQ(got.sphere(), want.sphere());
}

TEST(FailureSchedule, UniformBuildEqualsTheFullDrawBitForBit) {
  std::uint64_t seed = 0;
  for (const double shape : {0.3, 0.7, 1.0, 2.0, 5.0}) {
    for (const double r : {1.0, 1.25, 1.5, 2.0, 2.5, 3.0}) {
      for (const int n : {4, 64, 256}) {
        const ReplicaMap map(n, r);
        FailureParams params;
        params.node_mtbf = hours(1);
        params.seed = ++seed;
        params.weibull_shape = shape;
        const FailureInjector injector(map, params);
        FailureSchedule ranked;
        const std::string what = "k " + std::to_string(shape) + " r " +
                                 std::to_string(r) + " N " +
                                 std::to_string(n);
        for (std::uint64_t episode = 0; episode < 200; ++episode) {
          injector.schedule(episode, ranked);
          SCOPED_TRACE(what + " episode " + std::to_string(episode));
          expect_bit_identical(
              ranked, FailureInjector::schedule(
                          map, injector.draw_failure_times(episode)));
        }
        EXPECT_EQ(ranked.fallbacks(), 0u) << what;
      }
    }
  }
}

/// Builds hand-made `uniforms` both ways; returns the uniform build's
/// fallback count after checking it equals the full build of their times.
std::uint64_t fallbacks_building(const ReplicaMap& map, const FailureLaw& law,
                                 const std::vector<double>& uniforms) {
  std::vector<sim::Time> times(uniforms.size());
  for (std::size_t p = 0; p < times.size(); ++p)
    times[p] = law.failure_time(uniforms[p]);
  FailureSchedule ranked;
  ranked.build(map, law, uniforms);
  expect_bit_identical(ranked, FailureInjector::schedule(map, times));
  return ranked.fallbacks();
}

TEST(FailureSchedule, HandBuiltUniformsEqualTheFullBuild) {
  // Spheres at r = 2 over 4 virtual ranks: {v, v + 4}. Sphere 0's last
  // replica, rank 4, is the killer; rank 1 comes next in (uniform, rank)
  // order.
  const ReplicaMap dual(4, 2.0);
  const std::vector<double> base{0.125, 0.5,  0.625, 0.75,
                                 0.25,  0.875, 0.9375, 0.96875};
  constexpr double kStep = 0x1.0p-53;  // one step of the 53-bit uniforms
  for (const double exponent : {1.0, 0.5, 3.0}) {
    const FailureLaw law{3600.0, exponent};
    SCOPED_TRACE("exponent " + std::to_string(exponent));
    EXPECT_EQ(fallbacks_building(dual, law, base), 0u);

    // The next rank one step after the killer: their times are a few ULP
    // apart, inside the check's margin, so it must fall back.
    std::vector<double> close = base;
    close[1] = base[4] + kStep;
    EXPECT_EQ(fallbacks_building(dual, law, close), 1u);

    // Equal uniforms at the cut. A lower rank ties the killer: it sorts
    // before it in rank order and is transformed with it.
    std::vector<double> tie_before = base;
    tie_before[1] = base[4];
    EXPECT_EQ(fallbacks_building(dual, law, tie_before), 0u);
    // A higher rank ties it: it comes next with the killer's own time.
    std::vector<double> tie_after = base;
    tie_after[5] = base[4];
    EXPECT_EQ(fallbacks_building(dual, law, tie_after), 1u);

    // u = 0: the killer's sphere fails at t = 0 and the next rank later.
    std::vector<double> zero = base;
    zero[0] = 0.0;
    zero[4] = 0.0;
    EXPECT_EQ(fallbacks_building(dual, law, zero), 0u);
    // The next rank at t = 0 too: no margin below 0.
    zero[5] = 0.0;
    EXPECT_EQ(fallbacks_building(dual, law, zero), 1u);
  }

  // A lower uniform can round to the killer's time: at 1/k = 0.2 pow can
  // map adjacent uniforms to the same double. Rank 5 is then transformed, yet
  // fires after the killer (equal times go by rank), so the cut after the
  // killer's sphere must drop it.
  const FailureLaw flat{3600.0, 0.2};
  std::vector<double> tie_in_time = base;
  bool found = false;
  for (int i = 0; i < 1000 && !found; ++i) {
    tie_in_time[4] = base[4] + i * kStep;
    tie_in_time[5] = tie_in_time[4] - kStep;
    found = flat.failure_time(tie_in_time[5]) ==
            flat.failure_time(tie_in_time[4]);
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(fallbacks_building(dual, flat, tie_in_time), 0u);

  // A time that overflows to inf. With scale DBL_MAX/4, u >= 1 - e^-4
  // overflows at k = 1.
  const FailureLaw huge{std::numeric_limits<double>::max() / 4.0, 1.0};
  const double late = 1.0 - kStep;  // -log1p(-u) = 53 ln 2
  ASSERT_EQ(huge.failure_time(late), std::numeric_limits<double>::infinity());
  // The next rank overflows: an infinite t_next bounds nothing.
  std::vector<double> next_inf = base;
  next_inf[1] = late;
  next_inf[2] = next_inf[3] = next_inf[5] = next_inf[6] = next_inf[7] = late;
  EXPECT_EQ(fallbacks_building(dual, huge, next_inf), 1u);
  // The killer overflows too, and ties the ranks after it.
  next_inf[4] = late;
  EXPECT_EQ(fallbacks_building(dual, huge, next_inf), 1u);
  // Only the ranks the walk never reads overflow.
  std::vector<double> tail_inf = base;
  tail_inf[5] = tail_inf[6] = tail_inf[7] = late;
  EXPECT_EQ(fallbacks_building(dual, huge, tail_inf), 0u);

  // One sphere: every rank is transformed, and nothing comes next.
  const ReplicaMap single(1, 3.0);
  EXPECT_EQ(fallbacks_building(single, FailureLaw{3600.0, 1.0},
                               {0.5, 0.25, 0.5}),
            0u);
}

TEST(Injector, FirstSphereDeathBreaksTiesInFiringOrder) {
  // At r = 1.5 sphere 0 is ranks {0, 8} and sphere 1 is rank {1}. Both
  // spheres are dead by t = 5, but the walk fires rank 1 before rank 8, so
  // sphere 1 kills the job — not the lower sphere id.
  const ReplicaMap map(8, 1.5);
  ASSERT_EQ(map.replicas(0).size(), 2u);
  ASSERT_EQ(map.replicas(0)[1], 8);
  ASSERT_EQ(map.replicas(1).size(), 1u);
  std::vector<sim::Time> times(map.num_physical(), 100.0);
  times[0] = 1.0;
  times[1] = 5.0;
  times[8] = 5.0;
  const auto death = FailureInjector::first_sphere_death(map, times);
  ASSERT_TRUE(death.has_value());
  EXPECT_EQ(death->time, 5.0);
  EXPECT_EQ(death->sphere, 1);
  expect_schedule_is_walk_prefix(map, times, "r 1.5 tie");
}

TEST(Injector, ExponentialDrawsSkipPowBitIdentically) {
  // k = 1 skips std::pow; the draws must equal the pow form bit for bit.
  // The exponent is opaque to the compiler, so pow really runs.
  const volatile double shape = 1.0;
  const double exponent = 1.0 / shape;
  const ReplicaMap map(1000, 1.0);
  FailureParams params;
  params.node_mtbf = hours(6);
  params.seed = 2024;
  const FailureInjector injector(map, params);
  const double scale = params.node_mtbf / std::tgamma(1.0 + exponent);
  const util::Xoshiro256ss root(params.seed);
  std::size_t draws = 0;
  std::size_t mismatches = 0;
  for (std::uint64_t episode = 0; episode < 1000; ++episode) {
    const auto times = injector.draw_failure_times(episode);
    const util::Xoshiro256ss episode_stream = root.split(episode);
    for (std::size_t p = 0; p < times.size(); ++p) {
      util::Xoshiro256ss node_stream = episode_stream.split(p);
      const double u = node_stream.uniform01();
      const double expected = scale * std::pow(-std::log1p(-u), exponent);
      if (times[p] != expected) ++mismatches;
      ++draws;
    }
  }
  EXPECT_GE(draws, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Injector, RedundancyDelaysSphereDeathOnAverage) {
  // Core premise of the paper: higher degree -> later first sphere death.
  FailureParams params;
  params.node_mtbf = hours(6);
  util::RunningStats single, dual, triple;
  for (std::uint64_t episode = 0; episode < 200; ++episode) {
    for (const double r : {1.0, 2.0, 3.0}) {
      const ReplicaMap map(64, r);
      const FailureInjector injector(map, params);
      const auto death = FailureInjector::first_sphere_death(
          map, injector.draw_failure_times(episode));
      ASSERT_TRUE(death.has_value());
      (r == 1.0   ? single
       : r == 2.0 ? dual
                  : triple)
          .add(death->time);
    }
  }
  EXPECT_GT(dual.mean(), 5.0 * single.mean());
  EXPECT_GT(triple.mean(), 2.0 * dual.mean());
}

TEST(Injector, SimulatedRunMatchesClosedForm) {
  // The DES background process must kill the job at exactly the
  // closed-form first-sphere-death time (no protected phases configured).
  const ReplicaMap map(32, 1.5);
  FailureParams params;
  params.node_mtbf = hours(2);
  params.seed = 99;
  const FailureInjector injector(map, params);
  const auto expected =
      FailureInjector::first_sphere_death(map, injector.draw_failure_times(5));
  ASSERT_TRUE(expected.has_value());

  sim::Engine engine;
  SphereMonitor monitor(map);
  std::optional<JobFailure> observed;
  FailureInjector sim_injector(map, params);
  engine.spawn(sim_injector.run(engine, monitor, 5, {},
                                [&](JobFailure jf) {
                                  observed = jf;
                                  engine.request_stop();
                                }));
  engine.run();
  ASSERT_TRUE(observed.has_value());
  EXPECT_DOUBLE_EQ(observed->time, expected->time);
  EXPECT_EQ(observed->sphere, expected->sphere);
}

TEST(Injector, ProtectedPhaseDefersFailures) {
  const ReplicaMap map(4, 1.0);
  FailureParams params;
  params.node_mtbf = hours(0.001);  // fail almost immediately
  params.seed = 1;
  params.inject_during_checkpoint = false;
  FailureInjector injector(map, params);

  sim::Engine engine;
  SphereMonitor monitor(map);
  // Protect the first 100 seconds; any failure drawn inside must land after.
  bool state_protected = true;
  engine.schedule_at(100.0, [&] { state_protected = false; });
  std::optional<JobFailure> observed;
  engine.spawn(injector.run(engine, monitor, 0,
                            [&] { return state_protected; },
                            [&](JobFailure jf) {
                              observed = jf;
                              engine.request_stop();
                            }));
  engine.run();
  ASSERT_TRUE(observed.has_value());
  EXPECT_GE(observed->time, 100.0);
}

TEST(Injector, InjectDuringCheckpointIgnoresGuard) {
  const ReplicaMap map(4, 1.0);
  FailureParams params;
  params.node_mtbf = hours(0.001);
  params.seed = 1;
  params.inject_during_checkpoint = true;
  FailureInjector injector(map, params);

  sim::Engine engine;
  SphereMonitor monitor(map);
  std::optional<JobFailure> observed;
  engine.spawn(injector.run(engine, monitor, 0, [] { return true; },
                            [&](JobFailure jf) {
                              observed = jf;
                              engine.request_stop();
                            }));
  engine.run();
  ASSERT_TRUE(observed.has_value());
  EXPECT_LT(observed->time, 100.0);
}

TEST(Injector, WeibullShapeOnePreservesExponentialDraws) {
  // k = 1 must reproduce the exponential draws bit-for-bit (inverse CDFs
  // coincide and the stream positions match), keeping old seeds valid.
  const ReplicaMap map(64, 1.0);
  FailureParams expo;
  expo.node_mtbf = hours(6);
  expo.seed = 5;
  FailureParams weib = expo;
  weib.weibull_shape = 1.0;
  EXPECT_EQ(FailureInjector(map, expo).draw_failure_times(2),
            FailureInjector(map, weib).draw_failure_times(2));
}

TEST(Injector, WeibullMeanIsPreservedAcrossShapes) {
  const ReplicaMap map(20000, 1.0);
  for (const double shape : {0.7, 1.0, 1.5, 3.0}) {
    FailureParams params;
    params.node_mtbf = hours(6);
    params.seed = 9;
    params.weibull_shape = shape;
    const FailureInjector injector(map, params);
    util::RunningStats stats;
    for (const double t : injector.draw_failure_times(0)) stats.add(t);
    EXPECT_NEAR(stats.mean(), params.node_mtbf, 0.03 * params.node_mtbf)
        << "shape " << shape;
  }
}

TEST(Injector, WearOutShapeConcentratesFailures) {
  // Higher shape -> lower variance (failures cluster around the mean),
  // which makes early job failures rarer: the min of the draws grows.
  const ReplicaMap map(5000, 1.0);
  auto min_draw = [&](double shape) {
    FailureParams params;
    params.node_mtbf = hours(6);
    params.seed = 9;
    params.weibull_shape = shape;
    const auto times = FailureInjector(map, params).draw_failure_times(0);
    return *std::min_element(times.begin(), times.end());
  };
  EXPECT_GT(min_draw(3.0), 10.0 * min_draw(1.0));
}

/// The what() of the std::invalid_argument that FailureInjector throws for
/// `params`, or "" if it accepts them.
std::string rejection(const ReplicaMap& map, const FailureParams& params) {
  try {
    FailureInjector injector(map, params);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Injector, RejectsBadWeibullShape) {
  const ReplicaMap map(2, 1.0);
  FailureParams params;
  params.weibull_shape = 0.0;
  EXPECT_THROW(FailureInjector(map, params), std::invalid_argument);
  // Γ(1 + 1/k) overflows below k ≈ 0.00586: the scale θ/Γ is 0 and every
  // draw would be 0 or NaN (0·inf).
  params.node_mtbf = 720.0;
  for (const double shape : {0.005, 0.001}) {
    params.weibull_shape = shape;
    EXPECT_THROW(FailureInjector(map, params), std::invalid_argument)
        << "shape " << shape;
  }
  params.weibull_shape = 0.01;
  EXPECT_NO_THROW(FailureInjector(map, params));
  // A rejected value prints as sent, however small (not "-0.000000").
  params.weibull_shape = -1e-9;
  EXPECT_EQ(rejection(map, params),
            "redcr::failure::FailureParams: weibull_shape must be > 0, got "
            "-1e-09");
  params.weibull_shape = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(rejection(map, params),
            "redcr::failure::FailureParams: weibull_shape must be > 0, got "
            "nan");
}

TEST(Injector, RejectsNonPositiveMtbf) {
  const ReplicaMap map(2, 1.0);
  FailureParams params;
  params.node_mtbf = 0.0;
  EXPECT_THROW(FailureInjector(map, params), std::invalid_argument);
  // An infinite MTBF has no finite scale (and u = 0 would draw inf·0).
  params.node_mtbf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FailureInjector(map, params), std::invalid_argument);
  // `--mtbf-hours -1e-12`: the rejection shows the seconds as sent.
  params.node_mtbf = hours(-1e-12);
  EXPECT_EQ(rejection(map, params),
            "redcr::failure::FailureParams: node_mtbf must be > 0 s, got "
            "-3.6e-09");
}

}  // namespace
}  // namespace redcr::failure
