// Statistical-equivalence oracle for the pair-supply model.
//
// kFrozen holds the means and 99% confidence intervals of the former
// discrete-event simulate_pair_supply (an event-queue simulation, before
// the function became a driver over LiveBroker) over a (pair rate x request
// rate x T2) grid. Each grid point is 20 runs, seeds 1..20 (util::Rng(seed)
// passed as the caller's rng), default QnetConfig otherwise, each run
// lasting min(2000 / request_rate, 1e5 / pair_rate) seconds. The table was
// generated at commit 54f7de0, where this file still called the
// discrete-event model, by
//
//   FTL_SUPPLY_EQUIV_PRINT=1 ./supply_equivalence_test
//
// which prints the current model's table in the same format. The test
// recomputes the statistics from the current model, requires every
// interval to overlap its frozen counterpart, and checks the exact
// pair-conservation identities on every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "qnet/live_broker.hpp"
#include "util/rng.hpp"

namespace ftl::qnet {
namespace {

constexpr int kSeeds = 20;
/// Two-sided 99% Student-t quantile for kSeeds - 1 degrees of freedom.
constexpr double kT99 = 2.861;

struct Interval {
  double mean = 0.0;
  double half = 0.0;  ///< 99% half-width
};

struct GridPoint {
  double pair_rate_hz;
  double request_rate_hz;
  double t2_s;
  Interval hit_fraction;
  Interval consumed_age_s;
  Interval chsh_win;
};

// clang-format off
constexpr GridPoint kFrozen[] = {
    {2e+03, 1e+03, 2e-05, {0.014419, 0.001416}, {3.7786e-06, 2.8262e-07}, {0.750608, 0.000077}},
    {2e+03, 1e+03, 1e-04, {0.053644, 0.002916}, {1.4563e-05, 4.6500e-07}, {0.752420, 0.000148}},
    {2e+03, 1e+03, 1e-03, {0.196656, 0.005332}, {5.7680e-05, 1.1059e-06}, {0.759117, 0.000295}},
    {2e+03, 1e+04, 2e-05, {0.014142, 0.001530}, {3.7377e-06, 3.2293e-07}, {0.750606, 0.000097}},
    {2e+03, 1e+04, 1e-04, {0.048077, 0.002446}, {1.3940e-05, 5.6532e-07}, {0.752263, 0.000116}},
    {2e+03, 1e+04, 1e-03, {0.127708, 0.003545}, {4.8106e-05, 1.2781e-06}, {0.756900, 0.000243}},
    {2e+04, 1e+03, 2e-05, {0.132332, 0.003981}, {3.6937e-06, 8.7325e-08}, {0.755725, 0.000197}},
    {2e+04, 1e+03, 1e-04, {0.426989, 0.008408}, {1.3466e-05, 1.8820e-07}, {0.770781, 0.000501}},
    {2e+04, 1e+03, 1e-03, {0.886688, 0.003280}, {3.9387e-05, 4.7297e-07}, {0.804165, 0.000416}},
    {2e+04, 1e+04, 2e-05, {0.127988, 0.005740}, {3.6054e-06, 7.9117e-08}, {0.755681, 0.000292}},
    {2e+04, 1e+04, 1e-04, {0.384992, 0.008040}, {1.2925e-05, 1.6401e-07}, {0.769427, 0.000508}},
    {2e+04, 1e+04, 1e-03, {0.762930, 0.004761}, {3.8137e-05, 5.4597e-07}, {0.797464, 0.000465}},
    {2e+05, 1e+03, 2e-05, {0.757493, 0.012071}, {2.8671e-06, 7.0907e-08}, {0.790943, 0.001005}},
    {2e+05, 1e+03, 1e-04, {0.996663, 0.001602}, {5.1673e-06, 1.5404e-07}, {0.826481, 0.000539}},
    {2e+05, 1e+03, 1e-03, {1.000000, 0.000000}, {5.2677e-06, 1.5137e-07}, {0.841140, 0.000151}},
    {2e+05, 1e+04, 2e-05, {0.743203, 0.005619}, {2.8752e-06, 3.4858e-08}, {0.790067, 0.000434}},
    {2e+05, 1e+04, 1e-04, {0.992623, 0.001169}, {5.3712e-06, 6.3420e-08}, {0.825483, 0.000237}},
    {2e+05, 1e+04, 1e-03, {0.999975, 0.000072}, {5.6032e-06, 6.9689e-08}, {0.840814, 0.000070}},
};
// clang-format on

Interval interval(const std::vector<double>& xs) {
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double sd = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  return {mean, kT99 * sd / std::sqrt(static_cast<double>(xs.size()))};
}

bool overlap(const Interval& a, const Interval& b) {
  return std::fabs(a.mean - b.mean) <= a.half + b.half;
}

/// Runs the current model at one grid point over seeds 1..kSeeds.
GridPoint measure(double pair_rate_hz, double request_rate_hz, double t2_s) {
  QnetConfig cfg;
  cfg.pair_rate_hz = pair_rate_hz;
  cfg.memory_t2_s = t2_s;
  const double duration_s =
      std::min(2000.0 / request_rate_hz, 1e5 / pair_rate_hz);
  std::vector<double> hits, ages, wins;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    const LiveBrokerStats s =
        simulate_pair_supply(cfg, request_rate_hz, duration_s, rng);
    EXPECT_EQ(s.pairs_generated, s.pairs_lost_fiber + s.pairs_delivered);
    EXPECT_EQ(s.pairs_delivered, s.hits + s.pairs_expired +
                                     s.pairs_dropped_full + s.pairs_in_memory);
    EXPECT_EQ(s.requests, s.hits + s.fallbacks);
    EXPECT_TRUE(s.conservation_holds());
    EXPECT_GT(s.hits, 0u) << "seed " << seed;
    hits.push_back(s.hit_fraction());
    ages.push_back(s.mean_consumed_age_s());
    wins.push_back(s.mean_chsh_win());
  }
  return {pair_rate_hz,    request_rate_hz, t2_s, interval(hits),
          interval(ages), interval(wins)};
}

TEST(SupplyEquivalence, MatchesFrozenDiscreteEventIntervals) {
  const bool print = std::getenv("FTL_SUPPLY_EQUIV_PRINT") != nullptr;
  std::size_t i = 0;
  for (const double pair_rate : {2e3, 2e4, 2e5}) {
    for (const double request_rate : {1e3, 1e4}) {
      for (const double t2 : {20e-6, 100e-6, 1e-3}) {
        ASSERT_LT(i, std::size(kFrozen));
        const GridPoint& want = kFrozen[i++];
        ASSERT_EQ(want.pair_rate_hz, pair_rate);
        ASSERT_EQ(want.request_rate_hz, request_rate);
        ASSERT_EQ(want.t2_s, t2);
        const GridPoint got = measure(pair_rate, request_rate, t2);
        if (print) {
          std::printf(
              "    {%.0e, %.0e, %.0e, {%.6f, %.6f}, {%.4e, %.4e}, "
              "{%.6f, %.6f}},\n",
              pair_rate, request_rate, t2, got.hit_fraction.mean,
              got.hit_fraction.half, got.consumed_age_s.mean,
              got.consumed_age_s.half, got.chsh_win.mean, got.chsh_win.half);
        }
        const auto where = [&] {
          return testing::Message() << "pair rate " << pair_rate
                                    << ", request rate " << request_rate
                                    << ", T2 " << t2;
        };
        EXPECT_TRUE(overlap(got.hit_fraction, want.hit_fraction))
            << where() << ": hit fraction " << got.hit_fraction.mean
            << " +- " << got.hit_fraction.half << " vs frozen "
            << want.hit_fraction.mean << " +- " << want.hit_fraction.half;
        EXPECT_TRUE(overlap(got.consumed_age_s, want.consumed_age_s))
            << where() << ": consumed age " << got.consumed_age_s.mean
            << " +- " << got.consumed_age_s.half << " vs frozen "
            << want.consumed_age_s.mean << " +- "
            << want.consumed_age_s.half;
        EXPECT_TRUE(overlap(got.chsh_win, want.chsh_win))
            << where() << ": chsh win " << got.chsh_win.mean << " +- "
            << got.chsh_win.half << " vs frozen " << want.chsh_win.mean
            << " +- " << want.chsh_win.half;
      }
    }
  }
  EXPECT_EQ(i, std::size(kFrozen));
}

}  // namespace
}  // namespace ftl::qnet
