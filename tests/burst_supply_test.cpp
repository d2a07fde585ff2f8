// Tests for the bursty-arrival model and the supply-limited decision source
// (the two pieces that connect §3's hardware budget to §4.1's simulation).
#include <gtest/gtest.h>

#include <cmath>

#include "core/supply_source.hpp"
#include "lb/sharded_simulator.hpp"

namespace ftl {
namespace {

lb::ShardedLbConfig burst_cfg() {
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 40;
  cfg.warmup_steps = 400;
  cfg.measure_steps = 2500;
  cfg.seed = 3;
  return cfg;
}

TEST(Burst, ReducesMeanArrivalRate) {
  lb::ShardedLbConfig cfg = burst_cfg();
  const auto steady = lb::run_sharded_lb_sim(cfg);
  cfg.burst = lb::BurstModel{1.0, 0.2, 40.0};
  const auto bursty = lb::run_sharded_lb_sim(cfg);
  // Mean activity ~0.6 of steady.
  EXPECT_LT(bursty.counters.arrived, steady.counters.arrived);
  EXPECT_GT(bursty.counters.arrived, steady.counters.arrived / 3);
}

TEST(Burst, ConservationStillHolds) {
  lb::ShardedLbConfig cfg = burst_cfg();
  cfg.burst = lb::BurstModel{1.0, 0.1, 25.0};
  cfg.source = "quantum-chsh";
  const auto r = lb::run_sharded_lb_sim(cfg);
  EXPECT_EQ(r.counters.arrived, r.counters.served + r.counters.still_queued);
}

TEST(Burst, PairedStrategyHandlesLoneBalancers) {
  // With activity 0.5, half the pairs have exactly one active member each
  // step; the strategy must still produce valid assignments.
  lb::ShardedLbConfig cfg = burst_cfg();
  cfg.burst = lb::BurstModel{0.5, 0.5, 1000.0};
  cfg.source = "quantum-chsh";
  const auto r = lb::run_sharded_lb_sim(cfg);
  EXPECT_GT(r.counters.served, 0);
  EXPECT_EQ(r.counters.arrived, r.counters.served + r.counters.still_queued);
}

TEST(Burst, QuantumAdvantageSurvivesModerateBurstiness) {
  // The §4.1 caveat probe: with bursty arrivals sized so the HIGH phase
  // sits at the knee, quantum pairing still beats classical pairing.
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 80;
  cfg.warmup_steps = 500;
  cfg.measure_steps = 4000;
  cfg.seed = 9;
  cfg.burst = lb::BurstModel{1.0, 0.5, 60.0};

  cfg.source = "quantum-chsh";
  const auto rq = lb::run_sharded_lb_sim(cfg);
  cfg.source = "classical-chsh";
  const auto rc = lb::run_sharded_lb_sim(cfg);
  EXPECT_LT(rq.mean_delay, rc.mean_delay);
}

TEST(SupplySource, FallsBackGracefully) {
  core::PairConfig cfg;
  cfg.backend = core::Backend::kQuantum;
  cfg.visibility = 0.98;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 2e3;  // starved vs 1e4 rounds/s
  cfg.supply = supply;
  cfg.round_rate_hz = 1e4;
  cfg.seed = 5;
  core::SupplyAwareSource src(cfg);
  util::Rng rng(6);
  int wins = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) {
    const int x = rng.bernoulli(0.5) ? 1 : 0;
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    const auto [a, b] = src.decide(x, y, rng);
    const int target = (x == 1 && y == 1) ? 0 : 1;
    if ((a ^ b) == target) ++wins;
  }
  const double win = static_cast<double>(wins) / rounds;
  // Mostly classical rounds: between 0.75 and the fresh-pair quantum rate.
  EXPECT_GT(win, 0.74);
  EXPECT_LT(win, 0.80);
  EXPECT_GT(src.stats().fallback_rounds, src.stats().quantum_rounds);
}

TEST(SupplySource, AbundantSupplyApproachesIdeal) {
  core::PairConfig cfg;
  cfg.backend = core::Backend::kQuantum;
  cfg.visibility = 1.0;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 1e6;
  supply.fiber_km = 0.1;
  supply.source_visibility = 1.0;
  cfg.supply = supply;
  cfg.round_rate_hz = 1e4;
  cfg.seed = 7;
  core::SupplyAwareSource src(cfg);
  util::Rng rng(8);
  int wins = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) {
    const int x = rng.bernoulli(0.5) ? 1 : 0;
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    const auto [a, b] = src.decide(x, y, rng);
    const int target = (x == 1 && y == 1) ? 0 : 1;
    if ((a ^ b) == target) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / rounds,
              std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0), 0.02);
}

TEST(SupplySource, EndToEndClusterOrdering) {
  // The Figure-4 comparison with a finite source: supply-limited quantum
  // sits between pure classical and ideal quantum.
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 52;
  cfg.warmup_steps = 400;
  cfg.measure_steps = 2500;
  cfg.seed = 13;

  core::PairConfig pc;
  pc.backend = core::Backend::kQuantum;
  pc.visibility = 1.0;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 1.2e4;  // just above the round rate
  supply.source_visibility = 0.99;
  pc.supply = supply;
  pc.round_rate_hz = 1e4;
  pc.seed = 21;

  const double d_limited =
      lb::run_sharded_lb_sim(cfg, nullptr,
                             lb::paired_factory<core::SupplyAwareSource>(pc))
          .mean_delay;
  cfg.source = "quantum-chsh";
  const double d_ideal = lb::run_sharded_lb_sim(cfg).mean_delay;
  cfg.source = "classical-chsh";
  const double d_classical = lb::run_sharded_lb_sim(cfg).mean_delay;
  EXPECT_LT(d_ideal, d_classical);
  EXPECT_LE(d_limited, d_classical + 0.1);
  EXPECT_GE(d_limited, d_ideal - 0.1);
}

}  // namespace
}  // namespace ftl
