#include <gtest/gtest.h>

#include <cmath>

#include "qnet/config.hpp"
#include "qnet/decoherence.hpp"
#include "qnet/live_broker.hpp"
#include "qnet/timing.hpp"
#include "util/rng.hpp"

namespace ftl::qnet {
namespace {

TEST(Config, SurvivalProbability) {
  QnetConfig cfg;
  cfg.attenuation_db_per_km = 0.2;
  cfg.fiber_km = 50.0;  // 10 dB -> 10% survival
  EXPECT_NEAR(cfg.photon_survival_probability(), 0.1, 1e-10);
  EXPECT_NEAR(cfg.pair_delivery_probability(), 0.01, 1e-10);
}

TEST(Config, ZeroLengthFiberIsLossless) {
  QnetConfig cfg;
  cfg.fiber_km = 0.0;
  EXPECT_NEAR(cfg.pair_delivery_probability(), 1.0, 1e-12);
  EXPECT_NEAR(cfg.propagation_delay_s(), 0.0, 1e-15);
}

TEST(Config, PropagationDelay) {
  QnetConfig cfg;
  cfg.fiber_km = 2.0;
  cfg.fiber_speed_mps = 2.0e8;
  EXPECT_NEAR(cfg.propagation_delay_s(), 1.0e-5, 1e-12);
}

TEST(Decoherence, FreshPairKeepsFullValue) {
  // Zero storage time: win probability equals the closed-form fresh value.
  const double win = chsh_win_after_storage(1.0, 0.0, 0.0, 500e-6, 100e-6);
  EXPECT_NEAR(win, std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0), 1e-9);
}

TEST(Decoherence, WinDecreasesMonotonicallyWithStorage) {
  double prev = 1.0;
  for (double t : {0.0, 20e-6, 50e-6, 100e-6, 200e-6}) {
    const double w = chsh_win_after_storage(0.98, t, t, 500e-6, 100e-6);
    EXPECT_LT(w, prev + 1e-12);
    prev = w;
  }
}

TEST(Decoherence, LongStorageConvergesToUseless) {
  const double w = chsh_win_after_storage(1.0, 1.0, 1.0, 500e-6, 100e-6);
  // After ~10^4 coherence times nothing useful remains: at or below the
  // classical 0.75 (strictly below since correlations are gone).
  EXPECT_LT(w, 0.751);
}

TEST(Decoherence, AsymmetricStorage) {
  // Only one half stored: decay still happens but slower than both halves.
  const double both = chsh_win_after_storage(1.0, 50e-6, 50e-6, 500e-6, 100e-6);
  const double one = chsh_win_after_storage(1.0, 50e-6, 0.0, 500e-6, 100e-6);
  EXPECT_GT(one, both);
}

TEST(Decoherence, StateStaysPhysical) {
  const qcore::Density rho =
      pair_state_after_storage(0.95, 80e-6, 30e-6, 500e-6, 100e-6);
  EXPECT_TRUE(rho.is_valid(1e-7));
}

TEST(Decoherence, UsefulWindowPositiveForGoodPairs) {
  const double window = useful_storage_window_s(0.98, 500e-6, 100e-6);
  EXPECT_GT(window, 1e-6);
  // Window must be on the order of T2, not wildly beyond it.
  EXPECT_LT(window, 100.0 * 100e-6);
  // At the window boundary the advantage is gone.
  EXPECT_NEAR(chsh_win_after_storage(0.98, window, window, 500e-6, 100e-6),
              0.75, 1e-4);
}

TEST(Decoherence, UsefulWindowZeroForBadPairs) {
  // Visibility below 1/sqrt2 never beats classical even fresh.
  EXPECT_DOUBLE_EQ(useful_storage_window_s(0.5, 500e-6, 100e-6), 0.0);
}

TEST(Broker, ConservationOfPairs) {
  QnetConfig cfg;
  cfg.pair_rate_hz = 5e4;
  cfg.fiber_km = 0.5;
  util::Rng rng(1);
  const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.5, rng);
  EXPECT_GT(s.requests, 0u);
  EXPECT_GE(s.pairs_generated, s.pairs_delivered);
  EXPECT_LE(s.hits, s.requests);
  EXPECT_LE(s.hits, s.pairs_delivered);
}

TEST(Broker, ConservationIsExactAtStatsBoundary) {
  // Every generated pair must be accounted for, including live pairs left
  // in memory at duration_s.
  for (std::uint64_t seed : {1u, 7u, 23u, 99u}) {
    QnetConfig cfg;
    cfg.pair_rate_hz = 5e4;
    cfg.fiber_km = 25.0;  // long fiber: real loss and 125 us of delay
    util::Rng rng(seed);
    const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.2, rng);
    EXPECT_EQ(s.pairs_generated, s.pairs_lost_fiber + s.pairs_delivered);
    EXPECT_EQ(s.pairs_delivered, s.hits + s.pairs_expired +
                                     s.pairs_dropped_full + s.pairs_in_memory);
    EXPECT_EQ(s.requests, s.hits + s.fallbacks);
    EXPECT_TRUE(s.conservation_holds());
    EXPECT_GT(s.pairs_lost_fiber, 0u);  // 25 km at 0.2 dB/km loses pairs
  }
}

TEST(Broker, AbundantSupplyGivesHighHitRate) {
  QnetConfig cfg;
  cfg.pair_rate_hz = 1e6;  // 100x the request rate
  cfg.fiber_km = 0.1;
  util::Rng rng(2);
  const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.5, rng);
  EXPECT_GT(s.hit_fraction(), 0.95);
  EXPECT_GT(s.mean_chsh_win(), 0.80);
}

TEST(Broker, ScarceSupplyDegradesGracefully) {
  QnetConfig cfg;
  cfg.pair_rate_hz = 1e3;  // 10x fewer pairs than requests
  util::Rng rng(3);
  const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.5, rng);
  EXPECT_LT(s.hit_fraction(), 0.3);
  // Fallback floor: never below classical.
  EXPECT_GE(s.mean_chsh_win(), 0.75 - 1e-9);
}

TEST(Broker, HitRateIncreasesWithPairRate) {
  util::Rng rng(4);
  double prev = -1.0;
  for (double rate : {2e3, 2e4, 2e5}) {
    QnetConfig cfg;
    cfg.pair_rate_hz = rate;
    util::Rng r = rng.split(static_cast<std::uint64_t>(rate));
    const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.3, r);
    EXPECT_GT(s.hit_fraction(), prev);
    prev = s.hit_fraction();
  }
}

TEST(Broker, ConsumedAgeWithinStorageWindow) {
  QnetConfig cfg;
  cfg.pair_rate_hz = 1e5;
  util::Rng rng(5);
  const LiveBrokerStats s = simulate_pair_supply(cfg, 1e4, 0.3, rng);
  EXPECT_GE(s.mean_consumed_age_s(), 0.0);
  EXPECT_LE(s.mean_consumed_age_s(), cfg.max_storage_s);
}

TEST(Timing, QuantumBeatsClassicalRtt) {
  TimingModel m;
  m.inter_server_distance_m = 100.0;
  EXPECT_LT(quantum_decision_latency_s(m),
            classical_coordination_latency_s(m));
}

TEST(Timing, ClassicalLatencyGrowsWithDistance) {
  TimingModel near;
  near.inter_server_distance_m = 10.0;
  TimingModel far;
  far.inter_server_distance_m = 1.0e6;  // 1000 km
  EXPECT_GT(classical_coordination_latency_s(far),
            classical_coordination_latency_s(near));
  // Quantum decision latency is distance-independent: the §3 point.
  EXPECT_DOUBLE_EQ(quantum_decision_latency_s(far),
                   quantum_decision_latency_s(near));
}

TEST(Timing, NoStorageLatencyIndependentOfDistance) {
  TimingModel far;
  far.inter_server_distance_m = 1.0e7;
  const double lat = quantum_no_storage_latency_s(far, 1e5);
  EXPECT_NEAR(lat, 1e-5 + far.processing_s, 1e-9);
}

TEST(Timing, RttExample) {
  TimingModel m;
  m.inter_server_distance_m = 200.0;
  m.fiber_speed_mps = 2.0e8;
  m.processing_s = 0.0;
  EXPECT_NEAR(classical_coordination_latency_s(m), 2.0e-6, 1e-12);
}

}  // namespace
}  // namespace ftl::qnet
