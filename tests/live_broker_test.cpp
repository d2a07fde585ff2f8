// Closed-form and invariant checks for the serving-path LiveBroker, driven
// in deterministic stepped (virtual-time) mode.
#include "qnet/live_broker.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "qnet/decoherence.hpp"

namespace ftl::qnet {
namespace {

/// Lossless, effectively-expiry-free configuration: zero-length fiber and
/// second-scale T1/T2 so every generated pair is delivered and pairs
/// consumed within milliseconds never decay out of the useful window.
LiveBrokerConfig no_expiry_config(double pair_rate_hz,
                                  std::size_t slots = 64) {
  LiveBrokerConfig cfg;
  cfg.qnet.pair_rate_hz = pair_rate_hz;
  cfg.qnet.fiber_km = 0.0;
  cfg.qnet.memory_t1_s = 50.0;
  cfg.qnet.memory_t2_s = 10.0;
  cfg.qnet.max_storage_s = 1.0;
  cfg.qnet.memory_slots = slots;
  return cfg;
}

/// Drives one source with a deterministic open-loop request schedule at
/// `request_rate_hz` for `duration_s` of virtual time.
LiveBrokerStats drive(LiveBroker& broker, double request_rate_hz,
                      double duration_s) {
  const double dt = 1.0 / request_rate_hz;
  std::uint8_t input = 0;
  for (double t = dt; t <= duration_s; t += dt) {
    broker.produce_until(0, t);
    (void)broker.decide(0, input ^= 1u, t);
  }
  return broker.stats();
}

TEST(LiveBroker, HitFractionTracksSupplyDemandRatio) {
  // No-expiry regime, supply-limited: almost every delivered pair is
  // consumed, so hit_fraction -> pair_rate / request_rate.
  for (const double ratio : {0.25, 0.5, 0.8}) {
    const double request_rate = 2e4;
    LiveBroker broker(no_expiry_config(ratio * request_rate), /*seed=*/42);
    const LiveBrokerStats s = drive(broker, request_rate, 1.0);
    EXPECT_NEAR(s.hit_fraction(), ratio, 0.03) << "ratio " << ratio;
    EXPECT_EQ(s.pairs_lost_fiber, 0u);
    EXPECT_EQ(s.pairs_expired, 0u);
    EXPECT_TRUE(s.conservation_holds());
  }
}

TEST(LiveBroker, AbundantSupplySaturatesHitFraction) {
  const double request_rate = 1e4;
  LiveBroker broker(no_expiry_config(5.0 * request_rate), /*seed=*/7);
  const LiveBrokerStats s = drive(broker, request_rate, 1.0);
  EXPECT_GT(s.hit_fraction(), 0.99);
  EXPECT_GT(s.mean_chsh_win(), 0.80);
  EXPECT_TRUE(s.conservation_holds());
}

TEST(LiveBroker, StarvedSupplyFallsBackToClassical) {
  // Pair supply at 1% of demand: mean win converges to the classical 0.75.
  const double request_rate = 1e4;
  LiveBroker broker(no_expiry_config(0.01 * request_rate), /*seed=*/3);
  const LiveBrokerStats s = drive(broker, request_rate, 1.0);
  EXPECT_LT(s.hit_fraction(), 0.03);
  EXPECT_GE(s.mean_chsh_win(), 0.75 - 1e-12);
  EXPECT_LE(s.mean_chsh_win(), 0.752);
  EXPECT_GT(s.fallbacks, 0u);
}

TEST(LiveBroker, FreshestFirstConsumption) {
  LiveBroker broker(no_expiry_config(1e4), /*seed=*/1);
  // Fill the pool, then decide: the consumed pair must be the newest one
  // (smallest age), not FIFO.
  broker.produce_until(0, 0.5);
  const LiveBrokerStats before = broker.stats();
  ASSERT_GT(before.pairs_in_memory, 1u);
  const auto d = broker.decide(0, 0, 0.5);
  ASSERT_TRUE(d.quantum);
  // The newest of ~5000 Poisson arrivals in [0, 0.5] at rate 1e4 is
  // overwhelmingly younger than a mean inter-arrival time of 100 us.
  EXPECT_LT(d.pair_age_s, 50e-4);
  EXPECT_DOUBLE_EQ(d.win_probability, broker.win_at_age(d.pair_age_s));
}

TEST(LiveBroker, ExpiredPairsAreEvictedNotServed) {
  LiveBrokerConfig cfg;  // default QnetConfig: ~100 us useful window
  cfg.qnet.pair_rate_hz = 1e5;
  cfg.qnet.fiber_km = 0.0;
  LiveBroker broker(cfg, /*seed=*/5);
  broker.produce_until(0, 0.01);
  const LiveBrokerStats before = broker.stats();
  ASSERT_GT(before.pairs_in_memory, 0u);
  // Jump far past the storage window: decide() resolves the elapsed
  // emission process itself, so the 0.01-era pool must be counted expired
  // (never served) and the consumed pair — if any — must be fresh.
  const auto d = broker.decide(0, 1, 0.01 + 1.0);
  const LiveBrokerStats s = broker.stats();
  EXPECT_GE(s.pairs_expired, before.pairs_in_memory);
  if (d.quantum) {
    EXPECT_LE(d.pair_age_s, broker.max_storage_s());
    EXPECT_DOUBLE_EQ(d.win_probability, broker.win_at_age(d.pair_age_s));
  } else {
    EXPECT_DOUBLE_EQ(d.win_probability, 0.75);
    EXPECT_EQ(d.output, 1u);  // classical fallback echoes the input bit
  }
  EXPECT_TRUE(s.conservation_holds());
}

TEST(LiveBroker, EffectiveWindowClampedByDecoherence) {
  LiveBrokerConfig cfg;
  cfg.qnet.max_storage_s = 10.0;  // far beyond what T1/T2 supports
  LiveBroker broker(cfg, /*seed=*/2);
  const double window = useful_storage_window_s(
      cfg.qnet.source_visibility, cfg.qnet.memory_t1_s, cfg.qnet.memory_t2_s);
  EXPECT_DOUBLE_EQ(broker.max_storage_s(), window);
  // At the clamped boundary the advantage is gone.
  EXPECT_NEAR(broker.win_at_age(window), 0.75, 1e-3);
  // Fresh pairs match the exact density-matrix computation.
  EXPECT_NEAR(broker.win_at_age(0.0),
              chsh_win_after_storage(cfg.qnet.source_visibility, 0.0, 0.0,
                                     cfg.qnet.memory_t1_s,
                                     cfg.qnet.memory_t2_s),
              1e-12);
}

TEST(LiveBroker, PoolOverflowDropsOldest) {
  LiveBrokerConfig cfg = no_expiry_config(1e5, /*slots=*/8);
  LiveBroker broker(cfg, /*seed=*/11);
  broker.produce_until(0, 1.0);  // ~1e5 pairs into an 8-slot pool
  const LiveBrokerStats s = broker.stats();
  EXPECT_EQ(s.pairs_in_memory, 8u);
  EXPECT_GT(s.pairs_dropped_full, 0u);
  EXPECT_TRUE(s.conservation_holds());
}

TEST(LiveBroker, AdmissionControlBoundsPending) {
  LiveBrokerConfig cfg = no_expiry_config(1e4);
  cfg.max_pending = 100;
  LiveBroker broker(cfg, /*seed=*/9);
  EXPECT_TRUE(broker.try_admit(60));
  EXPECT_TRUE(broker.try_admit(40));
  EXPECT_EQ(broker.pending(), 100u);
  EXPECT_FALSE(broker.try_admit(1));  // bound reached -> backpressure
  EXPECT_EQ(broker.stats().rejected, 1u);
  broker.release(40);
  EXPECT_TRUE(broker.try_admit(40));
  broker.release(100);
  EXPECT_EQ(broker.pending(), 0u);
}

TEST(LiveBroker, StatsAreDeterministicInSteppedMode) {
  auto run = [] {
    LiveBroker broker(no_expiry_config(1.5e4), /*seed=*/42);
    return drive(broker, 2e4, 0.5);
  };
  const LiveBrokerStats a = run();
  const LiveBrokerStats b = run();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.rounds_won, b.rounds_won);
  EXPECT_EQ(a.pairs_generated, b.pairs_generated);
  EXPECT_EQ(a.pairs_delivered, b.pairs_delivered);
  EXPECT_DOUBLE_EQ(a.win_sum, b.win_sum);
}

TEST(LiveBroker, PerSourceStreamsAreIndependent) {
  LiveBrokerConfig cfg = no_expiry_config(1e4);
  cfg.sources = 4;
  LiveBroker broker(cfg, /*seed=*/42);
  for (std::size_t src = 0; src < 4; ++src) {
    broker.produce_until(src, 0.25);
  }
  const LiveBrokerStats s = broker.stats();
  // Four independent Poisson streams at 1e4 Hz for 0.25 s.
  EXPECT_NEAR(static_cast<double>(s.pairs_generated), 4 * 2500.0, 300.0);
  EXPECT_TRUE(s.conservation_holds());
}

}  // namespace
}  // namespace ftl::qnet
