#include "lb/sharded_simulator.hpp"

#include <gtest/gtest.h>

#include "correlate/decision_source.hpp"

namespace ftl::lb {
namespace {

ShardedLbConfig small_config() {
  ShardedLbConfig cfg;
  cfg.num_balancers = 20;
  cfg.num_servers = 20;
  cfg.warmup_steps = 200;
  cfg.measure_steps = 800;
  cfg.seed = 42;
  return cfg;
}

ShardedLbResult run(const ShardedLbConfig& cfg,
                    const StrategyFactory& strategy =
                        strategy_factory<RandomStrategy>()) {
  return run_sharded_lb_sim(cfg, nullptr, strategy);
}

TEST(LbSim, ConservationOfRequests) {
  ShardedLbConfig cfg = small_config();
  const ShardedLbResult r = run(cfg);
  // Everything that arrived during measurement was served or is queued.
  EXPECT_EQ(r.counters.arrived, r.counters.served + r.counters.still_queued);
  EXPECT_EQ(r.counters.arrived, static_cast<long long>(cfg.num_balancers) *
                           cfg.measure_steps);
}

TEST(LbSim, LowLoadHasTinyQueues) {
  ShardedLbConfig cfg = small_config();
  cfg.num_balancers = 10;
  cfg.num_servers = 40;  // load 0.25
  const ShardedLbResult r = run(cfg);
  EXPECT_LT(r.mean_queue_length, 0.5);
  EXPECT_LT(r.mean_delay, 1.5);
}

TEST(LbSim, OverloadGrowsQueues) {
  ShardedLbConfig cfg = small_config();
  cfg.num_balancers = 60;
  cfg.num_servers = 20;  // load 3.0: far beyond capacity
  const ShardedLbResult r = run(cfg);
  EXPECT_GT(r.mean_queue_length, 10.0);
}

TEST(LbSim, ThroughputBoundedByCapacity) {
  ShardedLbConfig cfg = small_config();
  const ShardedLbResult r = run(cfg);
  // A server can serve at most 2 requests per step.
  EXPECT_LE(r.throughput, 2.0 + 1e-9);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(LbSim, DeterministicForSeed) {
  ShardedLbConfig cfg = small_config();
  const ShardedLbResult a = run(cfg);
  const ShardedLbResult b = run(cfg);
  EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.counters.served, b.counters.served);
}

TEST(LbSim, SeedChangesRealisation) {
  ShardedLbConfig cfg = small_config();
  const ShardedLbResult a = run(cfg);
  cfg.seed = 43;
  const ShardedLbResult b = run(cfg);
  EXPECT_NE(a.mean_queue_length, b.mean_queue_length);
}

TEST(LbSim, PureCWorkloadBenefitsFromPairService) {
  // With only type-C tasks, capacity is 2/step; load 1.5 is stable.
  ShardedLbConfig cfg = small_config();
  cfg.num_balancers = 30;
  cfg.num_servers = 20;
  cfg.p_colocate = 1.0;
  const ShardedLbResult r = run(cfg);
  EXPECT_LT(r.mean_queue_length, 5.0);
}

TEST(LbSim, PureEWorkloadSaturatesAtLoadOne) {
  ShardedLbConfig cfg = small_config();
  cfg.num_balancers = 30;
  cfg.num_servers = 20;  // load 1.5 of E-only: unstable
  cfg.p_colocate = 0.0;
  const ShardedLbResult r = run(cfg);
  EXPECT_GT(r.mean_queue_length, 20.0);
}

TEST(LbSim, QuantumBeatsClassicalAtModerateLoad) {
  // The Figure-4 claim at a single load point, with tight seed control.
  ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 72;  // load ~1.39, near the classical knee
  cfg.warmup_steps = 500;
  cfg.measure_steps = 3000;
  cfg.seed = 7;

  const ShardedLbResult rc =
      run(cfg, paired_factory<correlate::ClassicalChshSource>());
  const ShardedLbResult rq =
      run(cfg, paired_factory<correlate::ChshSource>(1.0));
  EXPECT_LT(rq.mean_queue_length, rc.mean_queue_length);
}

TEST(LbSim, OmniscientIsBestPairedStrategy) {
  ShardedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 44;
  cfg.warmup_steps = 300;
  cfg.measure_steps = 2000;
  cfg.seed = 11;

  const ShardedLbResult rq =
      run(cfg, paired_factory<correlate::ChshSource>(1.0));
  const ShardedLbResult ro =
      run(cfg, paired_factory<correlate::OmniscientOracleSource>());
  EXPECT_LE(ro.mean_queue_length, rq.mean_queue_length + 0.05);
}

TEST(LbSim, DelayMetricsConsistent) {
  ShardedLbConfig cfg = small_config();
  const ShardedLbResult r = run(cfg);
  EXPECT_GE(r.p95_delay, r.mean_delay - 1e-9);
  EXPECT_GE(r.mean_delay, 0.0);
  // Mean delay is a mixture of the two per-type means.
  EXPECT_GE(r.mean_delay, std::min(r.mean_delay_c, r.mean_delay_e) - 1e-9);
  EXPECT_LE(r.mean_delay, std::max(r.mean_delay_c, r.mean_delay_e) + 1e-9);
}

TEST(LbSim, ServicePolicyVariantsRun) {
  for (auto policy : {ServicePolicy::kPaperCFirst, ServicePolicy::kFifoPair,
                      ServicePolicy::kEFirst}) {
    ShardedLbConfig cfg = small_config();
    cfg.policy = policy;
    const ShardedLbResult r = run(cfg);
    EXPECT_EQ(r.counters.arrived, r.counters.served + r.counters.still_queued)
        << to_string(policy);
  }
}

TEST(LbSim, BatchSizeMultipliesArrivals) {
  ShardedLbConfig cfg = small_config();
  cfg.batch_size = 3;
  const ShardedLbResult r = run(cfg, strategy_factory<LocalBatchingStrategy>());
  EXPECT_EQ(r.counters.arrived, static_cast<long long>(cfg.num_balancers) * 3 *
                           cfg.measure_steps);
}

TEST(LbSim, LoadHelper) {
  ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 50;
  EXPECT_DOUBLE_EQ(cfg.load(), 2.0);
  cfg.batch_size = 2;
  EXPECT_DOUBLE_EQ(cfg.load(), 4.0);
}

}  // namespace
}  // namespace ftl::lb
