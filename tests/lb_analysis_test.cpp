// The simulator against closed-form queueing theory — no free parameters.
#include "lb/analysis.hpp"

#include <gtest/gtest.h>

#include "lb/sharded_simulator.hpp"

namespace ftl::lb {
namespace {

TEST(Moments, BinomialAndPoissonAgreeInTheLimit) {
  const auto b = ArrivalMoments::from_binomial(10000, 0.5 / 10000.0 * 10.0);
  const auto p = ArrivalMoments::from_poisson(b.mean);
  EXPECT_NEAR(b.mean, p.mean, 1e-12);
  EXPECT_NEAR(b.second_moment, p.second_moment, 1e-2);
}

TEST(UnitServiceQueue, ZeroLoadIsEmpty) {
  EXPECT_NEAR(unit_service_mean_queue(ArrivalMoments::from_poisson(0.0)), 0.0,
              1e-12);
}

TEST(UnitServiceQueue, PoissonClosedForm) {
  // E[Q] = lambda^2 / (2 (1 - lambda)).
  for (double lam : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(unit_service_mean_queue(ArrivalMoments::from_poisson(lam)),
                lam * lam / (2.0 * (1.0 - lam)), 1e-12);
  }
}

TEST(UnitServiceQueue, DivergesTowardLoadOne)
{
  EXPECT_GT(unit_service_mean_queue(ArrivalMoments::from_poisson(0.99)), 40.0);
  EXPECT_DEATH(
      (void)unit_service_mean_queue(ArrivalMoments::from_poisson(1.0)),
      "unstable");
}

TEST(UnitServiceQueue, SimulatorMatchesTheoryPureE) {
  // Pure type-E workload under random assignment: every server is exactly
  // the analysed queue with Binomial(N, 1/M) arrivals.
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{40, 80},
                             {60, 80}, {72, 90}}) {
    ShardedLbConfig cfg;
    cfg.num_balancers = n;
    cfg.num_servers = m;
    cfg.p_colocate = 0.0;
    cfg.warmup_steps = 3000;
    cfg.measure_steps = 30000;
    cfg.seed = 12;
    const ShardedLbResult r = run_sharded_lb_sim(cfg);
    const double theory = unit_service_mean_queue(
        ArrivalMoments::from_binomial(n, 1.0 / static_cast<double>(m)));
    EXPECT_NEAR(r.mean_queue_length, theory, 0.05 + 0.1 * theory)
        << "N=" << n << " M=" << m;
  }
}

TEST(UnitServiceQueue, LittlesLawHoldsInSimulation) {
  // W = Q / lambda, with Q the time-average queue (excluding in-service)
  // and W the mean delay. Our delay counts whole steps from arrival to
  // service completion, so W_measured ~ Q/lambda within a step.
  ShardedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 80;
  cfg.p_colocate = 0.0;
  cfg.warmup_steps = 3000;
  cfg.measure_steps = 30000;
  cfg.seed = 23;
  const ShardedLbResult r = run_sharded_lb_sim(cfg);
  const double lambda = cfg.load();
  EXPECT_NEAR(r.mean_delay, r.mean_queue_length / lambda, 1.0);
}

TEST(StabilityBounds, BracketTheMeasuredKnee) {
  // p_colocate = 0.5: theory says the random-assignment knee lies in
  // (1, 4/3). The simulator must be stable below the lower bound and
  // blown up above the upper bound.
  const StabilityBounds b = paper_policy_stability_bounds(0.5);
  EXPECT_DOUBLE_EQ(b.lower, 1.0);
  EXPECT_NEAR(b.upper, 4.0 / 3.0, 1e-12);

  auto queue_at = [](std::size_t servers) {
    ShardedLbConfig cfg;
    cfg.num_balancers = 100;
    cfg.num_servers = servers;
    cfg.warmup_steps = 1000;
    cfg.measure_steps = 4000;
    cfg.seed = 4;
    return run_sharded_lb_sim(cfg).mean_queue_length;
  };
  EXPECT_LT(queue_at(112), 2.0);   // load 0.89 < lower bound: stable
  EXPECT_GT(queue_at(66), 100.0);  // load 1.52 > upper bound: divergent
}

TEST(StabilityBounds, PureWorkloadsCollapseTheInterval) {
  const StabilityBounds all_e = paper_policy_stability_bounds(0.0);
  EXPECT_DOUBLE_EQ(all_e.lower, 1.0);
  EXPECT_DOUBLE_EQ(all_e.upper, 1.0);
  const StabilityBounds all_c = paper_policy_stability_bounds(1.0);
  EXPECT_DOUBLE_EQ(all_c.upper, 2.0);
}

TEST(UnitServiceWait, ConsistentWithQueue) {
  const auto a = ArrivalMoments::from_poisson(0.6);
  EXPECT_NEAR(unit_service_mean_wait(a),
              unit_service_mean_queue(a) / 0.6, 1e-12);
}

}  // namespace
}  // namespace ftl::lb
