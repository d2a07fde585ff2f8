#include "lb/strategy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hpp"

namespace ftl::lb {
namespace {

/// One step's flat routing input and output, every balancer active.
struct Step {
  std::vector<TaskType> types;
  std::vector<std::uint8_t> active;
  std::size_t batch = 1;
  std::vector<std::uint32_t> out;

  Step(std::vector<TaskType> t, std::size_t b)
      : types(std::move(t)),
        active(types.size() / b, 1),
        batch(b),
        out(types.size(), 0) {}

  void assign(LbStrategy& s, const ServerArray& servers, util::Rng& rng) {
    s.assign(Arrivals{types, active, batch}, out, ClusterView{servers}, rng);
  }
};

Step uniform_step(std::size_t n, std::size_t batch, util::Rng& rng) {
  std::vector<TaskType> t(n * batch);
  for (auto& x : t) x = rng.bernoulli(0.5) ? TaskType::kC : TaskType::kE;
  return Step(std::move(t), batch);
}

void expect_valid(const std::vector<std::uint32_t>& out,
                  std::size_t num_servers) {
  for (std::uint32_t s : out) EXPECT_LT(s, num_servers);
}

TEST(RandomStrategy, ProducesValidServers) {
  RandomStrategy strat;
  util::Rng rng(1);
  Step step = uniform_step(10, 2, rng);
  const ServerArray servers(7);
  step.assign(strat, servers, rng);
  ASSERT_EQ(step.out.size(), 20u);
  expect_valid(step.out, 7);
}

TEST(RandomStrategy, CoversAllServers) {
  RandomStrategy strat;
  util::Rng rng(2);
  std::set<std::uint32_t> seen;
  const ServerArray servers(5);
  for (int i = 0; i < 200; ++i) {
    Step step = uniform_step(4, 1, rng);
    step.assign(strat, servers, rng);
    seen.insert(step.out.begin(), step.out.end());
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomStrategy, SkipsInactiveBalancers) {
  RandomStrategy strat;
  util::Rng rng(3);
  Step step({TaskType::kC, TaskType::kE}, 1);
  step.active[1] = 0;
  step.out[1] = 99;
  const ServerArray servers(4);
  step.assign(strat, servers, rng);
  EXPECT_LT(step.out[0], 4u);
  EXPECT_EQ(step.out[1], 99u);
}

TEST(RoundRobin, CyclesThroughServers) {
  RoundRobinStrategy strat;
  util::Rng rng(3);
  const ServerArray servers(4);
  Step step = uniform_step(1, 1, rng);
  std::vector<std::uint32_t> seq;
  for (int i = 0; i < 8; ++i) {
    step.assign(strat, servers, rng);
    seq.push_back(step.out[0]);
  }
  // Consecutive assignments advance by exactly 1 mod 4.
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], (seq[i - 1] + 1) % 4);
  }
}

TEST(PowerOfTwo, PrefersShorterQueue) {
  PowerOfTwoStrategy strat;
  util::Rng rng(4);
  ServerArray servers(4);  // server 2 always shortest
  for (std::size_t s : {0u, 1u, 3u}) {
    for (int i = 0; i < 100; ++i) servers.enqueue(s, TaskType::kE, 0, 0);
  }
  Step step = uniform_step(1, 1, rng);
  int hits = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    step.assign(strat, servers, rng);
    if (step.out[0] == 2) ++hits;
  }
  // Server 2 is chosen whenever probed: P = 1 - (3/4)(2/4)... = P(2 in
  // sample of 2 of 4 distinct) = 1 - C(3,2)/C(4,2) = 1/2.
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.5, 0.04);
}

TEST(Paired, UsesOnlyTwoCandidateServersPerPair) {
  PairedStrategy strat(std::make_unique<correlate::IndependentRandomSource>());
  util::Rng rng(5);
  const ServerArray servers(10);
  Step step = uniform_step(6, 1, rng);
  step.assign(strat, servers, rng);
  // Each pair's two members land on at most 2 servers.
  for (std::size_t p = 0; p < 6; p += 2) {
    std::set<std::uint32_t> used{step.out[p], step.out[p + 1]};
    EXPECT_LE(used.size(), 2u);
  }
}

TEST(Paired, OmniscientColocatesCCOnly) {
  PairedStrategy strat(std::make_unique<correlate::OmniscientOracleSource>());
  util::Rng rng(6);
  const ServerArray servers(8);
  Step step({TaskType::kC, TaskType::kC, TaskType::kC, TaskType::kE}, 1);
  for (int i = 0; i < 300; ++i) {
    step.assign(strat, servers, rng);
    EXPECT_EQ(step.out[0], step.out[1]);  // C,C colocate
    EXPECT_NE(step.out[2], step.out[3]);  // C,E separate
  }
}

TEST(Paired, QuantumColocationRates) {
  PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
  util::Rng rng(7);
  const ServerArray servers(8);
  Step step({TaskType::kC, TaskType::kC, TaskType::kC, TaskType::kE}, 1);
  int cc_colocated = 0;
  int ce_separated = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    step.assign(strat, servers, rng);
    if (step.out[0] == step.out[1]) ++cc_colocated;
    if (step.out[2] != step.out[3]) ++ce_separated;
  }
  const double expect = 0.5 * (1.0 + 1.0 / std::sqrt(2.0));  // ~0.854
  EXPECT_NEAR(static_cast<double>(cc_colocated) / n, expect, 0.012);
  EXPECT_NEAR(static_cast<double>(ce_separated) / n, expect, 0.012);
  // Every pair played one round per step.
  EXPECT_EQ(strat.rounds().won + strat.rounds().lost, 2LL * n);
}

TEST(Paired, RequiresEvenBalancers) {
  PairedStrategy strat(std::make_unique<correlate::IndependentRandomSource>());
  util::Rng rng(8);
  const ServerArray servers(4);
  Step step = uniform_step(3, 1, rng);
  EXPECT_DEATH(step.assign(strat, servers, rng), "even");
}

TEST(Paired, NameIncludesSource) {
  PairedStrategy strat(std::make_unique<correlate::ChshSource>(1.0));
  EXPECT_EQ(strat.name(), "paired(quantum-chsh)");
}

TEST(Dedicated, SeparatesTypes) {
  DedicatedServersStrategy strat(0.5);
  util::Rng rng(9);
  const ServerArray servers(10);
  Step step({TaskType::kC, TaskType::kE}, 1);
  for (int i = 0; i < 200; ++i) {
    step.assign(strat, servers, rng);
    EXPECT_LT(step.out[0], 5u);  // C goes to dedicated half
    EXPECT_GE(step.out[1], 5u);  // E to the rest
  }
}

TEST(Dedicated, AlwaysKeepsAtLeastOneOfEach) {
  DedicatedServersStrategy strat(0.01);
  util::Rng rng(10);
  const ServerArray servers(3);
  Step step({TaskType::kC, TaskType::kE}, 1);
  step.assign(strat, servers, rng);
  EXPECT_EQ(step.out[0], 0u);
  EXPECT_GE(step.out[1], 1u);
}

TEST(LocalBatching, AllCsOfOneBalancerColocate) {
  LocalBatchingStrategy strat;
  util::Rng rng(11);
  const ServerArray servers(10);
  Step step({TaskType::kC, TaskType::kC, TaskType::kE, TaskType::kC}, 4);
  step.assign(strat, servers, rng);
  EXPECT_EQ(step.out[0], step.out[1]);
  EXPECT_EQ(step.out[1], step.out[3]);
}

TEST(LocalBatching, DifferentBalancersIndependent) {
  LocalBatchingStrategy strat;
  util::Rng rng(12);
  const ServerArray servers(50);
  std::set<std::uint32_t> targets;
  Step step({TaskType::kC, TaskType::kC}, 1);
  for (int i = 0; i < 100; ++i) {
    step.assign(strat, servers, rng);
    targets.insert(step.out[0]);
    targets.insert(step.out[1]);
  }
  EXPECT_GT(targets.size(), 10u);
}

TEST(SourceFactory, ResolvesSourceStrings) {
  EXPECT_EQ(source_factory("random", 1.0)()->name(), "random");
  EXPECT_EQ(source_factory("quantum-chsh", 0.9)()->name(),
            "paired(" + correlate::ChshSource(0.9).name() + ")");
  EXPECT_EQ(source_factory("omniscient", 1.0)()->name(), "paired(omniscient)");
}

}  // namespace
}  // namespace ftl::lb
