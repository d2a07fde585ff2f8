#include "correlate/typed_source.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "correlate/decision_source.hpp"
#include "lb/typed_simulator.hpp"
#include "util/rng.hpp"

namespace ftl {
namespace {

/// The §4.1 "multiple C subtypes" affinity graph: types A and B co-locate
/// with themselves, exclude each other, and everything excludes E
/// (including E itself — exclusive tasks want isolation).
games::AffinityGraph subtype_graph() {
  using games::Affinity;
  games::AffinityGraph g(3);
  g.set(0, 1, Affinity::kExclusive);
  g.set(0, 2, Affinity::kExclusive);
  g.set(1, 2, Affinity::kExclusive);
  g.set(2, 2, Affinity::kExclusive);
  return g;
}

games::XorGame subtype_game() {
  return games::XorGame::from_affinity(subtype_graph(),
                                       /*include_diagonal=*/true);
}

double sampled_win(correlate::TypedDecisionSource& src, std::size_t x,
                   std::size_t y, int f, int n, util::Rng& rng) {
  int wins = 0;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = src.decide(x, y, rng);
    if ((a ^ b) == f) ++wins;
  }
  return static_cast<double>(wins) / n;
}

TEST(TypedSources, GameHasQuantumAdvantage) {
  const games::XorGame game = subtype_game();
  EXPECT_NEAR(game.classical_bias(), 5.0 / 9.0, 1e-10);
  EXPECT_NEAR(game.quantum_bias().bias, 2.0 / 3.0, 1e-5);
}

TEST(TypedSources, IndependentWinsHalf) {
  correlate::TypedIndependentSource src(subtype_game());
  EXPECT_EQ(src.num_types(), 3u);
  util::Rng rng(1);
  EXPECT_NEAR(sampled_win(src, 0, 1, 1, 20000, rng), 0.5, 0.015);
}

TEST(TypedSources, ClassicalMatchesWitness) {
  const games::XorGame game = subtype_game();
  correlate::TypedClassicalSource src(game);
  util::Rng rng(2);
  // Averaged over uniform inputs, the deterministic witness achieves the
  // classical value exactly.
  double total = 0.0;
  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      const double w = src.win_probability(x, y);
      EXPECT_TRUE(w == 0.0 || w == 1.0);
      total += w / 9.0;
      EXPECT_NEAR(sampled_win(src, x, y, game.f(x, y), 4000, rng), w, 1e-12);
    }
  }
  EXPECT_NEAR(total, game.classical_value(), 1e-10);
}

TEST(TypedSources, QuantumWinRatesMatchCorrelators) {
  const games::XorGame game = subtype_game();
  correlate::TypedQuantumSource src(game);
  util::Rng rng(3);
  double total = 0.0;
  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      const double w = src.win_probability(x, y);
      EXPECT_NEAR(sampled_win(src, x, y, game.f(x, y), 30000, rng), w, 0.012);
      total += w / 9.0;
    }
  }
  // Aggregate win probability equals the SDP value (1 + bias)/2.
  EXPECT_NEAR(total, (1.0 + game.quantum_bias().bias) / 2.0, 1e-5);
}

TEST(TypedSources, QuantumBeatsClassicalOnAggregate) {
  const games::XorGame game = subtype_game();
  correlate::TypedQuantumSource quantum(game);
  correlate::TypedClassicalSource classical(game);
  double q = 0.0;
  double c = 0.0;
  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      q += quantum.win_probability(x, y) / 9.0;
      c += classical.win_probability(x, y) / 9.0;
    }
  }
  EXPECT_GT(q, c + 0.04);
}

TEST(TypedSources, QuantumMarginalsUniform) {
  correlate::TypedQuantumSource src(subtype_game());
  util::Rng rng(4);
  for (std::size_t x = 0; x < 3; ++x) {
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) ones += src.decide(x, 2, rng).first;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.015) << "x=" << x;
  }
}

TEST(TypedSources, TwoTypeCaseMatchesHonestChsh) {
  // The typed machinery on the flipped-CHSH graph must reproduce the
  // honest qubit-measurement source's statistics.
  using games::Affinity;
  games::AffinityGraph g(2);
  g.set(0, 1, Affinity::kExclusive);
  g.set(1, 1, Affinity::kExclusive);
  const games::XorGame game = games::XorGame::from_affinity(g, true);
  correlate::TypedQuantumSource typed(game);
  // Note the index mapping: graph type 0 = C (self-colocate), type 1 = E.
  // In the CHSH convention x=1 means type C.
  correlate::ChshSource honest(1.0);
  const double expect = std::cos(M_PI / 8.0) * std::cos(M_PI / 8.0);
  double typed_avg = 0.0;
  for (std::size_t x = 0; x < 2; ++x) {
    for (std::size_t y = 0; y < 2; ++y) {
      typed_avg += typed.win_probability(x, y) / 4.0;
    }
  }
  EXPECT_NEAR(typed_avg, expect, 1e-5);
  EXPECT_NEAR(honest.win_probability(0, 0), expect, 1e-10);
}

TEST(TypedSources, RealizedSourceMatchesSampledSource) {
  // The honest Pauli-measurement implementation and the correlator-sampled
  // one must have identical win profiles (same SDP vectors).
  const games::XorGame game = subtype_game();
  sdp::GramOptions opts;
  opts.seed = 321;
  correlate::TypedQuantumSource sampled(game, opts);
  correlate::TypedRealizedSource realized(game, opts);
  EXPECT_LE(realized.qubits_per_party(), 3u);
  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      EXPECT_NEAR(realized.win_probability(x, y),
                  sampled.win_probability(x, y), 1e-6)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(TypedSources, RealizedSourceSampledPlayMatches) {
  const games::XorGame game = subtype_game();
  correlate::TypedRealizedSource src(game);
  util::Rng rng(33);
  const double w = src.win_probability(0, 0);
  EXPECT_NEAR(sampled_win(src, 0, 0, game.f(0, 0), 8000, rng), w, 0.02);
}

TEST(TypedSources, OmniscientAlwaysWins) {
  correlate::TypedOmniscientSource src(subtype_game());
  util::Rng rng(5);
  const games::XorGame game = subtype_game();
  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t y = 0; y < 3; ++y) {
      EXPECT_NEAR(sampled_win(src, x, y, game.f(x, y), 2000, rng), 1.0,
                  1e-12);
    }
  }
}

// ---- typed cluster simulation ----------------------------------------------

lb::TypedLbConfig typed_cfg(std::size_t servers) {
  lb::TypedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = servers;
  cfg.type_probs = {0.35, 0.35, 0.30};
  cfg.warmup_steps = 300;
  cfg.measure_steps = 1500;
  cfg.seed = 11;
  return cfg;
}

TEST(TypedSim, ConservationOfTasks) {
  lb::TypedRandomStrategy strat;
  const auto r = run_typed_lb_sim(typed_cfg(50), subtype_graph(), strat);
  EXPECT_EQ(r.counters.arrived, r.counters.served + r.counters.still_queued);
}

TEST(TypedSim, LowLoadStays) {
  lb::TypedRandomStrategy strat;
  const auto r = run_typed_lb_sim(typed_cfg(120), subtype_graph(), strat);
  EXPECT_LT(r.mean_queue_length, 1.0);
}

TEST(TypedSim, BinaryGraphReproducesFigure4Ordering) {
  // The {C, E} graph through the typed machinery with the priority policy
  // must reproduce the binary simulator's result: quantum beats classical
  // random and classical-paired; omniscient is best.
  using games::Affinity;
  games::AffinityGraph graph(2);
  graph.set(0, 1, Affinity::kExclusive);
  graph.set(1, 1, Affinity::kExclusive);
  const games::XorGame game = games::XorGame::from_affinity(graph, true);

  lb::TypedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 64;  // load ~0.94, just below the knee
  cfg.type_probs = {0.5, 0.5};
  cfg.warmup_steps = 500;
  cfg.measure_steps = 2500;
  cfg.interference = 0.0;
  cfg.policy = lb::TypedServicePolicy::kPriorityPairs;
  cfg.seed = 11;

  lb::TypedRandomStrategy random_s;
  lb::TypedPairedStrategy classical_s(
      std::make_unique<correlate::TypedClassicalSource>(game));
  lb::TypedPairedStrategy quantum_s(
      std::make_unique<correlate::TypedQuantumSource>(game));
  lb::TypedPairedStrategy omni_s(
      std::make_unique<correlate::TypedOmniscientSource>(game));

  const double d_random = run_typed_lb_sim(cfg, graph, random_s).mean_delay;
  const double d_classical =
      run_typed_lb_sim(cfg, graph, classical_s).mean_delay;
  const double d_quantum = run_typed_lb_sim(cfg, graph, quantum_s).mean_delay;
  const double d_omni = run_typed_lb_sim(cfg, graph, omni_s).mean_delay;

  EXPECT_LT(d_quantum, d_random);
  EXPECT_LT(d_quantum, d_classical);
  EXPECT_LE(d_omni, d_quantum);
}

TEST(TypedSim, SubtypeGraphGameAdvantageDoesNotAutoConvert) {
  // Documented *negative* result (multi-seed robust): on the 3-subtype
  // graph the quantum game value beats classical (0.833 vs 0.778), yet
  // end-to-end delays track the classical paired strategy within a few
  // percent and do not robustly beat it — the classical witness's
  // all-or-nothing win profile (7 cells at 100%) matches the capacity
  // objective better than the quantum profile's uniform 0.75-1.0 spread.
  // This is the concrete content of the paper's closing caveat; see
  // EXPERIMENTS.md and bench_typed_subtypes.
  const games::AffinityGraph graph = subtype_graph();
  const games::XorGame game = subtype_game();

  double d_classical = 0.0;
  double d_quantum = 0.0;
  const int seeds = 4;
  for (int s = 1; s <= seeds; ++s) {
    auto cfg = typed_cfg(60);  // load 1.0
    cfg.interference = 0.3;
    cfg.policy = lb::TypedServicePolicy::kPairsFirstFifo;
    cfg.seed = static_cast<std::uint64_t>(s) * 101;
    lb::TypedPairedStrategy classical_s(
        std::make_unique<correlate::TypedClassicalSource>(game));
    lb::TypedPairedStrategy quantum_s(
        std::make_unique<correlate::TypedQuantumSource>(game));
    d_classical += run_typed_lb_sim(cfg, graph, classical_s).mean_delay;
    d_quantum += run_typed_lb_sim(cfg, graph, quantum_s).mean_delay;
  }
  d_classical /= seeds;
  d_quantum /= seeds;
  // Within 15% of each other, and classical is not robustly worse.
  EXPECT_LT(std::abs(d_quantum - d_classical) / d_classical, 0.15);
  EXPECT_LE(d_classical, d_quantum * 1.10);
}

TEST(TypedSim, DeterministicForSeed) {
  lb::TypedRandomStrategy s1;
  lb::TypedRandomStrategy s2;
  const auto a = run_typed_lb_sim(typed_cfg(50), subtype_graph(), s1);
  const auto b = run_typed_lb_sim(typed_cfg(50), subtype_graph(), s2);
  EXPECT_DOUBLE_EQ(a.mean_queue_length, b.mean_queue_length);
}

TEST(TypedSim, DriftBreaksDedicatedPools) {
  // Static pools are optimal for a stationary, known mix and collapse when
  // the mix drifts; mix-oblivious strategies barely notice.
  games::AffinityGraph graph(3);
  graph.set(0, 1, games::Affinity::kExclusive);
  graph.set(0, 2, games::Affinity::kExclusive);
  graph.set(1, 2, games::Affinity::kExclusive);

  lb::TypedLbConfig cfg;
  cfg.num_balancers = 60;
  cfg.num_servers = 52;
  cfg.type_probs.assign(3, 1.0 / 3.0);
  cfg.warmup_steps = 400;
  cfg.measure_steps = 3000;
  cfg.interference = 0.5;
  cfg.policy = lb::TypedServicePolicy::kPairsFirstFifo;
  cfg.seed = 11;

  lb::TypedDedicatedStrategy ded_static({0, 1, 2}, 3);
  const double d_static = run_typed_lb_sim(cfg, graph, ded_static).mean_delay;
  cfg.mix_drift_period = 200;
  lb::TypedDedicatedStrategy ded_drift({0, 1, 2}, 3);
  const double d_drift = run_typed_lb_sim(cfg, graph, ded_drift).mean_delay;
  lb::TypedRandomStrategy rnd;
  const double d_random_drift = run_typed_lb_sim(cfg, graph, rnd).mean_delay;

  EXPECT_GT(d_drift, 3.0 * d_static);       // pools collapse under drift
  EXPECT_LT(d_random_drift, d_drift);       // oblivious strategies don't
}

TEST(TypedSim, DedicatedPoolsRespectGroups) {
  lb::TypedDedicatedStrategy strat({0, 0, 1}, 2);
  util::Rng rng(7);
  std::vector<std::size_t> types{0, 1, 2, 2};
  std::vector<std::size_t> out;
  for (int i = 0; i < 100; ++i) {
    strat.assign(types, out, 10, rng);
    EXPECT_LT(out[0], 5u);
    EXPECT_LT(out[1], 5u);
    EXPECT_GE(out[2], 5u);
    EXPECT_GE(out[3], 5u);
  }
}

}  // namespace
}  // namespace ftl
