// Property suite: randomized cross-validation between independent
// implementations of the same physics/simulation:
//
//   * typed affinity simulator vs the plain {C, E} simulator on identical
//     seeds (a binary affinity graph with kPriorityPairs is, by
//     construction, the paper's kPaperCFirst policy);
//   * CorrelationBox::from_strategy vs the strategy's own Born-rule
//     expectation values, including full game values;
//   * the see-saw lower bound vs the Tsirelson SDP on random XOR games.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "games/box.hpp"
#include "games/generators.hpp"
#include "games/invariants.hpp"
#include "games/seesaw.hpp"
#include "games/xor_game.hpp"
#include "lb/invariants.hpp"
#include "lb/sharded_simulator.hpp"
#include "lb/strategy.hpp"
#include "lb/typed_simulator.hpp"
#include "util/proptest.hpp"

namespace {

using ftl::games::CorrelationBox;
using ftl::games::QuantumStrategy;
using ftl::games::XorGame;
using ftl::lb::ShardedLbResult;
using ftl::proptest::CaseResult;
using ftl::proptest::for_all;
using ftl::proptest::Options;
using ftl::util::Rng;

Options suite(const std::string& name, std::size_t cases) {
  Options o;
  o.name = name;
  o.cases = cases;
  return o;
}

// --- typed vs untyped simulators on identical seeds -------------------------

struct TwinCase {
  ftl::lb::ShardedLbConfig plain;
  ftl::lb::TypedLbConfig typed;
};

TwinCase random_twin_case(Rng& rng) {
  TwinCase c;
  c.plain.num_balancers = 2 * (2 + rng.uniform_int(std::uint64_t{15}));
  // Keep the load at or below ~0.85 so queues stay inside the typed
  // server's bounded pairing scan window; above it the two service
  // implementations may legitimately diverge on very long queues.
  const auto min_servers = static_cast<std::size_t>(
      static_cast<double>(c.plain.num_balancers) / 0.85) + 1;
  c.plain.num_servers = min_servers + rng.uniform_int(std::uint64_t{20});
  c.plain.p_colocate = rng.uniform();
  c.plain.batch_size = 1;
  c.plain.policy = ftl::lb::ServicePolicy::kPaperCFirst;
  c.plain.warmup_steps = static_cast<long>(rng.uniform_int(std::uint64_t{60}));
  c.plain.measure_steps =
      50 + static_cast<long>(rng.uniform_int(std::uint64_t{250}));
  c.plain.seed = rng.next_u64();

  c.typed.num_balancers = c.plain.num_balancers;
  c.typed.num_servers = c.plain.num_servers;
  c.typed.type_probs = {c.plain.p_colocate, 1.0 - c.plain.p_colocate};
  c.typed.warmup_steps = c.plain.warmup_steps;
  c.typed.measure_steps = c.plain.measure_steps;
  c.typed.interference = 0.0;
  c.typed.policy = ftl::lb::TypedServicePolicy::kPriorityPairs;
  c.typed.seed = c.plain.seed;
  return c;
}

TEST(PropCrosscheck, TypedSimulatorReproducesPlainSimulatorExactly) {
  const auto r = for_all(
      suite("typed-vs-plain-lb", 100), random_twin_case,
      [](const TwinCase& c) {
        const ShardedLbResult plain = ftl::lb::run_sharded_lb_sim(c.plain);

        // Binary affinity graph: type 0 = C (self-colocating), type 1 = E
        // (exclusive against everything).
        ftl::games::AffinityGraph graph(2);
        graph.set(0, 1, ftl::games::Affinity::kExclusive);
        graph.set(1, 1, ftl::games::Affinity::kExclusive);
        ftl::lb::TypedRandomStrategy typed_strategy;
        const ShardedLbResult typed =
            ftl::lb::run_typed_lb_sim(c.typed, graph, typed_strategy);

        const std::string plain_violation =
            ftl::lb::conservation_violation(plain);
        if (!plain_violation.empty()) {
          return CaseResult::fail("plain: " + plain_violation);
        }
        const std::string typed_violation =
            ftl::lb::conservation_violation(typed);
        if (!typed_violation.empty()) {
          return CaseResult::fail("typed: " + typed_violation);
        }
        const ftl::lb::ShardedCounters& p = plain.counters;
        const ftl::lb::ShardedCounters& t = typed.counters;
        if (p.arrived != t.arrived || p.served != t.served ||
            p.still_queued != t.still_queued) {
          return CaseResult::fail(
              "counters diverge: plain arrived/served/queued " +
              std::to_string(p.arrived) + "/" + std::to_string(p.served) +
              "/" + std::to_string(p.still_queued) + " vs typed " +
              std::to_string(t.arrived) + "/" + std::to_string(t.served) +
              "/" + std::to_string(t.still_queued));
        }
        if (std::abs(plain.mean_queue_length - typed.mean_queue_length) >
                1e-12 ||
            std::abs(plain.mean_delay - typed.mean_delay) > 1e-12 ||
            std::abs(plain.throughput - typed.throughput) > 1e-12) {
          return CaseResult::fail("time-averaged metrics diverge");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

// --- CorrelationBox::from_strategy vs Born expectations ---------------------

TEST(PropCrosscheck, BoxFromStrategyMatchesBornExpectations) {
  struct Case {
    QuantumStrategy strategy;
    XorGame game;
  };
  const auto r = for_all(
      suite("box-vs-strategy", 120),
      [](Rng& rng) {
        const bool mixed = rng.bernoulli(0.5);
        Case c{ftl::games::random_quantum_strategy(2, 2, mixed, rng),
               ftl::games::random_xor_game(2, 2, rng)};
        return c;
      },
      [](const Case& c) {
        const CorrelationBox box = CorrelationBox::from_strategy(c.strategy);
        const std::string violation = ftl::games::box_violation(box);
        if (!violation.empty()) {
          return CaseResult::fail("Born-rule box invalid: " + violation);
        }
        const std::string mismatch =
            ftl::games::box_strategy_mismatch(box, c.strategy);
        if (!mismatch.empty()) return CaseResult::fail(mismatch);
        const auto game = c.game.to_two_party_game();
        const double via_box = box.game_value(game);
        const double via_strategy = c.strategy.value(game);
        if (std::abs(via_box - via_strategy) > 1e-9) {
          return CaseResult::fail("game value: box " + std::to_string(via_box) +
                                  " vs strategy " +
                                  std::to_string(via_strategy));
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

// Alice's marginal must not depend on Bob's input (and vice versa) for any
// random strategy — the no-signaling law the paper's §2 "respecting
// causality" clause requires of every physical source.
TEST(PropCrosscheck, RandomStrategiesAreNoSignaling) {
  const auto r = for_all(
      suite("strategies-no-signaling", 120),
      [](Rng& rng) {
        const bool mixed = rng.bernoulli(0.5);
        return ftl::games::random_quantum_strategy(2, 2, mixed, rng);
      },
      [](const QuantumStrategy& s) {
        for (std::size_t x = 0; x < 2; ++x) {
          for (int a = 0; a < 2; ++a) {
            const double m0 = s.alice_marginal(x, 0, a);
            const double m1 = s.alice_marginal(x, 1, a);
            if (std::abs(m0 - m1) > 1e-9) {
              return CaseResult::fail("Alice's marginal depends on y by " +
                                      std::to_string(std::abs(m0 - m1)));
            }
          }
        }
        for (std::size_t y = 0; y < 2; ++y) {
          for (int b = 0; b < 2; ++b) {
            const double m0 = s.bob_marginal(0, y, b);
            const double m1 = s.bob_marginal(1, y, b);
            if (std::abs(m0 - m1) > 1e-9) {
              return CaseResult::fail("Bob's marginal depends on x by " +
                                      std::to_string(std::abs(m0 - m1)));
            }
          }
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

// --- see-saw lower bound vs Tsirelson SDP -----------------------------------

TEST(PropCrosscheck, SeesawNeverExceedsTsirelsonSdp) {
  struct Case {
    XorGame game;
    std::uint64_t solver_seed;
  };
  const auto r = for_all(
      suite("seesaw-vs-sdp", 100),
      [](Rng& rng) {
        Case c{ftl::games::random_xor_game(2, 2, rng), rng.next_u64()};
        return c;
      },
      [](const Case& c) {
        ftl::sdp::GramOptions sdp_opts;
        sdp_opts.restarts = 3;
        sdp_opts.seed = c.solver_seed;
        const double sdp_value =
            (1.0 + c.game.quantum_bias(sdp_opts).bias) / 2.0;

        ftl::games::SeesawOptions ss_opts;
        ss_opts.restarts = 2;
        ss_opts.max_rounds = 40;
        ss_opts.seed = c.solver_seed + 1;
        const auto seesaw =
            ftl::games::seesaw_optimize(c.game.to_two_party_game(), ss_opts);

        if (seesaw.value > sdp_value + 1e-4) {
          return CaseResult::fail(
              "see-saw 'lower bound' " + std::to_string(seesaw.value) +
              " exceeds SDP optimum " + std::to_string(sdp_value));
        }
        if (c.game.classical_value() > sdp_value + 1e-4) {
          return CaseResult::fail("classical value exceeds quantum value");
        }
        return CaseResult::pass();
      });
  ASSERT_TRUE(r.ok) << r.message;
}

}  // namespace
