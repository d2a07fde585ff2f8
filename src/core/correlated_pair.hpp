// CorrelatedPair: the paper's primitive, packaged (§1, §5).
//
// Two endpoints that must repeatedly pick one of two alternatives, each
// knowing only its own input bit, with the *joint* guarantee of the flipped
// CHSH game: both inputs 1 => same choice, otherwise => different choices,
// satisfied with probability ~0.854 (quantum), 0.75 (classical), or 1.0
// (omniscient testbed cheat).
//
// The quantum backend is honest-by-construction: each endpoint's decide()
// performs a projective measurement on its own qubit of a shared two-qubit
// state; the first caller's outcome distribution provably cannot depend on
// the other endpoint's input (no-signaling), and call order does not change
// the joint distribution. Pair supply can optionally be rationed through a
// qnet::QnetConfig, served by a one-source qnet::LiveBroker pool — rounds
// without a live pair fall back to the best classical strategy, and a
// consumed pair's visibility is degraded by its storage age.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "games/chsh.hpp"
#include "qcore/density.hpp"
#include "qnet/config.hpp"
#include "qnet/live_broker.hpp"
#include "util/rng.hpp"

namespace ftl::core {

enum class Backend : std::uint8_t {
  /// Independent coins — no coordination at all.
  kIndependent,
  /// Best classical strategy with shared randomness (win prob 3/4).
  kClassicalShared,
  /// Simulated entangled pairs (win prob (1 + v/sqrt2)/2).
  kQuantum,
  /// Sees both inputs; only valid in testbeds (§5's "cheat").
  kOmniscient,
};

[[nodiscard]] const char* to_string(Backend b);

struct PairConfig {
  Backend backend = Backend::kQuantum;
  /// Visibility of fresh pairs for the quantum backend. This is the single
  /// visibility setting: it overrides `supply->source_visibility`.
  double visibility = 1.0;
  /// If set, pair availability and storage age are modelled: each round
  /// consumes the freshest live pair of a one-source qnet::LiveBroker
  /// (Poisson supply, lossy fiber, bounded decohering memory) if there is
  /// one; otherwise the round falls back to kClassicalShared.
  std::optional<qnet::QnetConfig> supply;
  /// Mean rounds per second, used only with `supply` to convert rounds to
  /// physical time.
  double round_rate_hz = 1.0e4;
  /// Probability a quantum measurement attempt yields an outcome. A failed
  /// endpoint silently uses its classical shared bit — and its partner
  /// cannot tell, so one-sided failures win only 50% (see qnet/detector).
  double detector_efficiency = 1.0;
  std::uint64_t seed = 42;
};

struct PairStats {
  std::uint64_t rounds = 0;
  std::uint64_t quantum_rounds = 0;
  std::uint64_t fallback_rounds = 0;
  std::uint64_t wins = 0;  ///< rounds satisfying the co-location condition
};

class CorrelatedPair {
 public:
  explicit CorrelatedPair(const PairConfig& cfg);

  /// Endpoint `endpoint` (0 or 1) submits its input bit for the current
  /// round and gets its decision immediately. Each endpoint must call
  /// exactly once per round; the round completes when both have called.
  int decide(int endpoint, int input_bit);

  [[nodiscard]] const PairStats& stats() const { return stats_; }

  /// Expected win probability of the configured backend on fresh pairs.
  [[nodiscard]] double expected_win_probability() const;

 private:
  void begin_round();
  void finish_round();

  PairConfig cfg_;
  util::Rng rng_;
  PairStats stats_;

  // Current round state.
  bool decided_[2] = {false, false};
  int inputs_[2] = {0, 0};
  int outputs_[2] = {0, 0};
  bool round_is_quantum_ = false;
  std::optional<qcore::Density> round_state_;
  int shared_bit_ = 0;  // classical fallback shared randomness
  double sim_time_s_ = 0.0;
  /// Pair pool of the `supply` model, stepped to sim_time_s_ each round.
  /// Null without a supply, and when `visibility` leaves no useful storage
  /// window (no pair would ever beat the fallback, so every round falls
  /// back).
  std::unique_ptr<qnet::LiveBroker> broker_;
};

}  // namespace ftl::core
