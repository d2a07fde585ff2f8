// Load-balancer assignment strategies (§4.1).
//
// Each timestep every balancer gets a batch of requests (batch size 1 in
// the paper's simulation) and must pick a server for each. Honest
// distributed strategies use only the balancer's local inputs plus
// pre-shared randomness or entanglement — never another balancer's input.
// The ClusterView argument exposes the queues for the informed baselines
// (power-of-two choices); honest strategies ignore it.
//
// The engine (lb/sharded_simulator.hpp) builds one strategy per shard from
// a StrategyFactory and calls assign once per shard-step on flat spans.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "correlate/decision_source.hpp"
#include "lb/server.hpp"
#include "lb/types.hpp"
#include "util/rng.hpp"

namespace ftl::lb {

/// The queues at the start of the step. assign runs before any of the
/// step's requests land, so they are stale by then — as in any real system.
struct ClusterView {
  const ServerArray& servers;

  [[nodiscard]] std::size_t num_servers() const { return servers.size(); }
};

/// One step's requests, flat: balancer b's requests are
/// types[b * batch, (b + 1) * batch), present only when active[b] is
/// nonzero (a burst lull leaves a balancer without requests).
struct Arrivals {
  std::span<const TaskType> types;
  std::span<const std::uint8_t> active;
  std::size_t batch = 1;

  [[nodiscard]] std::size_t balancers() const { return active.size(); }
};

/// Flipped-CHSH rounds played so far.
struct ChshTally {
  long long won = 0;
  long long lost = 0;
};

class LbStrategy {
 public:
  virtual ~LbStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Writes the chosen server of balancer b's k-th request to
  /// out[b * batch + k]; slots of inactive balancers are left as they are.
  virtual void assign(const Arrivals& in, std::span<std::uint32_t> out,
                      const ClusterView& view, util::Rng& rng) = 0;

  /// Rounds of the CHSH game this strategy has played (none unless paired).
  [[nodiscard]] virtual ChshTally rounds() const { return {}; }
};

/// Builds one strategy; the engine calls it once per shard, in shard order.
using StrategyFactory = std::function<std::unique_ptr<LbStrategy>()>;

/// Uniformly random server per request (the paper's classical baseline).
class RandomStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;
};

/// Independent per-balancer round robin from a random offset.
class RoundRobinStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;

 private:
  std::vector<std::size_t> next_;
};

/// Power of two choices [44]: probe two random servers, pick the shorter
/// queue. Uses the (start-of-step) queue lengths in ClusterView.
class PowerOfTwoStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "po2"; }
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;
};

/// The paper's quantum scheme (and its classical/omniscient ablations):
/// balancers are paired; each pair draws two distinct candidate servers per
/// step from shared randomness and plays the flipped CHSH game through a
/// correlate::PairedDecisionSource — both type-C => same server, otherwise
/// different servers (with the source's win probability).
/// Requires an even number of balancers and batch size 1.
class PairedStrategy final : public LbStrategy {
 public:
  explicit PairedStrategy(std::unique_ptr<correlate::PairedDecisionSource> src);

  [[nodiscard]] std::string name() const override;
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;
  [[nodiscard]] ChshTally rounds() const override { return rounds_; }

 private:
  std::unique_ptr<correlate::PairedDecisionSource> source_;
  ChshTally rounds_;
};

/// §4.1 caveat baseline: a fixed fraction of servers is dedicated to C
/// tasks; C goes to a random dedicated server, E to a random other server.
class DedicatedServersStrategy final : public LbStrategy {
 public:
  explicit DedicatedServersStrategy(double c_fraction);

  [[nodiscard]] std::string name() const override;
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;

 private:
  double c_fraction_;
};

/// §4.1 caveat baseline for multi-request batches: each balancer sends all
/// of this step's C tasks to one random server and scatters E tasks.
class LocalBatchingStrategy final : public LbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "local-batching"; }
  void assign(const Arrivals& in, std::span<std::uint32_t> out,
              const ClusterView& view, util::Rng& rng) override;
};

/// Factory building `Strategy(args...)`.
template <class Strategy, class... Args>
[[nodiscard]] StrategyFactory strategy_factory(Args... args) {
  return [=] { return std::make_unique<Strategy>(args...); };
}

/// Factory building a PairedStrategy over `Source(args...)`.
template <class Source, class... Args>
[[nodiscard]] StrategyFactory paired_factory(Args... args) {
  return [=] {
    return std::make_unique<PairedStrategy>(std::make_unique<Source>(args...));
  };
}

/// The factory behind ShardedLbConfig::source: "random" is RandomStrategy;
/// any other string is a correlate::make_source kind played by
/// PairedStrategy.
[[nodiscard]] StrategyFactory source_factory(const std::string& source,
                                             double visibility);

}  // namespace ftl::lb
