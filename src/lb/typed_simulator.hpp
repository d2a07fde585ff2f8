// Typed cluster simulation: load balancing with k task types under an
// affinity graph (§4.1's XOR-game generalisation and the "multiple
// subtypes of type-C" caveat).
//
// Service model: a server can run two queued tasks in the same timestep iff
// their types are Colocate-affine (e.g. two tasks of the same cache-sharing
// subtype); everything else runs alone. Exclusive tasks suffer
// *interference*: while a task shares the queue with an Exclusive-affine
// neighbour, its service completes only with probability
// (1 - interference) per step (the noisy-neighbour cost that makes
// separation worth coordinating for). An affinity graph with two mutually
// exclusive C-subtypes also defeats the dedicated-servers classical
// baseline — mixing the subtypes in one pool wastes pairing capacity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "correlate/typed_source.hpp"
#include "games/affinity.hpp"
#include "lb/sharded_simulator.hpp"

namespace ftl::lb {

/// How a typed server spends one timestep.
enum class TypedServicePolicy : std::uint8_t {
  /// FIFO with pairing: serve the first Colocate-affine pair in the scan
  /// window, else the head alone.
  kPairsFirstFifo = 0,
  /// Generalisation of the paper's Figure-4 policy: tasks of self-pairable
  /// (self-Colocate) types have strict priority — serve the first
  /// colocatable pair, else the first self-pairable task alone; tasks of
  /// self-Exclusive types run only when no self-pairable task waits. For a
  /// binary {C, E} graph this is exactly ServicePolicy::kPaperCFirst.
  kPriorityPairs = 1,
};

struct TypedLbConfig {
  std::size_t num_balancers = 100;
  std::size_t num_servers = 64;
  /// Arrival probability per type (must sum to 1; size = num task types).
  std::vector<double> type_probs;
  long warmup_steps = 800;
  long measure_steps = 3000;
  /// Probability that a conflicted head-of-line task fails to complete in a
  /// step (0 = conflicts are free, as in the plain pairing model).
  double interference = 0.5;
  TypedServicePolicy policy = TypedServicePolicy::kPriorityPairs;
  /// If > 0, the type mix drifts: every `mix_drift_period` steps the
  /// arrival probabilities are resampled (normalised exponentials, i.e.
  /// Dirichlet(1)). Static dedicated pools cannot follow the drift; typed
  /// paired strategies and random assignment are mix-oblivious.
  long mix_drift_period = 0;
  std::uint64_t seed = 1;
};

/// Routing strategies for typed workloads.
class TypedLbStrategy {
 public:
  virtual ~TypedLbStrategy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// `types[b]` is balancer b's task type this step; fill `out[b]`.
  virtual void assign(const std::vector<std::size_t>& types,
                      std::vector<std::size_t>& out, std::size_t num_servers,
                      util::Rng& rng) = 0;
};

/// Uniform random server per task.
class TypedRandomStrategy final : public TypedLbStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "typed-random"; }
  void assign(const std::vector<std::size_t>& types,
              std::vector<std::size_t>& out, std::size_t num_servers,
              util::Rng& rng) override;
};

/// The dedicated-pool classical baseline: each type group gets a server
/// pool; tasks go to a random server of their group's pool. With
/// `group_of[type]` collapsing several types into one pool this reproduces
/// the §4.1 caveat exactly (C-subtypes forced to share a pool).
class TypedDedicatedStrategy final : public TypedLbStrategy {
 public:
  /// `group_of[t]` in [0, num_groups); pools split servers evenly.
  TypedDedicatedStrategy(std::vector<std::size_t> group_of,
                         std::size_t num_groups);

  [[nodiscard]] std::string name() const override { return "typed-dedicated"; }
  void assign(const std::vector<std::size_t>& types,
              std::vector<std::size_t>& out, std::size_t num_servers,
              util::Rng& rng) override;

 private:
  std::vector<std::size_t> group_of_;
  std::size_t num_groups_;
};

/// Paired balancers playing the affinity XOR game through a typed source.
class TypedPairedStrategy final : public TypedLbStrategy {
 public:
  explicit TypedPairedStrategy(
      std::unique_ptr<correlate::TypedDecisionSource> source);

  [[nodiscard]] std::string name() const override;
  void assign(const std::vector<std::size_t>& types,
              std::vector<std::size_t>& out, std::size_t num_servers,
              util::Rng& rng) override;

 private:
  std::unique_ptr<correlate::TypedDecisionSource> source_;
};

/// Runs the typed simulation; pairing eligibility comes from the graph.
/// One unsharded cluster: the result has a single per_shard entry and no
/// CHSH rounds or per-type (C/E) delays.
[[nodiscard]] ShardedLbResult run_typed_lb_sim(
    const TypedLbConfig& cfg, const games::AffinityGraph& graph,
    TypedLbStrategy& strategy);

}  // namespace ftl::lb
