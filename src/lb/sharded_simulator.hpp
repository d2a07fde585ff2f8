// The §4.1 cluster simulation: N load balancers, M servers, discrete time —
// the one engine for the binary C/E model, from the paper's 100-balancer
// Figure 4 up to 10^5–10^6 servers.
//
// Each timestep every balancer receives a batch of requests (type C with
// probability p_colocate, else type E), the strategy routes them, and every
// server then runs one step of its service policy. Figure 4 reports the
// time-averaged queue length as a function of load N/M; the engine also
// records queueing delay (the caption's metric), per-type delays,
// throughput, and the counts for the conservation check.
//
// Sharding model. The cluster is cut into `num_shards` sub-clusters, each
// owning a contiguous slice of balancers and servers (sim::shard_range) and
// running the full synchronous step loop on its own state: its own
// lb::ServerArray, its own strategy (from the StrategyFactory, called once
// per shard in shard order), its own burst phase, and its own RNG streams
// seeded with sim::shard_seed(master, shard). Shards never read each
// other's state, so the run is deterministic in (seed, num_shards) no
// matter how the pool schedules them. Physically this matches the paper's
// setting: Fig-4 curves depend on the load N/M, not on N, and balancer
// pairs never coordinate across pairs — so a sharded cluster at the same
// per-shard load is statistically the same system (sharded_sim_test checks
// this). num_shards == 1 is the plain unsharded cluster; lb_golden_test
// freezes its outputs.
//
// Accounting. Queue lengths and delays are integers in this model, so every
// output comes from exact per-shard integer sums and per-value counts,
// merged in shard order after the pool barrier: bit-identical across runs
// and thread counts, with one float division (or one interpolation, for
// the p95) at the end. The merged totals are published once per run to the
// obs registry as lb.requests.*, lb.steps, lb.chsh.rounds_*, and the
// lb.queue_depth / lb.delay_steps histograms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lb/strategy.hpp"
#include "lb/types.hpp"
#include "sim/sharded.hpp"

namespace ftl::lb {

/// Optional two-state Markov-modulated arrival process. The chain sits in
/// a HIGH or LOW activity phase; each balancer independently receives its
/// batch with the phase's activity probability. With both activities at 1
/// this degenerates to the paper's deterministic one-request-per-step
/// model. Used by the caveats bench to test whether the Figure-4 advantage
/// survives bursty traffic.
struct BurstModel {
  double high_activity = 1.0;
  double low_activity = 0.3;
  /// Mean steps spent in each phase before switching.
  double mean_dwell_steps = 50.0;
};

struct ShardedLbConfig {
  /// Totals across all shards; each shard gets a contiguous slice. For the
  /// paired sources every shard needs an even balancer count and >= 2
  /// servers (keep num_balancers and num_servers divisible by num_shards
  /// for equal per-shard load).
  std::size_t num_balancers = 100;
  std::size_t num_servers = 50;
  /// P(request is type C).
  double p_colocate = 0.5;
  /// Requests per balancer per step (the paper uses 1; the local-batching
  /// caveat uses more).
  std::size_t batch_size = 1;
  /// If set, arrivals are Markov-modulated instead of deterministic; each
  /// shard runs its own chain.
  std::optional<BurstModel> burst;
  ServicePolicy policy = ServicePolicy::kPaperCFirst;
  /// Steps discarded before measurement starts.
  long warmup_steps = 1000;
  long measure_steps = 4000;
  std::uint64_t seed = 1;
  std::size_t num_shards = 1;
  /// The strategy run_sharded_lb_sim(cfg, pool) plays (source_factory):
  /// "random" routes every request to a uniform server (the classical
  /// baseline); any other value is a correlate::make_source kind
  /// ("quantum-chsh", "classical-chsh", "omniscient", "independent")
  /// played by balancer pairs over shared candidate servers.
  std::string source = "random";
  double visibility = 1.0;

  [[nodiscard]] double load() const {
    return static_cast<double>(num_balancers * batch_size) /
           static_cast<double>(num_servers);
  }
};

/// All-integer outputs: bit-identical across repeated runs with the same
/// (seed, num_shards), independent of thread count and scheduling. Each
/// counts the measured steps only.
struct ShardedCounters {
  long long arrived = 0;
  long long served = 0;
  long long still_queued = 0;
  long long rounds_won = 0;
  long long rounds_lost = 0;

  ShardedCounters& operator+=(const ShardedCounters& o) {
    arrived += o.arrived;
    served += o.served;
    still_queued += o.still_queued;
    rounds_won += o.rounds_won;
    rounds_lost += o.rounds_lost;
    return *this;
  }
  friend bool operator==(const ShardedCounters&,
                         const ShardedCounters&) = default;
};

struct ShardedLbResult {
  /// Shard-ordered sum of per_shard (the deterministic signature of a run).
  /// Conservation: arrived == served + still_queued.
  ShardedCounters counters;
  std::vector<ShardedCounters> per_shard;

  /// Mean queue length per server, time-averaged post-warmup (Fig 4 y-axis
  /// per the body text).
  double mean_queue_length = 0.0;
  /// Mean queueing delay (steps from arrival to service) of requests that
  /// arrived and were served during measurement (Fig 4 caption's metric),
  /// overall and per task type.
  double mean_delay = 0.0;
  double mean_delay_c = 0.0;
  double mean_delay_e = 0.0;
  /// Exact 95th-percentile delay (util::percentile's interpolation).
  double p95_delay = 0.0;
  /// Served requests per server per step.
  double throughput = 0.0;
};

/// Runs the simulation with one strategy per shard from `make_strategy`,
/// on `pool` (nullptr runs on a private single-thread inline pool — still
/// shard-partitioned, still deterministic).
[[nodiscard]] ShardedLbResult run_sharded_lb_sim(
    const ShardedLbConfig& cfg, sim::ShardPool* pool,
    const StrategyFactory& make_strategy);

/// The same, playing cfg.source (source_factory(cfg.source, cfg.visibility)).
[[nodiscard]] ShardedLbResult run_sharded_lb_sim(
    const ShardedLbConfig& cfg, sim::ShardPool* pool = nullptr);

}  // namespace ftl::lb
