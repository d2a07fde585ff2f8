#include "lb/sharded_simulator.hpp"

#include <algorithm>
#include <memory>

#include "lb/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace ftl::lb {

namespace {

/// counts[v] += 1, growing `counts` on demand.
inline void tally(std::vector<std::uint64_t>& counts, std::size_t v) {
  if (v >= counts.size()) counts.resize(v + 1, 0);
  ++counts[v];
}

/// Everything one shard produces. Queue lengths and delays are integers, so
/// the shard keeps exact counts per value (a Welford update per server per
/// step would put a division on the hot path); the means and the p95 come
/// out of the merged counts.
struct ShardOutput {
  ShardedCounters counters;
  /// depth_counts[q]: measured server-steps that ended with q queued.
  std::vector<std::uint64_t> depth_counts;
  /// delay_counts[d]: measured requests served d steps after arriving.
  std::vector<std::uint64_t> delay_counts;
  unsigned long long delay_sum_c = 0;
  long long served_c = 0;
  /// Every round the strategy played, warm-up included (the
  /// lb.chsh.rounds_* metrics).
  ChshTally rounds;
};

/// One shard's full step loop. The RNG consumption order is part of the
/// engine's contract (lb_golden_test freezes the outputs it implies):
/// master split(1)/(2)/(3) for arrivals/strategy/burst; per step one burst
/// switch draw (if bursty), then per balancer one activity draw (if the
/// phase's activity is below 1) and one type draw per request, then the
/// strategy's draws.
///
/// The output is a local, returned at the end: shards that run at the same
/// time on neighbouring slots of the output vector would otherwise share
/// cache lines in the hot loop.
ShardOutput run_shard(const ShardedLbConfig& cfg, std::size_t shard,
                      LbStrategy& strategy) {
  ShardOutput out;
  const std::size_t n_b =
      sim::shard_range(cfg.num_balancers, cfg.num_shards, shard).size();
  const std::size_t n_s =
      sim::shard_range(cfg.num_servers, cfg.num_shards, shard).size();
  const std::size_t batch = cfg.batch_size;

  util::Rng rng(sim::shard_seed(cfg.seed, shard));
  util::Rng arrivals_rng = rng.split(1);
  util::Rng strategy_rng = rng.split(2);
  util::Rng burst_rng = rng.split(3);

  ServerArray servers(n_s);
  std::vector<TaskType> types(n_b * batch);
  std::vector<std::uint8_t> active(n_b, 1);
  std::vector<std::uint32_t> targets(n_b * batch);
  const Arrivals arrivals{types, active, batch};
  const ClusterView view{servers};
  bool burst_high = true;
  ChshTally at_warmup;

  const long total_steps = cfg.warmup_steps + cfg.measure_steps;
  for (long step = 0; step < total_steps; ++step) {
    const bool measuring = step >= cfg.warmup_steps;
    if (step == cfg.warmup_steps) at_warmup = strategy.rounds();

    // 1. Arrivals: each balancer draws its batch of request types. Under
    // the burst model a balancer may be inactive this step.
    double activity = 1.0;
    if (cfg.burst) {
      if (burst_rng.bernoulli(1.0 / cfg.burst->mean_dwell_steps)) {
        burst_high = !burst_high;
      }
      activity = burst_high ? cfg.burst->high_activity
                            : cfg.burst->low_activity;
    }
    for (std::size_t b = 0; b < n_b; ++b) {
      const bool on = activity >= 1.0 || arrivals_rng.bernoulli(activity);
      active[b] = on ? 1 : 0;
      if (!on) continue;
      for (std::size_t i = b * batch; i < (b + 1) * batch; ++i) {
        types[i] = arrivals_rng.bernoulli(cfg.p_colocate) ? TaskType::kC
                                                          : TaskType::kE;
      }
    }

    // 2. Routing: every decision is made before any request lands
    // (simultaneous, communication-free balancers).
    strategy.assign(arrivals, targets, view, strategy_rng);
    for (std::size_t b = 0; b < n_b; ++b) {
      if (active[b] == 0) continue;
      for (std::size_t i = b * batch; i < (b + 1) * batch; ++i) {
        servers.enqueue(targets[i], types[i], static_cast<std::uint32_t>(b),
                        static_cast<std::int32_t>(step));
      }
      if (measuring) out.counters.arrived += static_cast<long long>(batch);
    }

    // 3. Service.
    Request served[2];
    for (std::size_t s = 0; s < n_s; ++s) {
      const std::size_t n = servers.step(s, cfg.policy, served);
      if (!measuring) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (served[i].arrival_step < cfg.warmup_steps) continue;
        ++out.counters.served;
        const auto d = static_cast<std::size_t>(step - served[i].arrival_step);
        tally(out.delay_counts, d);
        if (served[i].type == TaskType::kC) {
          out.delay_sum_c += d;
          ++out.served_c;
        }
      }
      tally(out.depth_counts, servers.queue_length(s));
    }
  }

  for (std::size_t s = 0; s < n_s; ++s) {
    servers.for_each_queued(s, [&](TaskType, const ServerArray::Slot& slot) {
      if (slot.arrival_step >= cfg.warmup_steps) ++out.counters.still_queued;
    });
  }
  out.rounds = strategy.rounds();
  out.counters.rounds_won = out.rounds.won - at_warmup.won;
  out.counters.rounds_lost = out.rounds.lost - at_warmup.lost;
  return out;
}

/// into[v] += from[v] for every v.
void add_counts(std::vector<std::uint64_t>& into,
                const std::vector<std::uint64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t v = 0; v < from.size(); ++v) into[v] += from[v];
}

/// Sum of v * counts[v].
unsigned long long weighted_sum(const std::vector<std::uint64_t>& counts) {
  unsigned long long sum = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) sum += v * counts[v];
  return sum;
}

double ratio(unsigned long long num, long long den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Publishes one run's merged totals (the only registry work of a run).
void publish(const ShardedLbConfig& cfg, const std::string& strategy,
             const ShardedCounters& counters, const ChshTally& rounds,
             const std::vector<std::uint64_t>& depth_counts,
             const std::vector<std::uint64_t>& delay_counts) {
  obs::Registry& reg = obs::registry();
  const obs::Labels label{{"strategy", strategy}};
  reg.counter("lb.requests.arrived", label)
      .inc(static_cast<std::uint64_t>(counters.arrived));
  reg.counter("lb.requests.served", label)
      .inc(static_cast<std::uint64_t>(counters.served));
  reg.counter("lb.steps", label)
      .inc(static_cast<std::uint64_t>(cfg.measure_steps));
  if (rounds.won + rounds.lost > 0) {
    reg.counter("lb.chsh.rounds_won", label)
        .inc(static_cast<std::uint64_t>(rounds.won));
    reg.counter("lb.chsh.rounds_lost", label)
        .inc(static_cast<std::uint64_t>(rounds.lost));
  }
  obs::Histogram& depth =
      reg.histogram("lb.queue_depth", 0.0, 256.0, 64, label);
  for (std::size_t q = 0; q < depth_counts.size(); ++q) {
    if (depth_counts[q] > 0) {
      depth.observe_n(static_cast<double>(q), depth_counts[q]);
    }
  }
  obs::Histogram& delay =
      reg.histogram("lb.delay_steps", 0.0, 512.0, 64, label);
  for (std::size_t d = 0; d < delay_counts.size(); ++d) {
    if (delay_counts[d] > 0) {
      delay.observe_n(static_cast<double>(d), delay_counts[d]);
    }
  }
  if (!depth_counts.empty()) {
    reg.gauge("lb.queue_depth.high_water", label)
        .update_max(static_cast<double>(depth_counts.size() - 1));
  }
}

}  // namespace

ShardedLbResult run_sharded_lb_sim(const ShardedLbConfig& cfg,
                                   sim::ShardPool* pool,
                                   const StrategyFactory& make_strategy) {
  FTL_ASSERT(cfg.num_shards >= 1);
  FTL_ASSERT(cfg.p_colocate >= 0.0 && cfg.p_colocate <= 1.0);
  FTL_ASSERT(cfg.batch_size >= 1);
  FTL_ASSERT(cfg.warmup_steps >= 0 && cfg.measure_steps > 0);
  for (std::size_t shard = 0; shard < cfg.num_shards; ++shard) {
    const auto b = sim::shard_range(cfg.num_balancers, cfg.num_shards, shard);
    const auto s = sim::shard_range(cfg.num_servers, cfg.num_shards, shard);
    FTL_ASSERT_MSG(b.size() >= 1 && s.size() >= 2,
                   "every shard needs >= 1 balancer and >= 2 servers");
  }

  const obs::ScopedSpan span("lb.run_sharded_lb_sim", "lb");

  // Strategies are built up front in shard order, so a factory with side
  // effects stays deterministic.
  std::vector<std::unique_ptr<LbStrategy>> strategies(cfg.num_shards);
  for (auto& s : strategies) {
    s = make_strategy();
    FTL_ASSERT_MSG(s != nullptr, "strategy factory returned no strategy");
  }

  std::vector<ShardOutput> outputs(cfg.num_shards);
  const auto job = [&](std::size_t shard) {
    outputs[shard] = run_shard(cfg, shard, *strategies[shard]);
  };
  if (pool != nullptr) {
    pool->parallel_shards(cfg.num_shards, job);
  } else {
    sim::ShardPool inline_pool(1);
    inline_pool.parallel_shards(cfg.num_shards, job);
  }

  // Shard-ordered merge of integers only, so the totals — and everything
  // derived from them — do not depend on how the pool scheduled the shards.
  ShardedLbResult out;
  out.per_shard.reserve(cfg.num_shards);
  std::vector<std::uint64_t> depth_counts;
  std::vector<std::uint64_t> delay_counts;
  unsigned long long delay_sum_c = 0;
  long long served_c = 0;
  ChshTally rounds;
  for (const ShardOutput& o : outputs) {
    out.per_shard.push_back(o.counters);
    out.counters += o.counters;
    add_counts(depth_counts, o.depth_counts);
    add_counts(delay_counts, o.delay_counts);
    delay_sum_c += o.delay_sum_c;
    served_c += o.served_c;
    rounds.won += o.rounds.won;
    rounds.lost += o.rounds.lost;
  }
  const long long served = out.counters.served;
  const unsigned long long delay_sum = weighted_sum(delay_counts);
  const auto server_steps = static_cast<long long>(cfg.measure_steps) *
                            static_cast<long long>(cfg.num_servers);
  out.mean_queue_length = ratio(weighted_sum(depth_counts), server_steps);
  out.mean_delay = ratio(delay_sum, served);
  out.mean_delay_c = ratio(delay_sum_c, served_c);
  out.mean_delay_e = ratio(delay_sum - delay_sum_c, served - served_c);
  out.p95_delay =
      served == 0 ? 0.0 : util::percentile_of_counts(delay_counts, 0.95);
  out.throughput = ratio(static_cast<unsigned long long>(served), server_steps);

  publish(cfg, strategies.front()->name(), out.counters, rounds, depth_counts,
          delay_counts);
  return out;
}

ShardedLbResult run_sharded_lb_sim(const ShardedLbConfig& cfg,
                                   sim::ShardPool* pool) {
  return run_sharded_lb_sim(cfg, pool,
                            source_factory(cfg.source, cfg.visibility));
}

}  // namespace ftl::lb
