// §4.1 "Caveats": classical and hybrid alternatives to the quantum scheme.
//
//  (a) Dedicated servers: a fixed fraction of servers takes only type-C
//      tasks. Works when the split matches the workload, but §4.1 notes it
//      breaks down with multiple C subtypes — modelled here by requiring
//      pairing within a subtype (mixed subtypes do not share a slot).
//  (b) Local batching: with several requests per balancer per RTT, a
//      balancer can co-locate its own C tasks without any coordination.
//  (c) Classical mixtures: the best trade-off any shared-randomness scheme
//      can make between co-locating C-C and separating the rest.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "correlate/decision_source.hpp"
#include "lb/sharded_simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 4242;  // override with --seed

double run_queue(const lb::StrategyFactory& strategy, std::size_t servers,
                 std::size_t batch = 1) {
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.batch_size = batch;
  cfg.warmup_steps = 800;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  return lb::run_sharded_lb_sim(cfg, nullptr, strategy).mean_queue_length;
}

void BM_DedicatedFractionSweep(benchmark::State& state) {
  const double frac = static_cast<double>(state.range(0)) / 10.0;
  double q = 0.0;
  for (auto _ : state) {
    q = run_queue(lb::strategy_factory<lb::DedicatedServersStrategy>(frac), 86);
  }
  state.counters["c_fraction"] = frac;
  state.counters["avg_queue_len"] = q;
}
BENCHMARK(BM_DedicatedFractionSweep)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_MixedClassicalSweep(benchmark::State& state) {
  const double p_same = static_cast<double>(state.range(0)) / 10.0;
  double q = 0.0;
  for (auto _ : state) {
    q = run_queue(lb::paired_factory<correlate::MixedClassicalSource>(p_same),
                  86);
  }
  state.counters["p_same"] = p_same;
  state.counters["avg_queue_len"] = q;
}
BENCHMARK(BM_MixedClassicalSweep)
    ->DenseRange(0, 10, 2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_LocalBatching(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  double q = 0.0;
  for (auto _ : state) {
    // Scale servers so the load stays ~1.16 regardless of batch size.
    q = run_queue(lb::strategy_factory<lb::LocalBatchingStrategy>(),
                  86 * batch, batch);
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["avg_queue_len"] = q;
}
BENCHMARK(BM_LocalBatching)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz / --profile-format (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_caveats_ablation", obs_opts);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::size_t servers = 86;  // load ~1.16, the knee region

  std::cout << "\nCaveats ablation at load " << 100.0 / servers
            << " (mean queue length; lower is better):\n";
  util::Table t({"strategy", "avg_queue_len"});
  t.add_row({std::string("classical random"),
             run_queue(lb::strategy_factory<lb::RandomStrategy>(), servers)});
  t.add_row({std::string("round robin"),
             run_queue(lb::strategy_factory<lb::RoundRobinStrategy>(),
                       servers)});
  t.add_row({std::string("power-of-two (needs queue info)"),
             run_queue(lb::strategy_factory<lb::PowerOfTwoStrategy>(),
                       servers)});
  for (double f : {0.3, 0.4, 0.5, 0.6}) {
    t.add_row({"dedicated servers f=" + std::to_string(f).substr(0, 3),
               run_queue(lb::strategy_factory<lb::DedicatedServersStrategy>(f),
                         servers)});
  }
  for (double p : {0.0, 0.25, 0.5}) {
    t.add_row({"classical mixture p_same=" + std::to_string(p).substr(0, 4),
               run_queue(lb::paired_factory<correlate::MixedClassicalSource>(p),
                         servers)});
  }
  t.add_row({std::string("quantum CHSH"),
             run_queue(lb::paired_factory<correlate::ChshSource>(1.0),
                       servers)});
  t.add_row({std::string("omniscient (testbed cheat)"),
             run_queue(lb::paired_factory<correlate::OmniscientOracleSource>(),
                       servers)});
  t.print(std::cout);

  std::cout << "\nLocal batching (multiple requests per RTT shrink the "
               "quantum edge, as the caveat predicts):\n";
  util::Table bt({"batch size", "local batching", "quantum paired (batch 1 "
                  "equivalent load)"});
  for (std::size_t batch : {1u, 2u, 4u, 8u}) {
    bt.add_row({static_cast<long long>(batch),
                run_queue(lb::strategy_factory<lb::LocalBatchingStrategy>(),
                          servers * batch, batch),
                run_queue(lb::paired_factory<correlate::ChshSource>(1.0),
                          servers)});
  }
  bt.print(std::cout);
  return 0;
}
