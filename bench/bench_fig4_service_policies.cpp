// §4.1 footnote 2: "The observed advantage is robust to other server
// execution strategies." We re-run the Figure-4 comparison under all three
// service policies and report the quantum/classical queue-length ratio at
// loads around the knee. Expected: ratio < 1 everywhere.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "lb/sharded_simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 99;  // override with --seed

lb::ShardedLbResult run_once(std::size_t servers, lb::ServicePolicy policy,
                             bool quantum) {
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = servers;
  cfg.policy = policy;
  cfg.warmup_steps = 800;
  cfg.measure_steps = 3000;
  cfg.seed = g_seed;
  cfg.source = quantum ? "quantum-chsh" : "random";
  return lb::run_sharded_lb_sim(cfg);
}

void BM_Policy(benchmark::State& state, lb::ServicePolicy policy) {
  const std::size_t servers = static_cast<std::size_t>(state.range(0));
  double ratio = 0.0;
  lb::ShardedLbResult rq{};
  lb::ShardedLbResult rc{};
  for (auto _ : state) {
    rq = run_once(servers, policy, true);
    rc = run_once(servers, policy, false);
    ratio = rq.mean_queue_length / std::max(rc.mean_queue_length, 1e-9);
  }
  state.counters["load"] = 100.0 / static_cast<double>(servers);
  state.counters["queue_quantum"] = rq.mean_queue_length;
  state.counters["queue_classical"] = rc.mean_queue_length;
  state.counters["q_over_c"] = ratio;
}

BENCHMARK_CAPTURE(BM_Policy, paper_c_first, lb::ServicePolicy::kPaperCFirst)
    ->Arg(100)->Arg(86)->Arg(76)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Policy, fifo_pair, lb::ServicePolicy::kFifoPair)
    ->Arg(100)->Arg(86)->Arg(76)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_Policy, e_first, lb::ServicePolicy::kEFirst)
    ->Arg(100)->Arg(86)->Arg(76)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz / --profile-format (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_fig4_service_policies", obs_opts);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::cout << "\nFootnote-2 robustness: quantum vs classical mean queue "
               "length under each service policy:\n";
  util::Table t({"policy", "load", "classical", "quantum", "quantum/classical"});
  for (auto policy : {lb::ServicePolicy::kPaperCFirst,
                      lb::ServicePolicy::kFifoPair,
                      lb::ServicePolicy::kEFirst}) {
    for (std::size_t servers : {100u, 86u, 76u}) {
      const auto rq = run_once(servers, policy, true);
      const auto rc = run_once(servers, policy, false);
      t.add_row({std::string(lb::to_string(policy)),
                 100.0 / static_cast<double>(servers), rc.mean_queue_length,
                 rq.mean_queue_length,
                 rq.mean_queue_length / std::max(rc.mean_queue_length, 1e-9)});
    }
  }
  t.print(std::cout);
  return 0;
}
