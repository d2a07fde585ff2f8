// Substrate microbenchmarks: raw performance of the quantum simulator, the
// SDP solver, and the cluster simulator. Not a paper figure — these guard
// against performance regressions in the pieces every experiment uses.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "correlate/decision_source.hpp"
#include "games/xor_game.hpp"
#include "lb/sharded_simulator.hpp"
#include "qcore/density.hpp"
#include "qcore/eigen.hpp"
#include "qcore/gates.hpp"
#include "qcore/state.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftl;

std::uint64_t g_seed = 1;  // base for all microbench streams; --seed overrides

void BM_StateVecApply1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  qcore::StateVec psi(n);
  const auto h = qcore::gates::H();
  std::size_t q = 0;
  for (auto _ : state) {
    psi.apply1(h, q);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVecApply1)->Arg(4)->Arg(10)->Arg(16);

void BM_StateVecMeasure(benchmark::State& state) {
  util::Rng rng(g_seed);
  const auto basis = qcore::gates::real_basis(0.3);
  for (auto _ : state) {
    qcore::StateVec psi = qcore::StateVec::ghz(8);
    benchmark::DoNotOptimize(psi.measure(3, basis, rng));
  }
}
BENCHMARK(BM_StateVecMeasure);

void BM_DensityChannel(benchmark::State& state) {
  const auto ch = qcore::depolarizing(0.1);
  for (auto _ : state) {
    qcore::Density rho = qcore::Density::werner(0.9);
    rho.apply_channel(ch, 0);
    benchmark::DoNotOptimize(rho.purity());
  }
}
BENCHMARK(BM_DensityChannel);

void BM_EighRandomHermitian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(g_seed + 1);
  qcore::CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, i) = qcore::Cx{rng.normal(), 0.0};
    for (std::size_t j = i + 1; j < n; ++j) {
      const qcore::Cx v{rng.normal(), rng.normal()};
      a.at(i, j) = v;
      a.at(j, i) = std::conj(v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(qcore::eigh(a));
  }
}
BENCHMARK(BM_EighRandomHermitian)->Arg(4)->Arg(8)->Arg(16);

void BM_XorQuantumBias5x5(benchmark::State& state) {
  util::Rng rng(g_seed + 2);
  const auto graph = games::AffinityGraph::random(5, 0.5, rng);
  const games::XorGame game = games::XorGame::from_affinity(graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.quantum_bias());
  }
}
BENCHMARK(BM_XorQuantumBias5x5)->Unit(benchmark::kMillisecond);

void BM_XorClassicalBias(benchmark::State& state) {
  util::Rng rng(g_seed + 3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto graph = games::AffinityGraph::random(n, 0.5, rng);
  const games::XorGame game = games::XorGame::from_affinity(graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(game.classical_bias());
  }
}
BENCHMARK(BM_XorClassicalBias)->Arg(5)->Arg(10)->Arg(14);

void BM_ChshSourceDecide(benchmark::State& state) {
  correlate::ChshSource src(0.95);
  util::Rng rng(g_seed + 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.decide(1, 0, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChshSourceDecide);

void BM_LbSimStep(benchmark::State& state) {
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = 100;
  cfg.num_servers = 86;
  cfg.warmup_steps = 0;
  cfg.measure_steps = 200;
  cfg.seed = g_seed + 5;
  cfg.source = "quantum-chsh";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::run_sharded_lb_sim(cfg));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_LbSimStep)->Unit(benchmark::kMillisecond);

}  // namespace

// Shared obs flags (see bench_common.hpp): --seed, --metrics-out,
// --metrics-every, --prom-out, --trace-out, and --profile-out /
// --profile-hz / --profile-format (in-process sampling CPU profile;
// folded output pipes straight into flamegraph.pl).
int main(int argc, char** argv) {
  const ftl::bench::Options obs_opts =
      ftl::bench::parse_args(argc, argv, g_seed);
  g_seed = obs_opts.seed;
  const ftl::bench::ObsSession obs_session("bench_substrate_perf", obs_opts);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
