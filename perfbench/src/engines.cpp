// fig4-sharded and fig3-scaled: the two simulation engines the paper's
// figures run on, driven in process.
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "checks.hpp"
#include "cpu_rotator.hpp"
#include "games/affinity.hpp"
#include "games/value_engine.hpp"
#include "lb/sharded_simulator.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// fig4-sharded: 1024 shards of 1024 servers (~10^6), load 0.95.
constexpr std::size_t kShards = 1024;
constexpr std::size_t kShardServers = 1024;
constexpr double kFig4Load = 0.95;
constexpr long kFig4Warmup = 8;
constexpr long kFig4Measure = 24;
constexpr int kSetupRepeats = 15;
/// Set-up runs on fixed inputs, the same for every seed.
constexpr std::uint64_t kSetupSeed = 0x5e7;
constexpr double kBiasTol = 1e-6;
/// Every Nth game's classical value is recomputed by exhaustive search.
constexpr std::size_t kExhaustiveEvery = 16;

ftl::lb::ShardedLbConfig fig4_config(std::uint64_t seed) {
  ftl::lb::ShardedLbConfig cfg;
  std::size_t balancers = static_cast<std::size_t>(
      static_cast<double>(kShardServers) * kFig4Load + 0.5);
  balancers += balancers % 2;  // paired sources pair adjacent balancers
  cfg.num_servers = kShardServers * kShards;
  cfg.num_balancers = balancers * kShards;
  cfg.num_shards = kShards;
  cfg.warmup_steps = kFig4Warmup;
  cfg.measure_steps = kFig4Measure;
  cfg.seed = seed;
  cfg.source = "quantum-chsh";
  return cfg;
}

double elapsed_s(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

ftl::games::XorValueOptions engine_options(std::uint64_t seed) {
  ftl::games::XorValueOptions opts;
  opts.sdp.restarts = 8;
  opts.sdp.seed = seed;
  opts.advantage_tol = 1e-5;
  return opts;
}

std::uint64_t counter(const char* name) {
  return ftl::obs::registry().counter(name).value();
}

/// Peak resident set of this process (VmHWM), MB.
double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// User + system CPU of this process, seconds.
double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

ftl::games::XorGame stream_game(ftl::util::Rng& rng, std::size_t i) {
  // Stratified: every 33 consecutive games cover each (vertices, p) pair
  // once, so a run's cost mix does not depend on the seed; only the graphs
  // do.
  static constexpr std::size_t kVertices[] = {8, 10, 12};
  const double p = static_cast<double>((i / 3) % 11) / 10.0;
  return ftl::games::XorGame::from_affinity(
      ftl::games::AffinityGraph::random(kVertices[i % 3], p, rng));
}

// ---------------------------------------------------------------------------
// fig4-sharded
// ---------------------------------------------------------------------------

RunResult run_fig4(const Options& opt) {
  RunResult res;
  const double rss0 = self_peak_rss_mb();

  // Set-up: worker pool plus a one-step run at full size (allocates and
  // first-touches the ~10^6-server state), median of several.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    ftl::sim::ShardPool pool(kFig4Workers);
    ftl::lb::ShardedLbConfig cfg = fig4_config(kSetupSeed);
    cfg.warmup_steps = 0;
    cfg.measure_steps = 1;
    (void)ftl::lb::run_sharded_lb_sim(cfg, &pool);
    setup.push_back(elapsed_s(t0));
  }

  ftl::sim::ShardPool pool(kFig4Workers);
  const double steps = static_cast<double>(kFig4Warmup + kFig4Measure);
  struct Pass {
    std::vector<double> us_per_step;
    double wall_s = 0.0, cpu_s = 0.0;
    std::uint64_t arrived = 0, rounds = 0;
  };
  std::uint64_t won = 0, rounds = 0, call = 0;
  const auto run_pass = [&](double seconds, bool traced) {
    Pass pass;
    SpanRecorder::instance().set_enabled(traced);
    const std::int64_t start = now_ns();
    while (elapsed_s(start) < seconds || pass.us_per_step.empty()) {
      const ftl::lb::ShardedLbConfig cfg = fig4_config(opt.seed * 1000 + call);
      const std::int64_t t0 = now_ns();
      const double c0 = self_cpu_s();
      ftl::lb::ShardedLbResult r;
      {
        const Span s("lb.run_sharded_lb_sim", call + 1);
        r = ftl::lb::run_sharded_lb_sim(cfg, &pool);
      }
      const double wall = elapsed_s(t0);
      pass.cpu_s += self_cpu_s() - c0;
      pass.wall_s += wall;
      pass.us_per_step.push_back(wall * 1e6 / steps);
      const ftl::lb::ShardedCounters& k = r.counters;
      if (k.arrived != k.served + k.still_queued) {
        res.violate("fig4: arrived != served + still_queued");
      }
      pass.arrived += static_cast<std::uint64_t>(k.arrived);
      pass.rounds += static_cast<std::uint64_t>(k.rounds_won + k.rounds_lost);
      won += static_cast<std::uint64_t>(k.rounds_won);
      rounds += static_cast<std::uint64_t>(k.rounds_won + k.rounds_lost);
      ++call;
    }
    SpanRecorder::instance().set_enabled(false);
    res.attempted += pass.arrived;
    return pass;
  };

  const Pass main = run_pass(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  if (!chsh_rate_within(won, rounds, 4.0)) {
    res.violate("fig4: CHSH win rate not within 4 sigma of cos^2(pi/8)");
  }
  if (!opt.trace) {
    res.add("latency_p50_us", median(main.us_per_step), "us");
    res.add("cpu_us_per_op",
            ratio(main.cpu_s * 1e6, static_cast<double>(main.arrived)), "us");
    res.add("win_prob_mean",
            ratio(static_cast<double>(won), static_cast<double>(rounds)),
            "prob");
    res.add("setup_s", median(setup), "s");
    res.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    return res;
  }

  const Pass traced = run_pass(opt.seconds / 2, true);
  res.add("tail.latency_p99_us", quantile(main.us_per_step, 0.99), "us");
  const double rate = ratio(static_cast<double>(traced.arrived), traced.wall_s);
  res.add("lb.requests_per_s", rate, "1/s");
  res.add("lb.requests_per_cpu_s",
          ratio(static_cast<double>(traced.arrived), traced.cpu_s), "1/s");
  res.add("lb.rounds_per_request",
          ratio(static_cast<double>(traced.rounds),
                static_cast<double>(traced.arrived)),
          "count");
  res.add("lb.bytes_per_server",
          (self_peak_rss_mb() - rss0) * 1048576.0 /
              static_cast<double>(kShards * kShardServers),
          "B");
  // Scaling: the same config on an inline (single-thread) pool.
  {
    const ftl::lb::ShardedLbConfig cfg = fig4_config(opt.seed * 1000 + call);
    const std::int64_t t0 = now_ns();
    const ftl::lb::ShardedLbResult r = ftl::lb::run_sharded_lb_sim(cfg, nullptr);
    const double inline_rate =
        static_cast<double>(r.counters.arrived) / elapsed_s(t0);
    res.add("sim.scaling_eff",
            ratio(rate, static_cast<double>(kFig4Workers) * inline_rate),
            "frac");
  }
  res.add("trace.overhead_frac",
          ratio(median(traced.us_per_step), median(main.us_per_step)) - 1.0,
          "frac");
  if (!opt.out_dir.empty()) {
    (void)SpanRecorder::instance().write_chrome(opt.out_dir + "/spans-" +
                                                opt.workload + ".json");
  }
  run_ladder({512, 1e5, opt.seed}, res);
  return res;
}

// ---------------------------------------------------------------------------
// fig3-scaled
// ---------------------------------------------------------------------------

RunResult run_fig3(const Options& opt) {
  RunResult res;

  // Set-up: a fresh engine through a fixed warm-up set of games (first
  // solves pay for lazy state in the solvers), median of several.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ftl::util::Rng rng(kSetupSeed);
    std::vector<ftl::games::XorGame> warm;
    for (std::size_t g = 0; g < 6; ++g) warm.push_back(stream_game(rng, g));
    const std::int64_t t0 = now_ns();
    ftl::games::XorValueEngine engine(engine_options(kSetupSeed));
    for (const auto& game : warm) (void)engine.evaluate(game);
    setup.push_back(elapsed_s(t0));
  }

  struct Pass {
    std::vector<double> us;  // per game, in stream order
    double cpu_s = 0.0, wall_s = 0.0, win_sum = 0.0;
    ftl::games::XorValueEngine::Stats stats;
  };
  std::uint64_t exhaustive_checked = 0;
  const auto run_pass = [&](double seconds, bool traced, bool check) {
    Pass pass;
    ftl::games::XorValueEngine engine(engine_options(opt.seed));
    ftl::util::Rng rng(opt.seed);
    CpuRotator rotator;
    SpanRecorder::instance().set_enabled(traced);
    const double c0 = self_cpu_s();
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; elapsed_s(start) < seconds || i == 0; ++i) {
      rotator.tick();
      const ftl::games::XorGame game = stream_game(rng, i);
      const std::int64_t t0 = now_ns();
      ftl::games::XorValueResult r;
      {
        const Span s("games.evaluate", i + 1);
        r = engine.evaluate(game);
      }
      pass.us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      pass.win_sum += (1.0 + r.quantum_bias) / 2.0;
      if (r.classical_bias > r.quantum_bias + kBiasTol) {
        res.violate("fig3: classical bias exceeds quantum bias");
      }
      if (check && i % kExhaustiveEvery == 0) {
        // Solver-path values must equal the exhaustive search bit for bit;
        // closed forms and cache hits agree to rounding.
        const double exact = game.classical_bias();
        const bool solved = !r.from_closed_form && !r.from_cache;
        if (solved ? std::memcmp(&exact, &r.classical_bias, sizeof exact) != 0
                   : std::fabs(exact - r.classical_bias) > 1e-9) {
          res.violate("fig3: classical value differs from exhaustive search");
        }
        ++exhaustive_checked;
      }
    }
    pass.wall_s = elapsed_s(start);
    pass.cpu_s = self_cpu_s() - c0;
    pass.stats = engine.stats();
    SpanRecorder::instance().set_enabled(false);
    res.attempted += pass.us.size();
    return pass;
  };

  const Pass main =
      run_pass(opt.trace ? opt.seconds / 2 : opt.seconds, false, true);
  if (exhaustive_checked == 0) res.violate("fig3: no exhaustive spot check ran");
  const double games = static_cast<double>(main.us.size());
  if (!opt.trace) {
    res.add("latency_p50_us", median(main.us), "us");
    res.add("cpu_us_per_op", main.cpu_s * 1e6 / games, "us");
    res.add("win_prob_mean", main.win_sum / games, "prob");
    res.add("setup_s", median(setup), "s");
    res.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    return res;
  }

  const std::uint64_t nodes0 = counter("games.bnb.nodes");
  const std::uint64_t calls0 = counter("games.bnb.calls");
  const std::uint64_t leaves0 = counter("games.bnb.exhaustive_leaves");
  const std::uint64_t sweeps0 = counter("sdp.gram.sweeps");
  const std::uint64_t solves0 = counter("sdp.gram.solves");
  const std::uint64_t warm0 = counter("sdp.gram.warm_starts");
  const Pass traced = run_pass(opt.seconds / 2, true, false);
  res.add("tail.latency_p99_us", quantile(main.us, 0.99), "us");
  const auto d = [](std::uint64_t now, std::uint64_t before) {
    return static_cast<double>(now - before);
  };
  const double evals = static_cast<double>(traced.stats.evaluations);
  res.add("games.games_per_s",
          static_cast<double>(traced.us.size()) / traced.wall_s, "1/s");
  res.add("games.closed_form_frac",
          ratio(static_cast<double>(traced.stats.closed_form_hits), evals),
          "frac");
  res.add("games.cache_hit_frac",
          ratio(static_cast<double>(traced.stats.cache_hits), evals), "frac");
  res.add("games.solved_frac",
          ratio(static_cast<double>(traced.stats.games_solved), evals), "frac");
  res.add("games.bnb_nodes_per_solve",
          ratio(d(counter("games.bnb.nodes"), nodes0),
                d(counter("games.bnb.calls"), calls0)),
          "count");
  res.add("games.bnb_node_speedup",
          ratio(d(counter("games.bnb.exhaustive_leaves"), leaves0),
                d(counter("games.bnb.nodes"), nodes0)),
          "ratio");
  res.add("sdp.sweeps_per_solve",
          ratio(d(counter("sdp.gram.sweeps"), sweeps0),
                d(counter("sdp.gram.solves"), solves0)),
          "count");
  res.add("sdp.warm_start_frac",
          ratio(d(counter("sdp.gram.warm_starts"), warm0),
                d(counter("sdp.gram.solves"), solves0)),
          "frac");
  // Both passes evaluate the same stream from a fresh engine: compare the
  // time each took over the prefix both reached.
  const std::size_t k = std::min(main.us.size(), traced.us.size());
  double t_main = 0.0, t_traced = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    t_main += main.us[i];
    t_traced += traced.us[i];
  }
  res.add("trace.overhead_frac", ratio(t_traced, t_main) - 1.0, "frac");
  if (!opt.out_dir.empty()) {
    (void)SpanRecorder::instance().write_chrome(opt.out_dir + "/spans-" +
                                                opt.workload + ".json");
  }
  run_ladder({512, 1e5, opt.seed}, res);
  return res;
}

}  // namespace perfbench
