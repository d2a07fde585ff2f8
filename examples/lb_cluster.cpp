// lb_cluster: the paper's Figure-4 cluster simulation as a CLI.
//
//   build/examples/lb_cluster [flags]
//     --balancers N        number of load balancers      (default 100)
//     --servers M          number of servers             (default 86)
//     --strategy S         random | round-robin | po2 | classical | mixed |
//                          quantum | omniscient | dedicated | all
//                                                        (default all)
//     --visibility V       Werner visibility for quantum (default 1.0)
//     --policy P           paper | fifo | efirst         (default paper)
//     --steps K            measured steps                (default 4000)
//     --burst              Markov-modulated arrivals (HIGH 1.0 / LOW 0.3)
//     --seed X             RNG seed                      (default 1)
//
// Examples:
//   build/examples/lb_cluster --servers 86
//   build/examples/lb_cluster --strategy quantum --visibility 0.9 --burst
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "correlate/decision_source.hpp"
#include "lb/sharded_simulator.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace ftl;

lb::StrategyFactory make_strategy(const std::string& kind, double visibility) {
  if (kind == "random") return lb::strategy_factory<lb::RandomStrategy>();
  if (kind == "round-robin")
    return lb::strategy_factory<lb::RoundRobinStrategy>();
  if (kind == "po2") return lb::strategy_factory<lb::PowerOfTwoStrategy>();
  if (kind == "dedicated")
    return lb::strategy_factory<lb::DedicatedServersStrategy>(0.5);
  if (kind == "classical")
    return lb::paired_factory<correlate::ClassicalChshSource>();
  if (kind == "mixed")
    return lb::paired_factory<correlate::MixedClassicalSource>(0.25);
  if (kind == "quantum")
    return lb::paired_factory<correlate::ChshSource>(visibility);
  if (kind == "omniscient")
    return lb::paired_factory<correlate::OmniscientOracleSource>();
  std::fprintf(stderr, "unknown strategy '%s'\n", kind.c_str());
  std::exit(2);
}

lb::ServicePolicy parse_policy(const std::string& p) {
  if (p == "paper") return lb::ServicePolicy::kPaperCFirst;
  if (p == "fifo") return lb::ServicePolicy::kFifoPair;
  if (p == "efirst") return lb::ServicePolicy::kEFirst;
  std::fprintf(stderr, "unknown policy '%s'\n", p.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  lb::ShardedLbConfig cfg;
  cfg.num_balancers = args.get("balancers", static_cast<std::size_t>(100));
  cfg.num_servers = args.get("servers", static_cast<std::size_t>(86));
  cfg.policy = parse_policy(args.get("policy", std::string("paper")));
  cfg.measure_steps = args.get("steps", static_cast<long long>(4000));
  cfg.warmup_steps = cfg.measure_steps / 4;
  cfg.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<long long>(1)));
  if (args.get("burst", false)) cfg.burst = lb::BurstModel{};
  const std::string kind = args.get("strategy", std::string("all"));
  const double visibility = args.get("visibility", 1.0);

  std::printf(
      "cluster: %zu balancers, %zu servers (load %.3f), pC = %.2f, "
      "policy %s%s\n\n",
      cfg.num_balancers, cfg.num_servers, cfg.load(), cfg.p_colocate,
      lb::to_string(cfg.policy), cfg.burst ? ", bursty arrivals" : "");

  util::Table t({"strategy", "avg queue len", "mean delay", "p95 delay",
                 "delay C", "delay E"});
  const auto run_one = [&](const std::string& k) {
    const lb::StrategyFactory factory = make_strategy(k, visibility);
    const lb::ShardedLbResult r = lb::run_sharded_lb_sim(cfg, nullptr, factory);
    t.add_row({factory()->name(), r.mean_queue_length, r.mean_delay,
               r.p95_delay, r.mean_delay_c, r.mean_delay_e});
  };

  if (kind == "all") {
    for (const char* k : {"random", "round-robin", "po2", "dedicated",
                          "classical", "mixed", "quantum", "omniscient"}) {
      run_one(k);
    }
  } else {
    run_one(kind);
  }
  t.print(std::cout);
  std::puts(
      "\nNotes: po2 needs global queue visibility (not achievable without\n"
      "communication); omniscient sees both inputs (the paper's Section-5\n"
      "testbed cheat). quantum uses only pre-shared entanglement.");
  return 0;
}
