// The four workloads, the stepped per-layer ladder, and the metric
// catalogue they report against (mirrored in BENCHMARK.json; README.md
// defines every metric per workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "games/xor_game.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;   // path to the ftlcoordd binary
  std::string out_dir;  // where the traced run writes its span file
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (--trace 0), on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_us", "us"}, {"cpu_us_per_op", "us"},
    {"win_prob_mean", "prob"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Reported by every traced run (--trace 1). A metric of a layer the
/// workload does not exercise reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"tail.latency_p99_us", "us"},
    {"loadgen.send_late_us_p99", "us"},
    {"protocol.encode_ns_per_frame", "ns"},
    {"protocol.decode_ns_per_frame", "ns"},
    {"net.write_us_per_frame", "us"},
    {"daemon.socket_read_us_mean", "us"},
    {"daemon.admission_us_mean", "us"},
    {"daemon.pair_acquire_us_mean", "us"},
    {"daemon.decide_us_mean", "us"},
    {"daemon.reply_write_us_mean", "us"},
    {"daemon.ctx_switches_per_frame", "count"},
    {"daemon.threads", "count"},
    {"serve.slo_rate_dps", "1/s"},
    {"serve.fail_frac", "frac"},
    {"serve.hit_frac", "frac"},
    {"qnet.supply_keepup", "frac"},
    {"qnet.pairs_per_decision", "count"},
    {"qnet.pair_use_frac", "frac"},
    {"qnet.dropped_full_frac", "frac"},
    {"qnet.expired_frac", "frac"},
    {"lb.requests_per_s", "1/s"},
    {"lb.requests_per_cpu_s", "1/s"},
    {"lb.rounds_per_request", "count"},
    {"lb.bytes_per_server", "B"},
    {"sim.scaling_eff", "frac"},
    {"games.games_per_s", "1/s"},
    {"games.closed_form_frac", "frac"},
    {"games.cache_hit_frac", "frac"},
    {"games.solved_frac", "frac"},
    {"games.bnb_nodes_per_solve", "count"},
    {"games.bnb_node_speedup", "ratio"},
    {"sdp.sweeps_per_solve", "count"},
    {"sdp.warm_start_frac", "frac"},
    {"ladder.codec_ns_per_decision", "ns"},
    {"ladder.socket_echo_us", "us"},
    {"ladder.broker_hit_ns", "ns"},
    {"ladder.broker_fallback_ns", "ns"},
    {"ladder.broker_produce_ns_per_pair", "ns"},
    {"ladder.obs_observe_ns", "ns"},
    {"ladder.obs_observe_contended_ns", "ns"},
    {"ladder.obs_inc_contended_ns", "ns"},
    {"ladder.outcome_table_ns_per_round", "ns"},
    {"ladder.bnb_ms_per_game", "ms"},
    {"ladder.sdp_ms_per_game", "ms"},
    {"ladder.canonical_us_per_game", "us"},
    {"trace.overhead_frac", "frac"},
};

/// The serving workloads' shape.
struct ServeSpec {
  double pair_rate_hz = 1e5;       // per source
  std::uint32_t batch = 16;        // decisions per frame
  std::vector<double> ladder_dps;  // offered decisions/s, both connections
  std::size_t reference = 0;       // index into ladder_dps
};

inline constexpr double kLatencyLimitUs = 1500.0;
inline constexpr double kMaxFailFrac = 0.001;
inline constexpr std::size_t kSources = 2;
inline constexpr std::size_t kFig4Workers = 4;

[[nodiscard]] ServeSpec serve_spec(const std::string& workload);

RunResult run_serving(const Options& opt, const ServeSpec& spec);
RunResult run_fig4(const Options& opt);
RunResult run_fig3(const Options& opt);

/// Inputs the ladder takes from the workload.
struct LadderParams {
  std::uint32_t batch = 512;
  double pair_rate_hz = 1e5;
  std::uint64_t seed = 1;
};
/// Times each layer alone (stepped, in process) and adds the ladder.*
/// metrics to `out`.
void run_ladder(const LadderParams& p, RunResult& out);

/// The Fig-3 workload's seeded game stream, shared with the ladder: game i
/// is the XOR game of a random affinity graph with 8, 10 or 12 vertices
/// and edge-exclusive probability in {0, 0.1, ..., 1}, cycling through all
/// 33 combinations.
[[nodiscard]] ftl::games::XorGame stream_game(ftl::util::Rng& rng,
                                              std::size_t i);

}  // namespace perfbench
