// The stepped per-layer ladder: each serving and simulation layer timed
// alone, in process, with no daemon and no scheduler in the way. Parameters
// (batch size, pair rate, games) come from the workload being traced.
#include <atomic>
#include <thread>

#include "correlate/decision_source.hpp"
#include "ftlcoordd/net.hpp"
#include "ftlcoordd/protocol.hpp"
#include "games/bnb.hpp"
#include "games/canonical.hpp"
#include "obs/metrics.hpp"
#include "qnet/live_broker.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

/// Keeps a computed value alive without letting the optimiser drop it.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

double ns_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0); }

/// Daemon defaults (tools/ftlcoordd/main.cpp) at the given pair rate.
ftl::qnet::LiveBrokerConfig broker_config(double pair_rate_hz) {
  ftl::qnet::LiveBrokerConfig cfg;
  cfg.sources = 1;
  cfg.qnet.pair_rate_hz = pair_rate_hz;
  cfg.qnet.fiber_km = 0.5;
  cfg.qnet.source_visibility = 0.98;
  cfg.qnet.memory_t1_s = 500e-6;
  cfg.qnet.memory_t2_s = 100e-6;
  cfg.qnet.max_storage_s = 200e-6;
  return cfg;
}

void codec_rung(const LadderParams& p, RunResult& out) {
  coordd::DecideRequestV2 req;
  req.inputs.assign(p.batch, 1);
  const std::vector<coordd::DecisionEntry> entries(p.batch,
                                                   coordd::DecisionEntry{3, 50000});
  constexpr int kIters = 2000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    req.trace_id = static_cast<std::uint64_t>(i);
    const auto wire = coordd::encode_decide_request_v2(req);
    coordd::ByteReader r(wire.data() + 1, wire.size() - 1);
    keep(coordd::decode_decide_request_v2(r));
    const auto reply = coordd::encode_decide_response(entries);
    keep(coordd::decode_decide_response(reply));
  }
  out.add("ladder.codec_ns_per_decision",
          ns_since(t0) / (static_cast<double>(kIters) * p.batch), "ns");
}

void socket_rung(const LadderParams& p, RunResult& out) {
  double echo_us = 0.0;
  const int lfd = coordd::listen_tcp(0);
  const int cfd = lfd < 0 ? -1 : coordd::connect_tcp("127.0.0.1", coordd::bound_port(lfd));
  const int sfd = cfd < 0 ? -1 : coordd::accept_with_timeout(lfd, 1000);
  if (sfd >= 0) {
    std::thread echo([sfd] {
      std::vector<std::uint8_t> buf;
      while (coordd::read_frame(sfd, buf) && coordd::write_frame(sfd, buf)) {
      }
    });
    coordd::DecideRequestV2 req;
    req.inputs.assign(p.batch, 0);
    const auto frame = coordd::encode_decide_request_v2(req);
    std::vector<std::uint8_t> back;
    std::vector<double> rtt;
    for (int i = 0; i < 2200; ++i) {
      const std::int64_t t0 = now_ns();
      if (!coordd::write_frame(cfd, frame) || !coordd::read_frame(cfd, back)) break;
      if (i >= 200) rtt.push_back(ns_since(t0) / 1e3);  // after warm-up
    }
    coordd::shutdown_fd(cfd);
    echo.join();
    echo_us = median(rtt);
  }
  coordd::close_fd(sfd);
  coordd::close_fd(cfd);
  coordd::close_fd(lfd);
  out.add("ladder.socket_echo_us", echo_us, "us");
}

void broker_rungs(const LadderParams& p, RunResult& out) {
  // Clock-read cost, subtracted from per-call timings.
  std::int64_t t_clock = now_ns();
  for (int i = 0; i < 1000; ++i) keep(now_ns());
  const double clock_ns = ns_since(t_clock) / 1000.0;

  // Hit path: pools filled at the workload's pair rate, decide timed alone
  // (production is advanced untimed just before each call).
  double hit_ns = 0.0, hits = 0.0;
  {
    ftl::qnet::LiveBroker broker(broker_config(p.pair_rate_hz), p.seed);
    double t = 1e-3;
    broker.produce_until(0, t);
    for (int i = 0; i < 4000; ++i) {
      t += 50e-6;
      broker.produce_until(0, t);
      const std::int64_t t0 = now_ns();
      const auto d = broker.decide(0, static_cast<std::uint8_t>(i & 1), t);
      const double ns = ns_since(t0) - clock_ns;
      if (d.quantum) {
        hit_ns += ns;
        hits += 1.0;
      }
    }
  }
  out.add("ladder.broker_hit_ns", ratio(hit_ns, hits), "ns");
  // Fallback path: a source too slow to ever have a pair pooled.
  {
    ftl::qnet::LiveBroker broker(broker_config(1e-3), p.seed);
    double t = 1e-3;
    constexpr int kCalls = 20000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      t += 50e-6;
      keep(broker.decide(0, static_cast<std::uint8_t>(i & 1), t));
    }
    out.add("ladder.broker_fallback_ns", ns_since(t0) / kCalls, "ns");
  }
  // Emission: produce_until at the producer thread's 200 us cadence, per
  // pair generated; ~2e5 pairs whatever the rate.
  {
    ftl::qnet::LiveBroker broker(broker_config(p.pair_rate_hz), p.seed);
    const double horizon = 2e5 / p.pair_rate_hz;
    double t = 0.0;
    const std::int64_t t0 = now_ns();
    while (t < horizon) {
      t += 200e-6;
      broker.produce_until(0, t);
    }
    const double ns = ns_since(t0);
    out.add("ladder.broker_produce_ns_per_pair",
            ratio(ns, static_cast<double>(broker.stats().pairs_generated)), "ns");
  }
}

void obs_rungs(RunResult& out) {
  auto& hist = ftl::obs::registry().histogram("perfbench.ladder.observe", 0.0,
                                              1.0, 64);
  auto& ctr = ftl::obs::registry().counter("perfbench.ladder.inc");
  constexpr int kOps = 1 << 20;
  {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kOps; ++i) hist.observe((i & 63) / 64.0);
    out.add("ladder.obs_observe_ns", ns_since(t0) / kOps, "ns");
  }
  // Two threads on one metric: wall time per operation per thread.
  const auto contended = [](auto&& op) {
    std::atomic<int> ready{0};
    const auto body = [&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (int i = 0; i < kOps; ++i) op(i);
    };
    const std::int64_t t0 = now_ns();
    std::thread other(body);
    body();
    other.join();
    return ns_since(t0) / kOps;
  };
  out.add("ladder.obs_observe_contended_ns",
          contended([&](int i) { hist.observe((i & 63) / 64.0); }), "ns");
  out.add("ladder.obs_inc_contended_ns", contended([&](int) { ctr.inc(); }),
          "ns");
}

void outcome_table_rung(const LadderParams& p, RunResult& out) {
  const ftl::correlate::ChshSource source(1.0);
  constexpr std::size_t kRounds = 4096;
  constexpr int kBatches = 256;
  ftl::util::Rng rng(p.seed);
  std::vector<int> xs(kRounds), ys(kRounds), as(kRounds), bs(kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) {
    xs[i] = static_cast<int>(rng.uniform_int(std::uint64_t{2}));
    ys[i] = static_cast<int>(rng.uniform_int(std::uint64_t{2}));
  }
  const std::int64_t t0 = now_ns();
  for (int b = 0; b < kBatches; ++b) {
    source.table().sample_rounds(xs.data(), ys.data(), as.data(), bs.data(),
                                 kRounds, rng);
    keep(as);
  }
  out.add("ladder.outcome_table_ns_per_round",
          ns_since(t0) / (static_cast<double>(kBatches) * kRounds), "ns");
}

void games_rungs(const LadderParams& p, RunResult& out) {
  // Two games of each size from the Fig-3 stream, each layer alone.
  ftl::util::Rng rng(p.seed);
  std::vector<ftl::games::XorGame> games;
  for (std::size_t i = 0; i < 6; ++i) games.push_back(stream_game(rng, i));
  const double n = static_cast<double>(games.size());
  std::int64_t t0 = now_ns();
  for (const auto& g : games) keep(ftl::games::classical_value_bnb(g));
  out.add("ladder.bnb_ms_per_game", ns_since(t0) / 1e6 / n, "ms");
  ftl::sdp::GramOptions sdp;
  sdp.restarts = 8;
  sdp.seed = p.seed;
  t0 = now_ns();
  for (const auto& g : games) keep(g.quantum_bias(sdp));
  out.add("ladder.sdp_ms_per_game", ns_since(t0) / 1e6 / n, "ms");
  t0 = now_ns();
  for (const auto& g : games) keep(ftl::games::canonical_form(g.cost_matrix()));
  out.add("ladder.canonical_us_per_game", ns_since(t0) / 1e3 / n, "us");
}

}  // namespace

void run_ladder(const LadderParams& p, RunResult& out) {
  codec_rung(p, out);
  socket_rung(p, out);
  broker_rungs(p, out);
  obs_rungs(out);
  outcome_table_rung(p, out);
  games_rungs(p, out);
}

}  // namespace perfbench
