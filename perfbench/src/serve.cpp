// serve-small-frames and serve-pair-flood: the real ftlcoordd daemon, driven
// over loopback TCP by the benchmark's open-loop client on a ladder of
// offered rates.
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "checks.hpp"
#include "client.hpp"
#include "daemon_proc.hpp"
#include "ftlcoordd/net.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupProbes = 15;
constexpr int kSpawnTimeoutMs = 5000;
constexpr int kStatsTimeoutMs = 1000;
constexpr int kTeardownGraceMs = 1000;
constexpr double kWarmupSeconds = 0.3;
/// A rung's deadline is its end plus half its length, clamped to this range:
/// long enough for a backlog built at the top rung to drain, short enough
/// that a daemon which answers nothing ends the run in bounded time.
constexpr double kMinGraceSeconds = 0.1;
constexpr double kMaxGraceSeconds = 1.0;
/// Share of the measured time given to the reference rung; the other rungs
/// split the rest evenly.
constexpr double kReferenceShare = 0.5;
constexpr double kWinTol = 0.01;

void sleep_until_ns(std::int64_t t) {
  const timespec ts{static_cast<time_t>(t / 1000000000),
                    static_cast<long>(t % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::vector<std::string> daemon_args(const ServeSpec& spec,
                                     std::uint64_t seed) {
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.17g", spec.pair_rate_hz);
  return {"--port",    "0",         "--metrics-port",
          "0",         "--sources", std::to_string(kSources),
          "--pair-rate", rate,      "--seed",
          std::to_string(seed)};
}

/// A rung of the ladder as the workload sees it.
struct Rung {
  double rate_dps;
  double seconds;
  enum Role { kWarmup, kLadder, kReference, kReferenceTraced } role;
};

/// Counter deltas scraped from /metrics over the reference rung.
struct Scrape {
  std::map<std::string, double> values;
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

Scrape scrape(std::uint16_t metrics_port) {
  Scrape s;
  if (auto body = http_get(metrics_port, "/metrics", kStatsTimeoutMs)) {
    s.values = parse_prometheus(*body);
  }
  return s;
}

}  // namespace

ServeSpec serve_spec(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve-small-frames") {
    s.pair_rate_hz = 1e5;
    s.batch = 16;
    s.ladder_dps = {50e3, 100e3, 200e3, 400e3, 800e3};
    s.reference = 1;
  } else {  // serve-pair-flood
    s.pair_rate_hz = 1e7;
    s.batch = 512;
    s.ladder_dps = {50e3, 100e3, 200e3, 400e3, 800e3};
    s.reference = 2;
  }
  return s;
}

RunResult run_serving(const Options& opt, const ServeSpec& spec) {
  RunResult res;
  const std::vector<std::string> args = daemon_args(spec, opt.seed);

  // Set-up: spawn to the first answered frame (a kStats round trip), the
  // median of several cold starts.
  std::vector<double> setup;
  for (int i = 0; i < kSetupProbes; ++i) {
    ++res.attempted;
    const std::int64_t t0 = now_ns();
    auto d = spawn_daemon(opt.daemon, args, kSpawnTimeoutMs);
    const bool answered = d && fetch_stats(d->port, kStatsTimeoutMs);
    const std::int64_t t1 = now_ns();
    if (d) stop_daemon(*d, kTeardownGraceMs);
    if (!answered) {
      ++res.failed;
      continue;
    }
    setup.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }
  auto daemon = spawn_daemon(opt.daemon, args, kSpawnTimeoutMs);
  if (!daemon) {
    res.violate("ftlcoordd did not start");
    return res;
  }

  // The rung timeline: warm-up, then in an untraced run the reference rung
  // alone for the whole measured time, so the end-to-end numbers come from
  // a load well below the knee. A traced run walks the ladder in ascending
  // order, the reference rung split into an untraced and a traced half so
  // the tracing overhead is measured on the same load.
  std::vector<Rung> rungs;
  rungs.push_back({spec.ladder_dps[spec.reference], kWarmupSeconds,
                   Rung::kWarmup});
  if (!opt.trace) {
    rungs.push_back(
        {spec.ladder_dps[spec.reference], opt.seconds, Rung::kReference});
  } else {
    const double other_s = opt.seconds * (1.0 - kReferenceShare) /
                           static_cast<double>(spec.ladder_dps.size() - 1);
    const double ref_s = opt.seconds * kReferenceShare;
    for (std::size_t i = 0; i < spec.ladder_dps.size(); ++i) {
      if (i != spec.reference) {
        rungs.push_back({spec.ladder_dps[i], other_s, Rung::kLadder});
      } else {
        rungs.push_back({spec.ladder_dps[i], ref_s / 2, Rung::kReference});
        rungs.push_back(
            {spec.ladder_dps[i], ref_s / 2, Rung::kReferenceTraced});
      }
    }
  }

  // Per-connection plans on one fixed timeline; each connection drives its
  // own source with its own seeded arrival and input streams.
  const std::int64_t t0 = now_ns() + 20'000'000;
  std::vector<std::vector<RungPlan>> plans(kSources);
  std::vector<std::int64_t> starts, deadlines;
  std::int64_t t = t0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const std::int64_t len = static_cast<std::int64_t>(rungs[r].seconds * 1e9);
    const std::int64_t deadline =
        t + len +
        static_cast<std::int64_t>(
            std::clamp(rungs[r].seconds / 2, kMinGraceSeconds,
                       kMaxGraceSeconds) *
            1e9);
    starts.push_back(t);
    deadlines.push_back(deadline);
    for (std::size_t c = 0; c < kSources; ++c) {
      ftl::util::Rng rng(opt.seed * 1000003 + r * 101 + c);
      RungPlan plan;
      plan.deadline_ns = deadline;
      plan.traced = rungs[r].role == Rung::kReferenceTraced;
      const double fps = rungs[r].rate_dps / spec.batch / kSources;
      for (const std::int64_t off : poisson_offsets(fps, rungs[r].seconds, rng)) {
        plan.due_ns.push_back(t + off);
      }
      plans[c].push_back(std::move(plan));
    }
    t = deadline;
  }

  std::vector<int> fds;
  for (std::size_t c = 0; c < kSources; ++c) {
    const int fd = ftl::coordd::connect_tcp("127.0.0.1", daemon->port);
    // Bounded socket calls: a daemon that stops reading must surface as
    // failed frames, never as a client blocked forever.
    const timeval snd{0, 50000}, rcv{0, 200000};
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof snd);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof rcv);
    fds.push_back(fd);
  }
  SpanRecorder::instance().clear();
  SpanRecorder::instance().set_enabled(opt.trace);
  std::vector<ConnRun> runs(kSources);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kSources; ++c) {
    ConnConfig cc;
    cc.fd = fds[c];
    cc.source = static_cast<std::uint32_t>(c);
    cc.batch = spec.batch;
    cc.deadline_us = static_cast<std::uint32_t>(kLatencyLimitUs);
    cc.input_seed = opt.seed * 7919 + c;
    threads.emplace_back(
        [&runs, &plans, cc, c] { runs[c] = run_connection(cc, plans[c]); });
  }

  // Daemon-side samples bracket the reference rung (both halves).
  std::size_t ref_first = 0, ref_last = 0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if (rungs[r].role == Rung::kReference) ref_first = r;
    if (rungs[r].role == Rung::kReference ||
        rungs[r].role == Rung::kReferenceTraced) {
      ref_last = r;
    }
  }
  sleep_until_ns(starts[ref_first]);
  const ProcSample p0 = sample_proc(daemon->pid);
  const Scrape m0 = opt.trace ? scrape(daemon->metrics_port) : Scrape{};
  const std::int64_t m0_ns = now_ns();
  sleep_until_ns(deadlines[ref_last]);
  const ProcSample p1 = sample_proc(daemon->pid);
  const Scrape m1 = opt.trace ? scrape(daemon->metrics_port) : Scrape{};
  const std::int64_t m1_ns = now_ns();

  for (std::thread& th : threads) th.join();
  SpanRecorder::instance().set_enabled(false);
  for (const int fd : fds) ftl::coordd::close_fd(fd);

  // Correctness: the kStats identities, on a fresh connection. A daemon
  // that cannot answer is a failure, not a skipped check.
  ++res.attempted;
  const auto stats = fetch_stats(daemon->port, kStatsTimeoutMs);
  if (!stats) {
    ++res.failed;
  } else if (!stats_conserved(*stats)) {
    res.violate("kStats conservation identities do not hold");
  }
  const ProcSample p_end = sample_proc(daemon->pid);
  ++res.attempted;
  if (!stop_daemon(*daemon, kTeardownGraceMs)) ++res.failed;

  // Summaries: every rung merged over connections.
  std::vector<RungSummary> sums;
  std::uint64_t answered = 0, bad = 0, stray = 0;
  double answered_win = 0.0;
  double cpu_untraced = 0.0, cpu_traced = 0.0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    std::vector<FrameOutcome> frames;
    for (std::size_t c = 0; c < kSources; ++c) {
      frames.insert(frames.end(), runs[c].rungs[r].begin(),
                    runs[c].rungs[r].end());
      if (rungs[r].role == Rung::kReference) cpu_untraced += runs[c].cpu_s[r];
      if (rungs[r].role == Rung::kReferenceTraced) {
        cpu_traced += runs[c].cpu_s[r];
      }
    }
    sums.push_back(summarize_rung(std::move(frames), spec.batch,
                                  rungs[r].rate_dps, kLatencyLimitUs,
                                  kMaxFailFrac));
    const RungSummary& s = sums.back();
    std::fprintf(stderr,
                 "ftlperf: rung %zu %.0f dps: %llu frames, p50 %.1f us, p99 "
                 "%.1f us (windowed %.1f), send-late p99 %.1f us, fail %.4f%s\n",
                 r, rungs[r].rate_dps, static_cast<unsigned long long>(s.frames),
                 s.p50_us, s.p99_us, s.p99_windowed_us, s.send_late_p99_us,
                 s.fail_frac(), s.meets_slo ? ", meets SLO" : "");
    res.attempted += s.attempted;
    res.failed += s.failed;
    answered += s.answered;
    answered_win += s.answered_win_mean * static_cast<double>(s.answered);
    bad += s.bad_replies;
  }
  for (const ConnRun& run : runs) stray += run.stray_replies;
  if (bad > 0) res.violate(std::to_string(bad) + " wrong replies");
  if (stray > 0) res.violate(std::to_string(stray) + " replies to no request");
  if (answered > 0 &&
      !win_mean_in_bounds(answered_win / static_cast<double>(answered),
                          kWinTol)) {
    res.violate("mean win probability outside [0.75, cos^2(pi/8)]");
  }

  const RungSummary& ref = sums[ref_first];
  if (!opt.trace) {
    res.add("latency_p50_us", ref.p50_windowed_us, "us");
    res.add("cpu_us_per_op",
            ratio((p1.cpu_s - p0.cpu_s) * 1e6,
                  static_cast<double>(ref.attempted)),
            "us");
    res.add("win_prob_mean", ref.win_prob_mean, "prob");
    res.add("setup_s", median(setup), "s");
    res.add("peak_rss_mb", p_end.peak_rss_mb, "MB");
    return res;
  }

  // Per-layer metrics of the traced run.
  const RungSummary& traced = sums[ref_last];
  const auto spans = SpanRecorder::instance().aggregate();
  const auto span_mean_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_ns();
  };
  res.add("tail.latency_p99_us", ref.p99_windowed_us, "us");
  res.add("loadgen.send_late_us_p99", traced.send_late_p99_us, "us");
  res.add("protocol.encode_ns_per_frame", span_mean_ns("protocol.encode"), "ns");
  res.add("protocol.decode_ns_per_frame", span_mean_ns("protocol.decode"), "ns");
  res.add("net.write_us_per_frame", span_mean_ns("net.write_frame") / 1e3, "us");
  for (const char* stage :
       {"socket_read", "admission", "pair_acquire", "decide", "reply_write"}) {
    const std::string sel = std::string("{stage=\"") + stage + "\"}";
    const double sum = m1.get("ftl_coordd_stage_us_sum" + sel) -
                       m0.get("ftl_coordd_stage_us_sum" + sel);
    const double count = m1.get("ftl_coordd_stage_us_count" + sel) -
                         m0.get("ftl_coordd_stage_us_count" + sel);
    res.add(std::string("daemon.") + stage + "_us_mean", ratio(sum, count), "us");
  }
  const double ref_frames = static_cast<double>(ref.frames + traced.frames);
  res.add("daemon.ctx_switches_per_frame",
          ratio(std::max(0.0, static_cast<double>(p1.ctx_switches) -
                                  static_cast<double>(p0.ctx_switches)),
                ref_frames),
          "count");
  res.add("daemon.threads", static_cast<double>(p1.threads), "count");

  double slo_rate = 0.0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    if ((rungs[r].role == Rung::kLadder || rungs[r].role == Rung::kReference) &&
        sums[r].meets_slo) {
      slo_rate = std::max(slo_rate, rungs[r].rate_dps);
    }
  }
  res.add("serve.slo_rate_dps", slo_rate, "1/s");
  res.add("serve.fail_frac", traced.fail_frac(), "frac");
  res.add("serve.hit_frac",
          ratio(static_cast<double>(traced.hits),
                static_cast<double>(traced.answered)),
          "frac");

  const auto delta = [&](const char* name) {
    return m1.get(name) - m0.get(name);
  };
  const double generated = delta("ftl_qnet_live_pairs_generated_total");
  const double delivered = delta("ftl_qnet_live_pairs_delivered_total");
  const double span_s = static_cast<double>(m1_ns - m0_ns) * 1e-9;
  res.add("qnet.supply_keepup",
          ratio(generated, span_s * spec.pair_rate_hz * kSources), "frac");
  res.add("qnet.pairs_per_decision",
          ratio(generated, delta("ftl_qnet_live_requests_total")), "count");
  res.add("qnet.pair_use_frac",
          ratio(delta("ftl_qnet_live_hits_total"), delivered), "frac");
  res.add("qnet.dropped_full_frac",
          ratio(delta("ftl_qnet_live_pairs_dropped_full_total"), delivered),
          "frac");
  res.add("qnet.expired_frac",
          ratio(delta("ftl_qnet_live_pairs_expired_total"), delivered), "frac");
  res.add("trace.overhead_frac",
          ratio(cpu_traced / std::max<double>(1.0, traced.frames),
                cpu_untraced / std::max<double>(1.0, ref.frames)) -
              1.0,
          "frac");
  if (!opt.out_dir.empty()) {
    (void)SpanRecorder::instance().write_chrome(opt.out_dir + "/spans-" +
                                                opt.workload + ".json");
  }
  run_ladder({spec.batch, spec.pair_rate_hz, opt.seed}, res);
  return res;
}

}  // namespace perfbench
