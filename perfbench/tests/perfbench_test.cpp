// Tests of the benchmark's own logic: percentiles, due-time latency under a
// planted stall, the conservation check, and the rung deadline against a
// silent peer.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "client.hpp"
#include "daemon_proc.hpp"
#include "ftlcoordd/net.hpp"
#include "spans.hpp"
#include "obs/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Quantile, MatchesLinearInterpolation) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.99), 9.9);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// 1000 frames due every 100 us, each answered 20 us after it was sent. The
// generator stalls for 2 ms at frame 500: the 20 frames due during the
// stall go out late, together. Timed from the actual send every frame
// looks like 20 us; timed from its due time the stall shows in the tail.
std::vector<FrameOutcome> stalled_schedule() {
  std::vector<FrameOutcome> frames(1000);
  constexpr std::int64_t kGap = 100'000, kService = 20'000;
  constexpr std::int64_t kStallEnd = 500 * kGap + 2'000'000;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    FrameOutcome& f = frames[i];
    f.due_ns = static_cast<std::int64_t>(i) * kGap;
    f.sent_ns = (i >= 500 && i < 520) ? kStallEnd : f.due_ns;
    f.done_ns = f.sent_ns + kService;
    f.kind = FrameKind::kOk;
    f.win_q_sum = 16u * 49151u;
  }
  return frames;
}

TEST(SummarizeRung, DueTimeLatencyChargesAPlantedStall) {
  const RungSummary s =
      summarize_rung(stalled_schedule(), 16, 1e5, 1500.0, 0.001);
  EXPECT_EQ(s.frames, 1000u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_DOUBLE_EQ(s.p50_us, 20.0);
  // 20 of 1000 frames waited 0.12-2.02 ms: the p99 lands inside the stall.
  EXPECT_GT(s.p99_us, 200.0);
  // The stall sits in one of ten windows: the windowed p99 ignores it.
  EXPECT_DOUBLE_EQ(s.p99_windowed_us, 20.0);
  EXPECT_DOUBLE_EQ(s.p50_windowed_us, 20.0);
  EXPECT_GT(s.send_late_p99_us, 100.0);
  EXPECT_FALSE(s.backlog_growing);
  EXPECT_TRUE(s.meets_slo);  // 1% of frames late: p99 still under 1.5 ms
  EXPECT_NEAR(s.win_prob_mean, 49151.0 / 65535.0, 1e-12);

  // A longer stall pushes p99 over the limit and fails the SLO.
  auto frames = stalled_schedule();
  for (std::size_t i = 500; i < 520; ++i) frames[i].done_ns += 3'000'000;
  EXPECT_FALSE(summarize_rung(frames, 16, 1e5, 1500.0, 0.001).meets_slo);
}

TEST(SummarizeRung, FailuresCountAsOverTheLimitAndAsClassicalPlay) {
  auto frames = stalled_schedule();
  for (std::size_t i = 0; i < 10; ++i) {
    frames[i].kind = FrameKind::kRejected;  // answered fast, but refused
    frames[i].win_q_sum = 0;
  }
  const RungSummary s = summarize_rung(frames, 16, 1e5, 1500.0, 0.001);
  EXPECT_EQ(s.failed, 160u);
  EXPECT_DOUBLE_EQ(s.fail_frac(), 0.01);
  EXPECT_FALSE(s.meets_slo);
  EXPECT_NEAR(s.win_prob_mean, 0.99 * 49151.0 / 65535.0 + 0.01 * 0.75, 1e-12);
  EXPECT_EQ(s.bad_replies, 0u);  // refusals are failures, not wrong answers
  frames[0].kind = FrameKind::kMalformed;
  frames[1].kind = FrameKind::kBadReply;
  EXPECT_EQ(summarize_rung(frames, 16, 1e5, 1500.0, 0.001).bad_replies, 2u);
}

TEST(SummarizeRung, GrowingBacklogFailsTheSlo) {
  std::vector<FrameOutcome> frames(400);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].due_ns = static_cast<std::int64_t>(i) * 100'000;
    frames[i].sent_ns = frames[i].due_ns;
    // Each reply 3 us later than the last: 1.2 ms behind by the end.
    frames[i].done_ns = frames[i].due_ns + 10'000 + static_cast<std::int64_t>(i) * 3'000;
    frames[i].kind = FrameKind::kOk;
  }
  const RungSummary s = summarize_rung(frames, 16, 1e5, 1500.0, 0.001);
  EXPECT_LE(s.p99_us, 1500.0);
  EXPECT_TRUE(s.backlog_growing);
  EXPECT_FALSE(s.meets_slo);
}

ftl::coordd::StatsReply consistent_stats() {
  ftl::coordd::StatsReply s;
  s.requests = 100;
  s.hits = 30;
  s.fallbacks = 70;
  s.pairs_generated = 1000;
  s.pairs_lost_fiber = 50;
  s.pairs_delivered = 950;
  s.pairs_expired = 600;
  s.pairs_dropped_full = 300;
  s.pairs_in_memory = 20;
  return s;
}

TEST(Checks, ConservationRejectsADoctoredStatsReply) {
  const auto good = consistent_stats();
  EXPECT_TRUE(stats_conserved(good));
  // Round-trip through the wire codec first: the check sees what a client
  // would decode.
  auto wire = ftl::coordd::encode_stats_response(good);
  EXPECT_TRUE(stats_conserved(*ftl::coordd::decode_stats_response(wire)));
  auto doctored = good;
  doctored.hits += 1;  // a hit conjured from no delivered pair
  wire = ftl::coordd::encode_stats_response(doctored);
  EXPECT_FALSE(stats_conserved(*ftl::coordd::decode_stats_response(wire)));
  doctored = good;
  doctored.pairs_lost_fiber -= 1;
  EXPECT_FALSE(stats_conserved(doctored));
}

TEST(Checks, WinBounds) {
  EXPECT_TRUE(win_mean_in_bounds(0.75, 0.0));
  EXPECT_TRUE(win_mean_in_bounds(kTsirelsonWin, 0.0));
  EXPECT_FALSE(win_mean_in_bounds(0.70, 0.01));
  EXPECT_FALSE(win_mean_in_bounds(0.90, 0.01));
  EXPECT_TRUE(win_q_in_bounds(49151));  // the daemon's 0.75 fallback
  EXPECT_FALSE(win_q_in_bounds(65535));
  EXPECT_TRUE(chsh_rate_within(85355, 100000, 4.0));
  EXPECT_FALSE(chsh_rate_within(80000, 100000, 4.0));
}

TEST(Daemon, ParsesStartupPorts) {
  const auto ports = parse_startup_ports(
      "ftlcoordd: serving decide/report on 127.0.0.1:45203, /metrics on "
      "127.0.0.1:38161 (2 sources, pair rate 100000 Hz)\n");
  ASSERT_TRUE(ports);
  EXPECT_EQ(ports->first, 45203);
  EXPECT_EQ(ports->second, 38161);
  EXPECT_FALSE(parse_startup_ports("ftlcoordd: failed to bind port 7400"));
}

TEST(Daemon, ParsesPrometheusText) {
  const auto m = parse_prometheus(
      "# TYPE ftl_x_total counter\nftl_x_total 12\n"
      "ftl_stage_us_sum{stage=\"decide\"} 3.5\ngarbage\n");
  EXPECT_DOUBLE_EQ(m.at("ftl_x_total"), 12.0);
  EXPECT_DOUBLE_EQ(m.at("ftl_stage_us_sum{stage=\"decide\"}"), 3.5);
  EXPECT_EQ(m.size(), 2u);
}

// A peer that accepts the connection and then never reads or answers: the
// rung deadline must resolve every frame as failed, promptly.
TEST(Client, RungDeadlineTurnsASilentPeerIntoFailures) {
  const int lfd = ftl::coordd::listen_tcp(0);
  ASSERT_GE(lfd, 0);
  const int cfd = ftl::coordd::connect_tcp("127.0.0.1", ftl::coordd::bound_port(lfd));
  ASSERT_GE(cfd, 0);
  const int sfd = ftl::coordd::accept_with_timeout(lfd, 1000);
  ASSERT_GE(sfd, 0);
  const timeval snd{0, 50000};
  ASSERT_EQ(::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof snd), 0);

  ftl::util::Rng rng(3);
  const std::int64_t t0 = now_ns() + 5'000'000;
  RungPlan plan;
  plan.deadline_ns = t0 + 300'000'000;  // 0.2 s of frames + 0.1 s grace
  // 512-decision frames at 20k frames/s: ~2 MB offered, more than the
  // socket buffers hold, so some frames cannot even be sent.
  for (const auto off : poisson_offsets(20000.0, 0.2, rng)) {
    plan.due_ns.push_back(t0 + off);
  }
  ConnConfig cc;
  cc.fd = cfd;
  cc.batch = 512;
  const ConnRun run = run_connection(cc, {plan});
  const std::int64_t took = now_ns() - t0;

  EXPECT_LT(took, 1'000'000'000);  // bounded by the deadline, not a hang
  ASSERT_EQ(run.rungs.size(), 1u);
  std::size_t unanswered = 0;
  for (const FrameOutcome& f : run.rungs[0]) {
    EXPECT_TRUE(f.kind == FrameKind::kUnanswered || f.kind == FrameKind::kUnsent);
    EXPECT_GE(f.done_ns, plan.deadline_ns);
    unanswered += f.kind == FrameKind::kUnanswered;
  }
  EXPECT_GT(unanswered, 0u);
  const RungSummary s =
      summarize_rung(run.rungs[0], 512, 1e7, 1500.0, 0.001);
  EXPECT_EQ(s.failed, s.attempted);
  EXPECT_GT(s.p50_us, 1500.0);
  EXPECT_DOUBLE_EQ(s.win_prob_mean, 0.75);
  ftl::coordd::close_fd(cfd);
  ftl::coordd::close_fd(sfd);
  ftl::coordd::close_fd(lfd);
}

TEST(Spans, SelfTimeExcludesChildren) {
  auto& rec = SpanRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  {
    const Span outer("test.outer", 7);
    const Span inner("test.inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  rec.set_enabled(false);
  { const Span off("test.off"); }
  const auto agg = rec.aggregate();
  ASSERT_EQ(agg.count("test.outer"), 1u);
  EXPECT_EQ(agg.count("test.off"), 0u);
  const SpanStats& outer = agg.at("test.outer");
  const SpanStats& inner = agg.at("test.inner");
  EXPECT_GE(inner.total_ns, 2e6);
  EXPECT_LT(outer.self_ns, outer.total_ns - inner.total_ns + 1.0);
  EXPECT_DOUBLE_EQ(inner.self_ns, inner.total_ns);
}

// ftlperf's metric catalogue and BENCHMARK.json must list the same
// metrics, in the same order, with the same units.
TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = ftl::obs::json::parse(text.str());
  ASSERT_TRUE(doc && doc->is_object());
  const auto check = [&](const char* key, const auto& catalogue) {
    const ftl::obs::json::Value* list = doc->find(key);
    ASSERT_TRUE(list && list->is_array()) << key;
    ASSERT_EQ(list->array.size(), std::size(catalogue)) << key;
    for (std::size_t i = 0; i < list->array.size(); ++i) {
      EXPECT_EQ(list->array[i].find("name")->string, catalogue[i].name);
      EXPECT_EQ(list->array[i].find("unit")->string, catalogue[i].unit);
    }
  };
  check("end_to_end", kEndToEnd);
  check("per_layer", kPerLayer);
}

TEST(Result, PrintsExactlyTheContractKeys) {
  RunResult r;
  r.attempted = 10;
  r.failed = 1;
  r.add("latency_p50_us", 12.345678901234567, "us");
  r.add("setup_s", 0.5, "s");
  const auto doc = ftl::obs::json::parse(result_json(r));
  ASSERT_TRUE(doc && doc->is_object());
  ASSERT_EQ(doc->object.size(), 4u);
  EXPECT_EQ(doc->object[0].first, "correct");
  EXPECT_EQ(doc->find("attempted")->number, 10.0);
  EXPECT_EQ(doc->find("failed")->number, 1.0);
  const auto* m = doc->find("metrics")->find("latency_p50_us");
  EXPECT_EQ(m->find("value")->number, 12.345678901234567);  // all digits
  EXPECT_EQ(m->find("unit")->string, "us");
}

}  // namespace
}  // namespace perfbench
