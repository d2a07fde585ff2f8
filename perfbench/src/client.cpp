#include "client.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <optional>

#include "checks.hpp"
#include "ftlcoordd/net.hpp"
#include "ftlcoordd/protocol.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace coordd = ftl::coordd;

namespace {

timespec to_timespec(std::int64_t ns) {
  if (ns < 0) ns = 0;
  return timespec{static_cast<time_t>(ns / 1000000000),
                  static_cast<long>(ns % 1000000000)};
}

void sleep_until(std::int64_t t_ns) {
  const timespec ts = to_timespec(t_ns);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Waits up to `timeout_ns` for `events` on fd; the events that arrived,
/// 0 on timeout. Errors and hang-ups report as every requested event: the
/// following read or write surfaces them.
short wait_fd(int fd, short events, std::int64_t timeout_ns) {
  pollfd pfd{fd, events, 0};
  const timespec ts = to_timespec(timeout_ns);
  int rc;
  do {
    rc = ::ppoll(&pfd, 1, &ts, nullptr);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return 0;
  return (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0
             ? events
             : static_cast<short>(pfd.revents & events);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::vector<std::int64_t> poisson_offsets(double per_second, double seconds,
                                          ftl::util::Rng& rng) {
  std::vector<std::int64_t> out;
  if (per_second <= 0.0) return out;
  double t = rng.exponential(per_second);
  while (t < seconds) {
    out.push_back(static_cast<std::int64_t>(t * 1e9));
    t += rng.exponential(per_second);
  }
  return out;
}

ConnRun run_connection(const ConnConfig& cfg,
                       const std::vector<RungPlan>& plans) {
  // Wake-ups within a microsecond or two of the due time instead of the
  // default 50 us timer slack.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ConnRun out;
  out.rungs.resize(plans.size());
  out.cpu_s.resize(plans.size());
  ftl::util::Rng rng(cfg.input_seed);

  struct Sent {
    std::size_t rung;
    std::size_t idx;
  };
  std::deque<Sent> outstanding;  // in send order; replies arrive in order
  bool broken = false;           // a read or write failed: stop using fd
  std::vector<std::uint8_t> payload;
  coordd::DecideRequestV2 req;
  req.source = cfg.source;
  req.deadline_us = cfg.deadline_us;
  req.inputs.resize(cfg.batch);

  for (std::size_t r = 0; r < plans.size(); ++r) {
    const RungPlan& plan = plans[r];
    std::vector<FrameOutcome>& frames = out.rungs[r];
    frames.resize(plan.due_ns.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      frames[i].due_ns = plan.due_ns[i];
    }
    SpanRecorder::set_thread_enabled(plan.traced);
    const double cpu0 = thread_cpu_s();
    std::size_t next = 0;  // next frame to send
    std::size_t open = 0;  // this rung's frames awaiting a reply

    const auto request_id = [&](std::size_t i) {
      return (static_cast<std::uint64_t>(cfg.source + 1) << 48) |
             (static_cast<std::uint64_t>(r) << 32) | (i + 1);
    };

    // Called once the socket has room: a frame whose due time passes while
    // the socket is full waits in the client, and the wait is charged to its
    // latency.
    const auto send = [&](std::size_t i) {
      FrameOutcome& fr = frames[i];
      for (std::uint8_t& bit : req.inputs) {
        bit = static_cast<std::uint8_t>(rng.next_u64() >> 63);
      }
      req.client_send_steady_ns = static_cast<std::uint64_t>(fr.due_ns);
      bool ok;
      {
        const Span frame_span("client.frame_send", request_id(i));
        {
          const Span s("protocol.encode");
          payload = coordd::encode_decide_request_v2(req);
        }
        const Span s("net.write_frame");
        ok = coordd::write_frame(cfg.fd, payload);
      }
      if (!ok) {
        broken = true;
        fr.kind = FrameKind::kUnsent;
        return;
      }
      fr.sent_ns = now_ns();
      outstanding.push_back({r, i});
      ++open;
    };

    const auto receive = [&]() {
      bool ok;
      {
        const Span s("net.read_frame");
        ok = coordd::read_frame(cfg.fd, payload);
      }
      const std::int64_t now = now_ns();
      if (!ok) {
        broken = true;
        return;
      }
      if (outstanding.empty()) {
        ++out.stray_replies;
        return;
      }
      const Sent sent = outstanding.front();
      outstanding.pop_front();
      FrameOutcome& fr = out.rungs[sent.rung][sent.idx];
      if (fr.kind != FrameKind::kPending) return;  // abandoned at a deadline
      --open;
      fr.done_ns = now;
      coordd::Status status = coordd::Status::kOk;
      std::optional<std::vector<coordd::DecisionEntry>> entries;
      {
        const Span s("protocol.decode", request_id(sent.idx));
        entries = coordd::decode_decide_response(payload, &status);
      }
      if (!entries) {
        fr.kind = payload.size() == 1 && status == coordd::Status::kRejected
                      ? FrameKind::kRejected
                  : payload.size() == 1 && status == coordd::Status::kMalformed
                      ? FrameKind::kMalformed
                      : FrameKind::kBadReply;
        return;
      }
      fr.kind = entries->size() == cfg.batch ? FrameKind::kOk
                                             : FrameKind::kBadReply;
      for (const coordd::DecisionEntry& e : *entries) {
        if (!win_q_in_bounds(e.win_q)) fr.kind = FrameKind::kBadReply;
        if ((e.flags & coordd::DecisionEntry::kQuantumBit) != 0) ++fr.hits;
        fr.win_q_sum += e.win_q;
      }
    };

    while (true) {
      const std::int64_t now = now_ns();
      if (next == frames.size() && open == 0) break;
      if (now >= plan.deadline_ns) break;
      const bool due = next < frames.size() && now >= frames[next].due_ns;
      if (broken) {
        sleep_until(plan.deadline_ns);
        continue;
      }
      short want = outstanding.empty() ? 0 : POLLIN;
      if (due) want |= POLLOUT;
      const std::int64_t wake =
          due || next == frames.size() ? plan.deadline_ns : frames[next].due_ns;
      if (want == 0) {
        sleep_until(wake);
        continue;
      }
      const short got = wait_fd(cfg.fd, want, wake - now);
      if ((got & POLLOUT) != 0) send(next++);
      if ((got & POLLIN) != 0) receive();
    }

    // Everything unresolved fails as of now, the observed deadline: a frame
    // never sent as unsent, one sent as unanswered. Frames still
    // outstanding stay queued so their late replies are discarded.
    const std::int64_t now = now_ns();
    for (FrameOutcome& fr : frames) {
      if (fr.kind == FrameKind::kPending) {
        fr.kind = fr.sent_ns < 0 ? FrameKind::kUnsent : FrameKind::kUnanswered;
      }
      if (fr.done_ns < 0) fr.done_ns = now;
    }
    out.cpu_s[r] = thread_cpu_s() - cpu0;
  }
  SpanRecorder::set_thread_enabled(true);
  return out;
}

RungSummary summarize_rung(std::vector<FrameOutcome> frames,
                           std::uint32_t batch, double rate_dps,
                           double limit_us, double max_fail_frac) {
  constexpr std::size_t kWindows = 10;
  std::sort(frames.begin(), frames.end(),
            [](const FrameOutcome& a, const FrameOutcome& b) {
              return a.due_ns < b.due_ns;
            });
  RungSummary s;
  s.rate_dps = rate_dps;
  s.frames = frames.size();
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(frames.size());
  std::uint64_t win_q = 0;
  for (const FrameOutcome& fr : frames) {
    s.attempted += batch;
    double us = fr.done_ns >= 0
                    ? static_cast<double>(fr.done_ns - fr.due_ns) / 1e3
                    : limit_us;
    if (fr.ok()) {
      s.answered += batch;
      s.hits += fr.hits;
      win_q += fr.win_q_sum;
    } else {
      s.failed += batch;
      us = std::max(us, limit_us);
      // Every frame the client sends is well formed: a kMalformed answer
      // is as wrong as an undecodable one.
      if (fr.kind == FrameKind::kBadReply || fr.kind == FrameKind::kMalformed) {
        ++s.bad_replies;
      }
    }
    latency.push_back(us);
    if (fr.sent_ns >= 0) {
      late.push_back(static_cast<double>(fr.sent_ns - fr.due_ns) / 1e3);
    }
  }
  s.p50_us = quantile(latency, 0.5);
  s.p99_us = quantile(latency, 0.99);
  s.send_late_p99_us = quantile(late, 0.99);
  std::vector<double> window_p50, window_p99;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t lo = latency.size() * w / kWindows;
    const std::size_t hi = latency.size() * (w + 1) / kWindows;
    if (hi > lo) {
      const std::vector<double> window(latency.begin() + lo,
                                       latency.begin() + hi);
      window_p50.push_back(quantile(window, 0.5));
      window_p99.push_back(quantile(window, 0.99));
    }
  }
  s.p50_windowed_us = median(window_p50);
  s.p99_windowed_us = median(window_p99);
  const double won = static_cast<double>(win_q) / 65535.0;
  s.win_prob_mean = ratio(won + kClassicalWin * static_cast<double>(s.failed),
                          static_cast<double>(s.attempted));
  s.answered_win_mean = ratio(won, static_cast<double>(s.answered));
  const std::size_t q = latency.size() / 4;
  if (q >= 2) {
    const std::vector<double> first(latency.begin(), latency.begin() + q);
    const std::vector<double> last(latency.end() - q, latency.end());
    s.backlog_growing = median(last) > median(first) + limit_us / 2.0;
  }
  s.meets_slo = s.frames > 0 && s.p99_us <= limit_us &&
                s.fail_frac() <= max_fail_frac && !s.backlog_growing;
  return s;
}

}  // namespace perfbench
