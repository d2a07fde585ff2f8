// The benchmark's own open-loop client for ftlcoordd.
//
// Built directly on the public coordd socket and codec functions
// (connect_tcp, write_frame, read_frame, encode_/decode_*), not on the
// daemon's bundled loadgen: every frame has a *due* time fixed in advance by
// a seeded Poisson schedule, and its latency runs from that due time, so a
// stall on either side charges every frame that queued behind it. The
// client also records how late it actually sent each frame.
//
// A run is a ladder of rungs. Each rung has fixed start, end and deadline
// times; a frame still unanswered at its rung's deadline (or never sent,
// because the daemon stopped reading and the socket stayed full) fails and
// is censored at the moment the deadline was observed. Replies to abandoned
// frames are discarded when they arrive: a connection answers in order, so
// the client only ever matches a reply against its oldest outstanding
// frame. Nothing in a rung waits past its deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

enum class FrameKind : std::uint8_t {
  kPending = 0,
  kOk,
  kRejected,    // admission control refused the batch
  kMalformed,   // the daemon could not decode the frame
  kBadReply,    // reply undecodable, wrong size, or out-of-range entry
  kUnanswered,  // sent, no reply by the rung deadline
  kUnsent,      // never left the client: socket full until the deadline, or broken
};

struct FrameOutcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;  // reply time, or when the failure was known
  FrameKind kind = FrameKind::kPending;
  std::uint32_t hits = 0;       // decisions that consumed a live pair
  std::uint64_t win_q_sum = 0;  // sum of win_q over the reply's entries

  [[nodiscard]] bool ok() const { return kind == FrameKind::kOk; }
};

/// One rung as the connection sees it: absolute steady-clock times.
struct RungPlan {
  std::int64_t deadline_ns = 0;  // unanswered frames fail here
  std::vector<std::int64_t> due_ns;
  bool traced = false;  // record spans during this rung
};

/// Seeded Poisson arrival offsets (ns from 0) in [0, seconds).
[[nodiscard]] std::vector<std::int64_t> poisson_offsets(double per_second,
                                                        double seconds,
                                                        ftl::util::Rng& rng);

struct ConnConfig {
  int fd = -1;
  std::uint32_t source = 0;
  std::uint32_t batch = 16;
  /// Deadline budget carried in each v2 frame (the daemon's own deadline
  /// counters use it; the client's latency does not depend on it).
  std::uint32_t deadline_us = 1500;
  std::uint64_t input_seed = 1;
};

/// What one connection saw over the ladder.
struct ConnRun {
  std::vector<std::vector<FrameOutcome>> rungs;  // per rung, in due order
  std::vector<double> cpu_s;                     // client thread CPU per rung
  std::uint64_t stray_replies = 0;  // replies with no frame outstanding
};

/// Drives one connection through every rung, open loop. Returns when the
/// last rung's deadline has passed (or earlier, when every frame of the
/// last rung is resolved). In rungs marked `traced`, spans wrap the codec
/// and socket calls.
ConnRun run_connection(const ConnConfig& cfg,
                       const std::vector<RungPlan>& plans);

/// Latency/quality summary of one rung (frames of every connection).
struct RungSummary {
  double rate_dps = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t attempted = 0;  // decisions
  std::uint64_t failed = 0;     // decisions in failed frames
  std::uint64_t answered = 0;   // decisions in kOk frames
  std::uint64_t hits = 0;
  std::uint64_t bad_replies = 0;  // kBadReply or kMalformed frames
  double p50_us = 0.0;            // latency from due time, failures censored
  double p99_us = 0.0;
  /// Medians over equal-count windows (in due order) of each window's p50
  /// and p99: estimates one burst of scheduler noise cannot swing.
  double p50_windowed_us = 0.0;
  double p99_windowed_us = 0.0;
  double send_late_p99_us = 0.0;
  /// Mean win probability per attempted decision; a failed decision is
  /// played with the endpoint's classical fallback (0.75).
  double win_prob_mean = 0.0;
  /// Mean win_q / 65535 over answered decisions only (0 when none).
  double answered_win_mean = 0.0;
  bool backlog_growing = false;
  bool meets_slo = false;

  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Failed frames count as over the latency limit: their latency is the
/// larger of (time the failure was known - due) and `limit_us`. Windowed
/// percentiles use 10 equal-count windows. The rung
/// meets the SLO when p99 <= limit, fail_frac <= max_fail_frac, and the
/// backlog is not growing (median latency of the last quarter of frames
/// exceeds the first quarter's by more than half the limit).
[[nodiscard]] RungSummary summarize_rung(std::vector<FrameOutcome> frames,
                                         std::uint32_t batch, double rate_dps,
                                         double limit_us,
                                         double max_fail_frac);

}  // namespace perfbench
