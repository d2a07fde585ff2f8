// Correctness checks the benchmark applies to the program's outputs. Each is
// independent of the code it checks: identities over the daemon's own
// counters, closed-form bounds from the game, and exhaustive recomputation.
#pragma once

#include <cstdint>

#include "ftlcoordd/protocol.hpp"

namespace perfbench {

/// cos^2(pi/8): the Tsirelson-optimal CHSH win probability.
inline constexpr double kTsirelsonWin = 0.85355339059327373;
/// The optimal classical CHSH win probability.
inline constexpr double kClassicalWin = 0.75;

/// The kStats conservation identities: every generated pair was lost in
/// the fiber or delivered, and every delivered pair was consumed (a hit),
/// expired, dropped from a full pool, or is still in memory.
[[nodiscard]] bool stats_conserved(const ftl::coordd::StatsReply& s);

/// True when a mean win probability lies in [0.75 - tol, cos^2(pi/8) + tol]:
/// no decision source may do worse than the classical fallback or better
/// than Tsirelson's bound.
[[nodiscard]] bool win_mean_in_bounds(double mean, double tol);

/// Per-decision form of the same bound on the wire value (1/65535 units,
/// with one unit of rounding slack).
[[nodiscard]] bool win_q_in_bounds(std::uint16_t win_q);

/// True when `won` of `total` rounds is within `sigmas` binomial standard
/// deviations of the Tsirelson win probability.
[[nodiscard]] bool chsh_rate_within(std::uint64_t won, std::uint64_t total,
                                    double sigmas);

}  // namespace perfbench
