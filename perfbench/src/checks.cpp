#include "checks.hpp"

#include <cmath>

namespace perfbench {

bool stats_conserved(const ftl::coordd::StatsReply& s) {
  return s.pairs_generated == s.pairs_lost_fiber + s.pairs_delivered &&
         s.pairs_delivered == s.hits + s.pairs_expired +
                                  s.pairs_dropped_full + s.pairs_in_memory;
}

bool win_mean_in_bounds(double mean, double tol) {
  return mean >= kClassicalWin - tol && mean <= kTsirelsonWin + tol;
}

bool win_q_in_bounds(std::uint16_t win_q) {
  const double lo = kClassicalWin * 65535.0 - 1.0;
  const double hi = kTsirelsonWin * 65535.0 + 1.0;
  return win_q >= lo && win_q <= hi;
}

bool chsh_rate_within(std::uint64_t won, std::uint64_t total, double sigmas) {
  if (total == 0) return false;
  const double n = static_cast<double>(total);
  const double sigma = std::sqrt(kTsirelsonWin * (1.0 - kTsirelsonWin) / n);
  return std::fabs(static_cast<double>(won) / n - kTsirelsonWin) <=
         sigmas * sigma;
}

}  // namespace perfbench
