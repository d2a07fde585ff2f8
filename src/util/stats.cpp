#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ftl::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sem() const {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double Accumulator::ci95_halfwidth() const { return 1.96 * sem(); }

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double percentile(std::vector<double> xs, double q) {
  FTL_ASSERT(!xs.empty());
  FTL_ASSERT(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double percentile_of_counts(const std::vector<std::uint64_t>& counts,
                            double q) {
  FTL_ASSERT(q >= 0.0 && q <= 1.0);
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  FTL_ASSERT(n > 0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, n - 1);
  // The value at `rank` of the sorted sample.
  const auto value_at = [&counts](std::uint64_t rank) {
    std::uint64_t upto = 0;
    std::size_t v = 0;
    while ((upto += counts[v]) <= rank) ++v;
    return static_cast<double>(v);
  };
  const double frac = pos - static_cast<double>(lo);
  return value_at(lo) * (1.0 - frac) + value_at(hi) * frac;
}

double mean_of(const std::vector<double>& xs) {
  Accumulator acc;
  for (double x : xs) acc.add(x);
  return acc.mean();
}

double wilson_halfwidth(std::size_t successes, std::size_t trials) {
  if (trials == 0) return 0.0;
  const double z = 1.96;
  const auto n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  return (z / (1.0 + z2 / n)) *
         std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
}

}  // namespace ftl::util
