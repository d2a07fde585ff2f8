// Streaming and batch statistics used by every experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftl::util {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const;
  /// Half-width of an approximate 95% confidence interval (1.96 * sem).
  [[nodiscard]] double ci95_halfwidth() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

  /// Merges another accumulator (parallel Welford combination).
  void merge(const Accumulator& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linearly-interpolated percentile of a sample (q in [0,1]). Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// percentile() of the integer sample holding counts[v] copies of each v,
/// without expanding it; the same interpolation rule, so the same double.
[[nodiscard]] double percentile_of_counts(
    const std::vector<std::uint64_t>& counts, double q);

/// Sample mean of a vector (0 for empty input).
[[nodiscard]] double mean_of(const std::vector<double>& xs);

/// Wilson score interval half-width for a binomial proportion at 95%.
[[nodiscard]] double wilson_halfwidth(std::size_t successes, std::size_t trials);

}  // namespace ftl::util
