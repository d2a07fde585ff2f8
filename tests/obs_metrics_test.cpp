// Counter/gauge/histogram semantics, label handling, and snapshot
// consistency under concurrent writers. Tests target obs::real directly so
// they stay meaningful even if the build flips FTL_OBS_ENABLED.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/histogram.hpp"

namespace {

using ftl::obs::Labels;
using ftl::obs::real::Counter;
using ftl::obs::real::Gauge;
using ftl::obs::real::Histogram;
using ftl::obs::real::Registry;

TEST(ObsCounter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAddUpdateMax) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.update_max(4.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, MatchesUtilHistogramBinning) {
  // Same sample stream through both implementations must produce the same
  // counts, including the clamped under/overflow edge bins.
  Histogram h(0.0, 10.0, 5);
  ftl::util::Histogram ref(0.0, 10.0, 5);
  const double samples[] = {-1.0, 0.0, 1.9, 2.0, 5.5, 9.999, 10.0, 123.0};
  for (double x : samples) {
    h.observe(x);
    ref.add(x);
  }
  const ftl::obs::HistogramSample s = h.sample();
  ASSERT_EQ(s.counts.size(), ref.counts().size());
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    EXPECT_EQ(s.counts[i], ref.counts()[i]) << "bin " << i;
  }
  EXPECT_EQ(s.underflow, ref.underflow());
  EXPECT_EQ(s.overflow, ref.overflow());
  EXPECT_EQ(s.total, ref.total());
  // And the rebuilt util::Histogram agrees on quantiles.
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), ref.quantile(0.5));
}

TEST(ObsHistogram, ObserveNIsBulkObserve) {
  Histogram bulk(0.0, 10.0, 5);
  Histogram one_by_one(0.0, 10.0, 5);
  for (double x : {-1.0, 0.0, 3.5, 9.999, 10.0, 42.0}) {
    bulk.observe_n(x, 3);
    for (int i = 0; i < 3; ++i) one_by_one.observe(x);
  }
  const ftl::obs::HistogramSample a = bulk.sample();
  const ftl::obs::HistogramSample b = one_by_one.sample();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.underflow, b.underflow);
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.total, 18u);
}

TEST(ObsHistogram, ResetKeepsShape) {
  Histogram h(0.0, 1.0, 4);
  h.observe(0.3);
  h.observe(2.0);
  h.reset();
  const auto s = h.sample();
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_EQ(s.counts.size(), 4u);
  EXPECT_DOUBLE_EQ(s.lo, 0.0);
  EXPECT_DOUBLE_EQ(s.hi, 1.0);
}

TEST(ObsRegistry, SameKeyReturnsSameMetric) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsRegistry, LabelsDistinguishMetrics) {
  Registry r;
  Counter& plain = r.counter("won");
  Counter& red = r.counter("won", Labels{{"team", "red"}});
  Counter& blue = r.counter("won", Labels{{"team", "blue"}});
  EXPECT_NE(&plain, &red);
  EXPECT_NE(&red, &blue);
  red.inc(2);
  blue.inc(3);

  const ftl::obs::Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  std::uint64_t red_v = 0;
  std::uint64_t blue_v = 0;
  for (const auto& c : snap.counters) {
    if (c.labels == Labels{{"team", "red"}}) red_v = c.value;
    if (c.labels == Labels{{"team", "blue"}}) blue_v = c.value;
  }
  EXPECT_EQ(red_v, 2u);
  EXPECT_EQ(blue_v, 3u);
}

TEST(ObsRegistry, HistogramShapeFixedAtFirstRegistration) {
  Registry r;
  Histogram& h1 = r.histogram("h", 0.0, 10.0, 5);
  Histogram& h2 = r.histogram("h", -1.0, 99.0, 7);  // ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.lo(), 0.0);
  EXPECT_DOUBLE_EQ(h2.hi(), 10.0);
  EXPECT_EQ(h2.bins(), 5u);
}

TEST(ObsRegistry, ResetZeroesButKeepsReferences) {
  Registry r;
  Counter& c = r.counter("c");
  Gauge& g = r.gauge("g");
  Histogram& h = r.histogram("h", 0.0, 1.0, 2);
  c.inc(5);
  g.set(7.0);
  h.observe(0.5);
  r.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.sample().total, 0u);
  c.inc();  // reference still valid after reset
  EXPECT_EQ(r.snapshot().counters.front().value, 1u);
}

TEST(ObsRegistry, SnapshotUnderConcurrentWriters) {
  Registry r;
  Counter& c = r.counter("hits");
  Histogram& h = r.histogram("lat", 0.0, 100.0, 10);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>((t * 37 + i) % 100));
      }
    });
  }
  // Snapshots taken mid-flight must be internally sane (never exceed the
  // final totals, never crash).
  for (int probe = 0; probe < 50; ++probe) {
    const auto snap = r.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_LE(snap.counters[0].value,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
  for (auto& w : workers) w.join();

  const auto snap = r.snapshot();
  EXPECT_EQ(snap.counters[0].value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].total,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsSnapshot, ToHistogramRoundTrip) {
  Histogram h(0.0, 4.0, 4);
  for (double x : {0.5, 1.5, 1.6, 2.5, 3.5, -1.0, 9.0}) h.observe(x);
  const ftl::obs::HistogramSample s = h.sample();
  const ftl::util::Histogram rebuilt = s.to_histogram();
  EXPECT_EQ(rebuilt.total(), s.total);
  EXPECT_EQ(rebuilt.underflow(), s.underflow);
  EXPECT_EQ(rebuilt.overflow(), s.overflow);
  EXPECT_EQ(rebuilt.counts(), s.counts);
}

}  // namespace
