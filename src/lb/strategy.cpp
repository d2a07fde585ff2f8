#include "lb/strategy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ftl::lb {

void RandomStrategy::assign(const Arrivals& in, std::span<std::uint32_t> out,
                            const ClusterView& view, util::Rng& rng) {
  const std::size_t n = view.num_servers();
  for (std::size_t b = 0; b < in.balancers(); ++b) {
    if (in.active[b] == 0) continue;
    for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
      out[i] = static_cast<std::uint32_t>(rng.uniform_int(n));
    }
  }
}

void RoundRobinStrategy::assign(const Arrivals& in,
                                std::span<std::uint32_t> out,
                                const ClusterView& view, util::Rng& rng) {
  const std::size_t n = view.num_servers();
  if (next_.size() != in.balancers()) {
    next_.resize(in.balancers());
    for (auto& s : next_) s = rng.uniform_int(n);
  }
  for (std::size_t b = 0; b < in.balancers(); ++b) {
    if (in.active[b] == 0) continue;
    for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
      out[i] = static_cast<std::uint32_t>(next_[b]);
      next_[b] = (next_[b] + 1) % n;
    }
  }
}

void PowerOfTwoStrategy::assign(const Arrivals& in,
                                std::span<std::uint32_t> out,
                                const ClusterView& view, util::Rng& rng) {
  for (std::size_t b = 0; b < in.balancers(); ++b) {
    if (in.active[b] == 0) continue;
    for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
      const auto [s1, s2] = rng.distinct_pair(view.num_servers());
      out[i] = static_cast<std::uint32_t>(
          view.servers.queue_length(s1) <= view.servers.queue_length(s2) ? s1
                                                                          : s2);
    }
  }
}

PairedStrategy::PairedStrategy(
    std::unique_ptr<correlate::PairedDecisionSource> src)
    : source_(std::move(src)) {
  FTL_ASSERT(source_ != nullptr);
}

std::string PairedStrategy::name() const {
  return "paired(" + source_->name() + ")";
}

void PairedStrategy::assign(const Arrivals& in, std::span<std::uint32_t> out,
                            const ClusterView& view, util::Rng& rng) {
  FTL_ASSERT_MSG(in.balancers() % 2 == 0,
                 "paired strategy needs an even number of balancers");
  FTL_ASSERT_MSG(in.batch == 1, "paired strategy is defined for batch size 1");
  const std::size_t n = view.num_servers();
  FTL_ASSERT(n >= 2);
  // Tallied in a local and stored once per call: strategies of shards that
  // run at the same time may sit on one cache line.
  ChshTally rounds = rounds_;
  for (std::size_t p = 0; p + 1 < in.balancers(); p += 2) {
    const bool left = in.active[p] != 0;
    const bool right = in.active[p + 1] != 0;
    if (!left && !right) continue;  // neither balancer active (burst lull)
    // Shared randomness: both balancers of the pair pre-agree (e.g. via a
    // shared PRG seed) on this round's two candidate servers.
    const auto [s0, s1] = rng.distinct_pair(n);
    if (left && right) {
      const int x = in.types[p] == TaskType::kC ? 1 : 0;
      const int y = in.types[p + 1] == TaskType::kC ? 1 : 0;
      const auto [a, b] = source_->decide(x, y, rng);
      // Flipped-CHSH win condition: a XOR b == NOT(x AND y) — both-C pairs
      // co-locate, every other pair separates.
      const bool won = ((a ^ b) != 0) == !(x == 1 && y == 1);
      ++(won ? rounds.won : rounds.lost);
      out[p] = static_cast<std::uint32_t>(a == 0 ? s0 : s1);
      out[p + 1] = static_cast<std::uint32_t>(b == 0 ? s0 : s1);
    } else {
      // A lone active balancer sees only its own side of the correlation —
      // a uniform marginal — so it picks a candidate with a fair coin.
      out[left ? p : p + 1] =
          static_cast<std::uint32_t>(rng.bernoulli(0.5) ? s1 : s0);
    }
  }
  rounds_ = rounds;
}

DedicatedServersStrategy::DedicatedServersStrategy(double c_fraction)
    : c_fraction_(c_fraction) {
  FTL_ASSERT(c_fraction > 0.0 && c_fraction < 1.0);
}

std::string DedicatedServersStrategy::name() const {
  return "dedicated(f=" + std::to_string(c_fraction_) + ")";
}

void DedicatedServersStrategy::assign(const Arrivals& in,
                                      std::span<std::uint32_t> out,
                                      const ClusterView& view,
                                      util::Rng& rng) {
  // Servers [0, n_c) take C tasks, [n_c, M) take E tasks.
  const std::size_t n = view.num_servers();
  const auto n_c = std::max<std::size_t>(
      1, static_cast<std::size_t>(c_fraction_ * static_cast<double>(n)));
  FTL_ASSERT(n_c < n);
  for (std::size_t b = 0; b < in.balancers(); ++b) {
    if (in.active[b] == 0) continue;
    for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
      out[i] = static_cast<std::uint32_t>(
          in.types[i] == TaskType::kC ? rng.uniform_int(n_c)
                                      : n_c + rng.uniform_int(n - n_c));
    }
  }
}

void LocalBatchingStrategy::assign(const Arrivals& in,
                                   std::span<std::uint32_t> out,
                                   const ClusterView& view, util::Rng& rng) {
  const std::size_t n = view.num_servers();
  for (std::size_t b = 0; b < in.balancers(); ++b) {
    // Drawn for inactive balancers too; lb_golden_test pins this order.
    const std::size_t c_target = rng.uniform_int(n);
    if (in.active[b] == 0) continue;
    for (std::size_t i = b * in.batch; i < (b + 1) * in.batch; ++i) {
      out[i] = static_cast<std::uint32_t>(
          in.types[i] == TaskType::kC ? c_target : rng.uniform_int(n));
    }
  }
}

StrategyFactory source_factory(const std::string& source, double visibility) {
  if (source == "random") return strategy_factory<RandomStrategy>();
  return [source, visibility] {
    return std::make_unique<PairedStrategy>(
        correlate::make_source(source, visibility));
  };
}

}  // namespace ftl::lb
