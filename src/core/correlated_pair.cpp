#include "core/correlated_pair.hpp"

#include <algorithm>
#include <cmath>

#include "qnet/decoherence.hpp"
#include "util/assert.hpp"

namespace ftl::core {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kIndependent:
      return "independent";
    case Backend::kClassicalShared:
      return "classical-shared";
    case Backend::kQuantum:
      return "quantum";
    case Backend::kOmniscient:
      return "omniscient";
  }
  return "?";
}

CorrelatedPair::CorrelatedPair(const PairConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  FTL_ASSERT(cfg.visibility >= 0.0 && cfg.visibility <= 1.0);
  FTL_ASSERT(cfg.detector_efficiency >= 0.0 &&
             cfg.detector_efficiency <= 1.0);
  if (cfg_.supply) {
    FTL_ASSERT(cfg_.round_rate_hz > 0.0);
    qnet::LiveBrokerConfig broker_cfg;
    broker_cfg.qnet = *cfg_.supply;
    broker_cfg.qnet.source_visibility = cfg_.visibility;
    const double window_s = std::min(
        broker_cfg.qnet.max_storage_s,
        qnet::useful_storage_window_s(cfg_.visibility,
                                      broker_cfg.qnet.memory_t1_s,
                                      broker_cfg.qnet.memory_t2_s));
    if (window_s > 0.0) {
      broker_ = std::make_unique<qnet::LiveBroker>(broker_cfg, rng_.next_u64());
    }
  }
  begin_round();
}

void CorrelatedPair::begin_round() {
  decided_[0] = decided_[1] = false;
  round_state_.reset();
  shared_bit_ = rng_.bernoulli(0.5) ? 1 : 0;

  if (cfg_.backend != Backend::kQuantum) {
    round_is_quantum_ = false;
    return;
  }

  if (cfg_.supply) {
    // Advance physical time to this round and take the freshest live pair
    // from the pool; none means a classical fallback round.
    sim_time_s_ += rng_.exponential(cfg_.round_rate_hz);
    const qnet::LiveBroker::Decision d =
        broker_ ? broker_->decide(0, 0, sim_time_s_)
                : qnet::LiveBroker::Decision{};
    if (!d.quantum) {
      round_is_quantum_ = false;
      return;
    }
    round_state_ = qnet::pair_state_after_storage(
        cfg_.visibility, d.pair_age_s, d.pair_age_s,
        cfg_.supply->memory_t1_s, cfg_.supply->memory_t2_s);
  } else {
    round_state_ = qcore::Density::werner(cfg_.visibility);
  }
  round_is_quantum_ = true;
}

int CorrelatedPair::decide(int endpoint, int input_bit) {
  FTL_ASSERT(endpoint == 0 || endpoint == 1);
  FTL_ASSERT(input_bit == 0 || input_bit == 1);
  FTL_ASSERT_MSG(!decided_[endpoint],
                 "endpoint already decided in this round");
  inputs_[endpoint] = input_bit;

  int out = 0;
  if (round_is_quantum_ && rng_.bernoulli(cfg_.detector_efficiency)) {
    // Honest local measurement on this endpoint's half of the pair.
    const qcore::CMat basis =
        games::chsh_basis(games::chsh_optimal_angles(), endpoint, input_bit,
                          /*flip_output=*/endpoint == 1);
    out = round_state_->measure(static_cast<std::size_t>(endpoint), basis,
                                rng_);
  } else if (round_is_quantum_) {
    // Detector failure: this endpoint falls back to the shared bit; the
    // partner's measurement is now uncorrelated with it.
    out = endpoint == 0 ? shared_bit_ : (1 ^ shared_bit_);
  } else {
    switch (cfg_.backend) {
      case Backend::kIndependent:
        out = rng_.bernoulli(0.5) ? 1 : 0;
        break;
      case Backend::kOmniscient: {
        // Testbed cheat: the *second* caller can see both inputs.
        const bool other_decided = decided_[1 - endpoint];
        if (!other_decided) {
          out = shared_bit_;
        } else {
          const int target =
              (inputs_[0] == 1 && inputs_[1] == 1) ? 0 : 1;
          out = shared_bit_ ^ target;
        }
        break;
      }
      case Backend::kClassicalShared:
      case Backend::kQuantum:  // quantum backend falling back this round
        out = endpoint == 0 ? shared_bit_ : (1 ^ shared_bit_);
        break;
    }
  }

  outputs_[endpoint] = out;
  decided_[endpoint] = true;
  if (decided_[0] && decided_[1]) finish_round();
  return out;
}

void CorrelatedPair::finish_round() {
  ++stats_.rounds;
  if (round_is_quantum_) {
    ++stats_.quantum_rounds;
  } else if (cfg_.backend == Backend::kQuantum) {
    ++stats_.fallback_rounds;
  }
  const int target = (inputs_[0] == 1 && inputs_[1] == 1) ? 0 : 1;
  if ((outputs_[0] ^ outputs_[1]) == target) ++stats_.wins;
  begin_round();
}

double CorrelatedPair::expected_win_probability() const {
  switch (cfg_.backend) {
    case Backend::kIndependent:
      return 0.5;
    case Backend::kClassicalShared:
      return 0.75;
    case Backend::kOmniscient:
      return 1.0;
    case Backend::kQuantum:
      return 0.5 * (1.0 + cfg_.visibility / std::sqrt(2.0));
  }
  return 0.0;
}

}  // namespace ftl::core
