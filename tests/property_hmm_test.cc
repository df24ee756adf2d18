// Property-based tests for the HMM kernels, parameterized over model
// shapes and random seeds (TEST_P sweeps): algebraic identities of
// forward/backward, optimality of Viterbi against exhaustive enumeration,
// EM monotonicity, and online/batch decoder agreement on random models.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "hmm/discrete_hmm.h"
#include "hmm/logspace.h"
#include "hmm/online_decoder.h"
#include "util/rng.h"

namespace sstd {
namespace {

// (num_states, num_symbols, seed)
using HmmShape = std::tuple<int, int, std::uint64_t>;

class RandomHmmProperty : public ::testing::TestWithParam<HmmShape> {
 protected:
  DiscreteHmm make_model() {
    const auto [states, symbols, seed] = GetParam();
    Rng rng(seed);
    return DiscreteHmm(states, symbols, rng);
  }

  std::vector<int> make_observations(std::size_t length) {
    const auto [states, symbols, seed] = GetParam();
    Rng rng(seed ^ 0xabcdef);
    std::vector<int> obs(length);
    for (auto& symbol : obs) {
      symbol = static_cast<int>(rng.below(symbols));
    }
    return obs;
  }
};

TEST_P(RandomHmmProperty, AlphaBetaProductIsConstantAcrossTime) {
  const DiscreteHmm hmm = make_model();
  const auto obs = make_observations(24);
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  const int X = hmm.num_states();
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = kLogZero;
    for (int i = 0; i < X; ++i) {
      total = log_add(total, fb.log_alpha[t * X + i] + fb.log_beta[t * X + i]);
    }
    ASSERT_NEAR(total, fb.log_likelihood, 1e-8) << "t=" << t;
  }
}

TEST_P(RandomHmmProperty, StreamingLikelihoodMatchesFullForwardBackward) {
  const DiscreteHmm hmm = make_model();
  const auto obs = make_observations(31);
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  EXPECT_NEAR(log_likelihood(hmm.core(), log_emit, obs.size()),
              fb.log_likelihood, 1e-9);
}

TEST_P(RandomHmmProperty, PosteriorsSumToOneEverywhere) {
  const DiscreteHmm hmm = make_model();
  const auto obs = make_observations(17);
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  const auto gamma = posterior_log_gamma(hmm.core(), fb, obs.size());
  const int X = hmm.num_states();
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = 0.0;
    for (int i = 0; i < X; ++i) total += std::exp(gamma[t * X + i]);
    ASSERT_NEAR(total, 1.0, 1e-8);
  }
}

TEST_P(RandomHmmProperty, ExpectedTransitionsMatchPosteriorMass) {
  // sum_j xi_sum[i][j] == sum_{t<T-1} gamma_t(i) for every state i.
  const DiscreteHmm hmm = make_model();
  const auto obs = make_observations(19);
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  const auto gamma = posterior_log_gamma(hmm.core(), fb, obs.size());
  const auto xi = expected_log_transitions(hmm.core(), log_emit, fb,
                                           obs.size());
  const int X = hmm.num_states();
  for (int i = 0; i < X; ++i) {
    double xi_total = 0.0;
    for (int j = 0; j < X; ++j) xi_total += std::exp(xi[i * X + j]);
    double gamma_total = 0.0;
    for (std::size_t t = 0; t + 1 < obs.size(); ++t) {
      gamma_total += std::exp(gamma[t * X + i]);
    }
    ASSERT_NEAR(xi_total, gamma_total, 1e-7) << "state " << i;
  }
}

TEST_P(RandomHmmProperty, ViterbiBeatsEveryEnumeratedPath) {
  const DiscreteHmm hmm = make_model();
  const int X = hmm.num_states();
  const auto obs = make_observations(7);  // X^7 paths, enumerable
  const auto path = hmm.decode(obs);

  auto score = [&](const std::vector<int>& states) {
    double lp = hmm.core().log_pi[states[0]] + hmm.log_b(states[0], obs[0]);
    for (std::size_t t = 1; t < obs.size(); ++t) {
      lp += hmm.core().log_a_at(states[t - 1], states[t]) +
            hmm.log_b(states[t], obs[t]);
    }
    return lp;
  };

  const double best = score(path);
  std::vector<int> candidate(obs.size(), 0);
  std::size_t total_paths = 1;
  for (std::size_t i = 0; i < obs.size(); ++i) total_paths *= X;
  for (std::size_t code = 0; code < total_paths; ++code) {
    std::size_t remaining = code;
    for (std::size_t t = 0; t < obs.size(); ++t) {
      candidate[t] = static_cast<int>(remaining % X);
      remaining /= X;
    }
    ASSERT_LE(score(candidate), best + 1e-9);
  }
}

TEST_P(RandomHmmProperty, OnlineViterbiTracebackEqualsBatch) {
  const DiscreteHmm hmm = make_model();
  const auto obs = make_observations(40);
  const auto batch = hmm.decode(obs);

  OnlineDecoder online(hmm.core());
  const int X = hmm.num_states();
  std::vector<double> log_emit(X);
  for (int symbol : obs) {
    for (int i = 0; i < X; ++i) log_emit[i] = hmm.log_b(i, symbol);
    online.step(hmm.core(), log_emit);
  }
  EXPECT_EQ(online.traceback(), batch);
}

TEST_P(RandomHmmProperty, BaumWelchNeverDecreasesLikelihood) {
  // EM guarantee: each iteration's total LL is non-decreasing. Probe by
  // fitting with increasing iteration caps from the same start.
  const auto [states, symbols, seed] = GetParam();
  const auto obs = make_observations(30);

  double previous = -std::numeric_limits<double>::infinity();
  for (int iterations : {1, 2, 4, 8}) {
    Rng rng(seed);
    DiscreteHmm model(states, symbols, rng);
    BaumWelchOptions options;
    options.max_iterations = iterations;
    options.restarts = 0;
    options.tolerance = 0.0;  // never early-stop
    model.fit({obs}, options);
    const double ll = model.sequence_log_likelihood(obs);
    ASSERT_GE(ll, previous - 1e-7) << "iterations=" << iterations;
    previous = ll;
  }
}

TEST_P(RandomHmmProperty, FitIsDeterministicForFixedSeed) {
  const auto [states, symbols, seed] = GetParam();
  const auto obs = make_observations(25);
  auto run = [&] {
    Rng rng(seed);
    DiscreteHmm model(states, symbols, rng);
    BaumWelchOptions options;
    options.seed = 99;
    model.fit({obs}, options);
    return model.sequence_log_likelihood(obs);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomHmmProperty,
    ::testing::Values(HmmShape{2, 3, 1}, HmmShape{2, 7, 2},
                      HmmShape{3, 4, 3}, HmmShape{4, 2, 4},
                      HmmShape{2, 5, 5}, HmmShape{3, 9, 6},
                      HmmShape{5, 3, 7}, HmmShape{2, 15, 8}));

}  // namespace
}  // namespace sstd
