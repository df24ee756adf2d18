// Unit + property tests for src/hmm: log-space kernels, Baum-Welch
// convergence, Viterbi correctness (batch and online), quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hmm/discrete_hmm.h"
#include "hmm/gaussian_hmm.h"
#include "hmm/hmm_core.h"
#include "hmm/logspace.h"
#include "hmm/online_decoder.h"
#include "hmm/quantizer.h"
#include "util/rng.h"

namespace sstd {
namespace {

TEST(LogSpace, LogAddBasics) {
  EXPECT_DOUBLE_EQ(log_add(kLogZero, std::log(0.5)), std::log(0.5));
  EXPECT_DOUBLE_EQ(log_add(std::log(0.5), kLogZero), std::log(0.5));
  EXPECT_NEAR(log_add(std::log(0.3), std::log(0.2)), std::log(0.5), 1e-12);
  // Symmetric.
  EXPECT_DOUBLE_EQ(log_add(std::log(1e-300), std::log(1e-10)),
                   log_add(std::log(1e-10), std::log(1e-300)));
}

TEST(LogSpace, NoOverflowForExtremeRatios) {
  const double big = std::log(1e300);
  const double small = std::log(1e-300);
  EXPECT_NEAR(log_add(big, small), big, 1e-9);
}

// Builds a deterministic 2-state 2-symbol model for closed-form checks.
DiscreteHmm make_simple_model() {
  Rng rng(1);
  DiscreteHmm hmm(2, 2, rng);
  hmm.set_pi(0, 0.6);
  hmm.set_pi(1, 0.4);
  hmm.set_a(0, 0, 0.7);
  hmm.set_a(0, 1, 0.3);
  hmm.set_a(1, 0, 0.4);
  hmm.set_a(1, 1, 0.6);
  hmm.set_b(0, 0, 0.9);
  hmm.set_b(0, 1, 0.1);
  hmm.set_b(1, 0, 0.2);
  hmm.set_b(1, 1, 0.8);
  return hmm;
}

TEST(Forward, MatchesHandComputedLikelihood) {
  DiscreteHmm hmm = make_simple_model();
  // P(obs = [0, 1]) computed by enumeration:
  // sum over s1,s2 of pi(s1) b(s1,0) a(s1,s2) b(s2,1).
  double expected = 0.0;
  const double pi[2] = {0.6, 0.4};
  const double a[2][2] = {{0.7, 0.3}, {0.4, 0.6}};
  const double b[2][2] = {{0.9, 0.1}, {0.2, 0.8}};
  for (int s1 = 0; s1 < 2; ++s1) {
    for (int s2 = 0; s2 < 2; ++s2) {
      expected += pi[s1] * b[s1][0] * a[s1][s2] * b[s2][1];
    }
  }
  EXPECT_NEAR(hmm.sequence_log_likelihood({0, 1}), std::log(expected), 1e-12);
}

TEST(ForwardBackward, AlphaBetaConsistency) {
  // For every t, sum_i alpha_t(i) * beta_t(i) equals the total likelihood.
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{0, 1, 1, 0, 0, 1};
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = kLogZero;
    for (int i = 0; i < 2; ++i) {
      total = log_add(total, fb.log_alpha[t * 2 + i] + fb.log_beta[t * 2 + i]);
    }
    EXPECT_NEAR(total, fb.log_likelihood, 1e-9);
  }
}

TEST(PosteriorGamma, RowsSumToOne) {
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{1, 0, 1, 1, 0};
  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  const auto gamma = posterior_log_gamma(hmm.core(), fb, obs.size());
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double total = 0.0;
    for (int i = 0; i < 2; ++i) total += std::exp(gamma[t * 2 + i]);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Viterbi, RecoverStatesOnNearDeterministicModel) {
  Rng rng(2);
  DiscreteHmm hmm(2, 2, rng);
  hmm.set_pi(0, 0.5);
  hmm.set_pi(1, 0.5);
  hmm.set_a(0, 0, 0.9);
  hmm.set_a(0, 1, 0.1);
  hmm.set_a(1, 0, 0.1);
  hmm.set_a(1, 1, 0.9);
  hmm.set_b(0, 0, 0.95);
  hmm.set_b(0, 1, 0.05);
  hmm.set_b(1, 0, 0.05);
  hmm.set_b(1, 1, 0.95);
  const std::vector<int> obs{0, 0, 0, 1, 1, 1, 0, 0};
  const auto path = hmm.decode(obs);
  const std::vector<int> expected{0, 0, 0, 1, 1, 1, 0, 0};
  EXPECT_EQ(path, expected);
}

TEST(Viterbi, PathLikelihoodIsMaximalAmongEnumeratedPaths) {
  // Property check on a short sequence: Viterbi's path must score at least
  // as high as every other path (exhaustive enumeration, 2^5 paths).
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{0, 1, 0, 0, 1};
  const auto path = hmm.decode(obs);

  auto path_log_prob = [&](const std::vector<int>& states) {
    const auto& core = hmm.core();
    double lp = core.log_pi[states[0]] + hmm.log_b(states[0], obs[0]);
    for (std::size_t t = 1; t < obs.size(); ++t) {
      lp += core.log_a_at(states[t - 1], states[t]) +
            hmm.log_b(states[t], obs[t]);
    }
    return lp;
  };

  const double viterbi_score = path_log_prob(path);
  for (int mask = 0; mask < (1 << 5); ++mask) {
    std::vector<int> candidate(5);
    for (int t = 0; t < 5; ++t) candidate[t] = (mask >> t) & 1;
    EXPECT_LE(path_log_prob(candidate), viterbi_score + 1e-12);
  }
}

TEST(BaumWelch, ImprovesLikelihoodMonotonically) {
  // Generate data from a known model, fit from a random start, and check
  // the final likelihood beats the initial one.
  Rng rng(3);
  DiscreteHmm truth = make_simple_model();

  // Sample sequences from the true model.
  auto sample_sequence = [&](std::size_t T) {
    std::vector<int> obs(T);
    int state = rng.bernoulli(0.4) ? 1 : 0;
    for (std::size_t t = 0; t < T; ++t) {
      const double emit_p1 = std::exp(truth.log_b(state, 1));
      obs[t] = rng.bernoulli(emit_p1) ? 1 : 0;
      const double stay =
          std::exp(truth.core().log_a_at(state, state));
      if (!rng.bernoulli(stay)) state = 1 - state;
    }
    return obs;
  };

  std::vector<std::vector<int>> sequences;
  for (int s = 0; s < 20; ++s) sequences.push_back(sample_sequence(60));

  Rng init_rng(4);
  DiscreteHmm model(2, 2, init_rng);
  double initial_ll = 0.0;
  for (const auto& seq : sequences) {
    initial_ll += model.sequence_log_likelihood(seq);
  }

  BaumWelchOptions options;
  options.restarts = 2;
  const TrainStats stats = model.fit(sequences, options);
  EXPECT_GT(stats.log_likelihood, initial_ll);
  EXPECT_GT(stats.iterations, 0);

  double final_ll = 0.0;
  for (const auto& seq : sequences) {
    final_ll += model.sequence_log_likelihood(seq);
  }
  EXPECT_NEAR(final_ll, stats.log_likelihood, std::abs(final_ll) * 0.05 + 5.0);
}

TEST(BaumWelch, EmissionsStayNormalized) {
  Rng rng(5);
  DiscreteHmm model(2, 3, rng);
  std::vector<std::vector<int>> sequences{{0, 1, 2, 2, 1, 0, 0, 2},
                                          {2, 2, 1, 0, 1, 2, 0, 1}};
  model.fit(sequences);
  for (int i = 0; i < 2; ++i) {
    double row = 0.0;
    for (int y = 0; y < 3; ++y) row += std::exp(model.log_b(i, y));
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(BaumWelch, EmptyInputIsSafe) {
  Rng rng(6);
  DiscreteHmm model(2, 2, rng);
  const TrainStats stats = model.fit({});
  EXPECT_EQ(stats.iterations, 0);
}

TEST(TruthHmm, InformedInitPrefersCorrectStates) {
  DiscreteHmm hmm = make_truth_hmm(7);
  // State 1 (true) should emit high symbols more than state 0.
  EXPECT_GT(hmm.log_b(1, 6), hmm.log_b(0, 6));
  EXPECT_GT(hmm.log_b(0, 0), hmm.log_b(1, 0));
  // Sticky transitions.
  EXPECT_GT(std::exp(hmm.core().log_a_at(0, 0)), 0.8);
  EXPECT_GT(std::exp(hmm.core().log_a_at(1, 1)), 0.8);
}

TEST(TruthHmm, CanonicalizeSwapsInvertedModel) {
  DiscreteHmm hmm = make_truth_hmm(5);
  // Manually invert the emission rows so state 0 looks like "true".
  DiscreteHmm inverted = hmm;
  for (int y = 0; y < 5; ++y) {
    inverted.set_b(0, y, std::exp(hmm.log_b(1, y)));
    inverted.set_b(1, y, std::exp(hmm.log_b(0, y)));
  }
  EXPECT_TRUE(inverted.canonicalize_truth_states());
  EXPECT_NEAR(inverted.log_b(1, 4), hmm.log_b(1, 4), 1e-12);
  EXPECT_FALSE(inverted.canonicalize_truth_states());  // already canonical
}

TEST(Quantizer, SymmetricBinning) {
  AcsQuantizer q(7, 3.0);
  EXPECT_EQ(q.quantize(0.0), 3);       // middle bin
  EXPECT_EQ(q.quantize(3.0), 6);       // saturated positive
  EXPECT_EQ(q.quantize(-3.0), 0);      // saturated negative
  EXPECT_EQ(q.quantize(100.0), 6);     // clamps
  EXPECT_EQ(q.quantize(-100.0), 0);
  EXPECT_EQ(q.quantize(1.0), 4);       // 1/3 of scale -> first positive bin
  EXPECT_EQ(q.quantize(-1.0), 2);
}

TEST(Quantizer, RoundTripBinCenters) {
  AcsQuantizer q(9, 2.0);
  for (int y = 0; y < 9; ++y) {
    EXPECT_EQ(q.quantize(q.bin_center(y)), y);
  }
}

TEST(Quantizer, RejectsEvenOrTinyBins) {
  EXPECT_THROW(AcsQuantizer(4, 1.0), std::invalid_argument);
  EXPECT_THROW(AcsQuantizer(1, 1.0), std::invalid_argument);
  EXPECT_THROW(AcsQuantizer(5, 0.0), std::invalid_argument);
}

TEST(Quantizer, FitUsesPercentileOfMagnitudes) {
  std::vector<std::vector<double>> series{{1.0, -2.0, 0.0, 4.0},
                                          {-1.0, 3.0}};
  const AcsQuantizer q = AcsQuantizer::fit(series, 5, 1.0);
  EXPECT_DOUBLE_EQ(q.scale(), 4.0);  // max magnitude at q=1.0
  const AcsQuantizer q50 = AcsQuantizer::fit(series, 5, 0.5);
  EXPECT_LT(q50.scale(), 4.0);
}

TEST(Quantizer, FitAllZerosFallsBack) {
  const AcsQuantizer q = AcsQuantizer::fit({{0.0, 0.0}}, 5);
  EXPECT_DOUBLE_EQ(q.scale(), 1.0);
}

TEST(Quantizer, FitConstantSeriesSaturatesAtThatMagnitude) {
  // Constant nonzero ACS: every percentile is that value, so the constant
  // lands exactly on the outermost bin and its negation on the other end.
  const std::vector<std::vector<double>> series{{2.5, 2.5, 2.5, 2.5}};
  const AcsQuantizer q = AcsQuantizer::fit(series, 7);
  EXPECT_DOUBLE_EQ(q.scale(), 2.5);
  EXPECT_EQ(q.quantize(2.5), 6);
  EXPECT_EQ(q.quantize(-2.5), 0);
  EXPECT_EQ(q.quantize(0.0), 3);
}

TEST(Quantizer, SeriesIntoReusesCallerBuffer) {
  const AcsQuantizer q(5, 2.0);
  std::vector<int> out(128, -1);  // oversized scratch from a previous claim
  q.quantize_series_into({-3.0, 0.0, 3.0}, out);
  EXPECT_EQ(out, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(q.quantize_series({-3.0, 0.0, 3.0}), out);
}

// OnlineViterbi.* cases test the Viterbi half of OnlineDecoder and
// OnlineForward.* cases its forward-filter half.
TEST(OnlineViterbi, MatchesBatchViterbiFiltered) {
  // The online decoder's full traceback after consuming the sequence must
  // equal batch Viterbi.
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{0, 1, 1, 0, 1, 0, 0, 1, 1, 1};
  const auto batch = hmm.decode(obs);

  OnlineDecoder online(hmm.core());
  for (int y : obs) {
    std::vector<double> log_emit{hmm.log_b(0, y), hmm.log_b(1, y)};
    online.step(hmm.core(), log_emit);
  }
  EXPECT_EQ(online.traceback(), batch);
  EXPECT_EQ(online.current_state(), batch.back());
}

TEST(OnlineViterbi, LaggedStateReadsBackwards) {
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{0, 0, 1, 1};
  OnlineDecoder online(hmm.core());
  for (int y : obs) {
    online.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  const auto path = online.traceback();
  EXPECT_EQ(online.lagged_state(0), path[3]);
  EXPECT_EQ(online.lagged_state(1), path[2]);
  EXPECT_EQ(online.lagged_state(3), path[0]);
  EXPECT_THROW(online.lagged_state(4), std::out_of_range);
}

TEST(OnlineViterbi, LongStreamStaysFinite) {
  // Frontier renormalization must prevent -inf/NaN drift over long
  // streams; the traceback stays a valid path over the whole history.
  DiscreteHmm hmm = make_simple_model();
  OnlineDecoder online(hmm.core());
  Rng rng(8);
  for (int t = 0; t < 100000; ++t) {
    const int y = rng.bernoulli(0.5) ? 1 : 0;
    online.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  EXPECT_NO_FATAL_FAILURE(online.current_state());
  EXPECT_EQ(online.traceback().size(), 100000u);
  EXPECT_TRUE(std::isfinite(online.probability_true()));
}

TEST(OnlineViterbi, LagWindowLargerThanStreamIsBounded) {
  // Lags far beyond the observations actually seen: reads up to
  // steps() - 1 work, anything past the real stream throws.
  DiscreteHmm hmm = make_simple_model();
  OnlineDecoder online(hmm.core());
  for (int y : {0, 1, 1}) {
    online.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  EXPECT_EQ(online.steps(), 3u);
  EXPECT_NO_THROW(online.lagged_state(2));
  EXPECT_THROW(online.lagged_state(3), std::out_of_range);
  EXPECT_THROW(online.lagged_state(64), std::out_of_range);
}

TEST(OnlineViterbi, EmptyStreamHasNoState) {
  DiscreteHmm hmm = make_simple_model();
  const OnlineDecoder online(hmm.core());
  EXPECT_EQ(online.steps(), 0u);
  EXPECT_TRUE(online.traceback().empty());
  EXPECT_THROW(online.current_state(), std::logic_error);
  EXPECT_THROW(online.lagged_state(0), std::out_of_range);
}

TEST(OnlineViterbi, ResetMatchesFreshDecoder) {
  // reset() (the streaming-refit path) must leave no trace of the previous
  // stream: a reused decoder and a fresh one decode and filter
  // identically.
  DiscreteHmm hmm = make_simple_model();
  OnlineDecoder reused(hmm.core());
  for (int t = 0; t < 20; ++t) {
    const int y = t % 2;
    reused.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  reused.reset(hmm.core());
  EXPECT_EQ(reused.steps(), 0u);

  OnlineDecoder fresh(hmm.core());
  for (int y : {1, 0, 0, 1, 1, 0, 1}) {
    reused.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
    fresh.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  EXPECT_EQ(reused.traceback(), fresh.traceback());
  EXPECT_EQ(reused.current_state(), fresh.current_state());
  EXPECT_EQ(reused.probability_true(), fresh.probability_true());
}

TEST(OnlineForward, ResetRestoresUniformPrior) {
  DiscreteHmm hmm = make_simple_model();
  OnlineDecoder filter(hmm.core());
  for (int y : {1, 1, 1}) {
    filter.step(hmm.core(), {hmm.log_b(0, y), hmm.log_b(1, y)});
  }
  EXPECT_NE(filter.probability_true(), 0.5);
  filter.reset(hmm.core());
  EXPECT_EQ(filter.steps(), 0u);
  EXPECT_DOUBLE_EQ(filter.probability_true(), 0.5);
}

TEST(Viterbi, SingleObservationSequence) {
  // T = 1: the decode is the prior-weighted emission argmax, identical
  // under both arithmetic engines.
  DiscreteHmm hmm = make_simple_model();
  const std::vector<int> obs{1};
  const auto path = hmm.decode(obs);
  ASSERT_EQ(path.size(), 1u);
  const LogMatrix log_emit = hmm.emission_log_probs(obs);
  EXPECT_EQ(path, viterbi(hmm.core(), log_emit, 1, HmmEngine::kLogSpace));
  // pi(1)*b_1(1) = 0.4*0.8 beats pi(0)*b_0(1) = 0.6*0.1.
  EXPECT_EQ(path[0], 1);
}

TEST(BaumWelch, SingleStepSequenceIsSafe) {
  // A claim observed for exactly one interval must train without blowing
  // up (no transition evidence exists; smoothing carries the M-step).
  DiscreteHmm hmm = make_truth_hmm(5);
  BaumWelchOptions options;
  options.max_iterations = 3;
  const TrainStats stats = hmm.fit({{2}}, options);
  EXPECT_GE(stats.iterations, 1);
  EXPECT_TRUE(std::isfinite(stats.log_likelihood));
  EXPECT_EQ(hmm.decode({2}).size(), 1u);
}

TEST(GaussianHmm, RecoversSeparatedStates) {
  Rng rng(9);
  // Data: 30 points near -2 then 30 near +2, twice.
  std::vector<std::vector<double>> sequences;
  for (int s = 0; s < 2; ++s) {
    std::vector<double> seq;
    for (int rep = 0; rep < 2; ++rep) {
      for (int i = 0; i < 30; ++i) seq.push_back(-2.0 + 0.3 * rng.normal());
      for (int i = 0; i < 30; ++i) seq.push_back(2.0 + 0.3 * rng.normal());
    }
    sequences.push_back(std::move(seq));
  }

  GaussianHmm model = make_truth_gaussian_hmm(1.0);
  model.fit(sequences);
  model.canonicalize_truth_states();
  EXPECT_NEAR(model.mean(0), -2.0, 0.4);
  EXPECT_NEAR(model.mean(1), 2.0, 0.4);

  const auto path = model.decode(sequences[0]);
  int correct = 0;
  for (std::size_t t = 0; t < path.size(); ++t) {
    const int expected = (t / 30) % 2;
    correct += (path[t] == expected);
  }
  EXPECT_GT(correct, static_cast<int>(path.size() * 9) / 10);
}

TEST(GaussianHmm, VarianceFloorHolds) {
  GaussianHmm model = make_truth_gaussian_hmm(0.5);
  // Constant observations would collapse variance without the floor.
  std::vector<std::vector<double>> sequences{std::vector<double>(50, 0.25)};
  model.fit(sequences);
  EXPECT_GE(model.variance(0), 1e-4);
  EXPECT_GE(model.variance(1), 1e-4);
}

TEST(GaussianHmm, CanonicalizeOrdersByMean) {
  GaussianHmm model = make_truth_gaussian_hmm(1.0);
  // Swap means so state 1 sits below state 0.
  model.set_state(0, 1.0, 0.5);
  model.set_state(1, -1.0, 0.5);
  EXPECT_TRUE(model.canonicalize_truth_states());
  EXPECT_GT(model.mean(1), model.mean(0));
}

TEST(RandomCore, RowsAreStochastic) {
  Rng rng(10);
  const HmmCore core = random_core(3, rng);
  for (int i = 0; i < 3; ++i) {
    double row = 0.0;
    for (int j = 0; j < 3; ++j) row += std::exp(core.log_a_at(i, j));
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
  double pi = 0.0;
  for (int i = 0; i < 3; ++i) pi += std::exp(core.log_pi[i]);
  EXPECT_NEAR(pi, 1.0, 1e-9);
}

}  // namespace
}  // namespace sstd
