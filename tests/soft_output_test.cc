// Tests for the probabilistic (soft) truth outputs: the online forward
// filter, batch posteriors, streaming probabilities and the Brier score.
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "hmm/discrete_hmm.h"
#include "hmm/logspace.h"
#include "hmm/online_decoder.h"
#include "sstd/batch.h"
#include "sstd/streaming.h"
#include "trace/generator.h"
#include "util/rng.h"

namespace sstd {
namespace {

DiscreteHmm simple_model() {
  Rng rng(1);
  DiscreteHmm hmm(2, 2, rng);
  hmm.set_pi(0, 0.5);
  hmm.set_pi(1, 0.5);
  hmm.set_a(0, 0, 0.8);
  hmm.set_a(0, 1, 0.2);
  hmm.set_a(1, 0, 0.2);
  hmm.set_a(1, 1, 0.8);
  hmm.set_b(0, 0, 0.9);
  hmm.set_b(0, 1, 0.1);
  hmm.set_b(1, 0, 0.1);
  hmm.set_b(1, 1, 0.9);
  return hmm;
}

std::vector<double> emit_log(const DiscreteHmm& hmm, int symbol) {
  return {hmm.log_b(0, symbol), hmm.log_b(1, symbol)};
}

// The forward-filter half of OnlineDecoder.
TEST(OnlineForward, MatchesHandComputedFilter) {
  const DiscreteHmm hmm = simple_model();
  OnlineDecoder filter(hmm.core());
  // After one observation of symbol 1:
  // alpha = pi .* b(:,1) = (0.5*0.1, 0.5*0.9) -> P(s=1) = 0.9.
  filter.step(hmm.core(), emit_log(hmm, 1));
  EXPECT_NEAR(filter.probability_true(), 0.9, 1e-12);

  // Second observation symbol 1:
  // predict: p0 = 0.1*0.8 + 0.9*0.2 = 0.26; p1 = 0.1*0.2 + 0.9*0.8 = 0.74
  // update:  (0.26*0.1, 0.74*0.9) -> P(s=1) = 0.666/(0.026+0.666).
  filter.step(hmm.core(), emit_log(hmm, 1));
  EXPECT_NEAR(filter.probability_true(), 0.666 / 0.692, 1e-9);
}

TEST(OnlineForward, ProbabilitiesAlwaysNormalized) {
  const DiscreteHmm hmm = simple_model();
  OnlineDecoder filter(hmm.core());
  Rng rng(3);
  for (int t = 0; t < 1000; ++t) {
    filter.step(hmm.core(), emit_log(hmm, rng.bernoulli(0.5) ? 1 : 0));
    const double p0 = filter.probability(0);
    const double p1 = filter.probability(1);
    ASSERT_NEAR(p0 + p1, 1.0, 1e-9);
    ASSERT_GE(p0, 0.0);
    ASSERT_GE(p1, 0.0);
  }
}

TEST(OnlineForward, AgreesWithBatchForwardMarginal) {
  // Filtering marginal at the last step equals alpha_T normalized.
  const DiscreteHmm hmm = simple_model();
  const std::vector<int> obs{1, 0, 1, 1, 0, 0, 1};
  OnlineDecoder filter(hmm.core());
  for (int symbol : obs) filter.step(hmm.core(), emit_log(hmm, symbol));

  const auto log_emit = hmm.emission_log_probs(obs);
  const auto fb = forward_backward(hmm.core(), log_emit, obs.size());
  const std::size_t T = obs.size();
  const double a0 = std::exp(fb.log_alpha[(T - 1) * 2 + 0] -
                             fb.log_likelihood);
  const double a1 = std::exp(fb.log_alpha[(T - 1) * 2 + 1] -
                             fb.log_likelihood);
  EXPECT_NEAR(filter.probability(0), a0 / (a0 + a1), 1e-9);
  EXPECT_NEAR(filter.probability(1), a1 / (a0 + a1), 1e-9);
}

TEST(BatchPosterior, ConsistentWithHardDecode) {
  // Where the posterior is confident (>0.7 or <0.3), the Viterbi decode
  // should almost always agree with rounding it.
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 30'000, 16));
  const Dataset data = generator.generate();
  SstdBatch sstd;
  const auto hard = sstd.run(data);
  const auto soft = sstd.run_probabilities(data);

  std::uint64_t confident = 0;
  std::uint64_t agree = 0;
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    for (IntervalIndex k = 0; k < data.intervals(); ++k) {
      const double p = soft[u][k];
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
      if (p > 0.7 || p < 0.3) {
        ++confident;
        agree += (p > 0.5) == (hard[u][k] == 1);
      }
    }
  }
  ASSERT_GT(confident, 200u);
  EXPECT_GT(static_cast<double>(agree) / confident, 0.95);
}

TEST(BatchPosterior, BeatsUninformedBrier) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 30'000, 16));
  const Dataset data = generator.generate();
  SstdBatch sstd;
  const auto soft = sstd.run_probabilities(data);

  EvalOptions eval;
  eval.window_ms = data.interval_ms();
  const double brier = brier_score(data, soft, eval);
  EXPECT_LT(brier, 0.25);  // 0.25 = constant 0.5 prediction
  EXPECT_GT(brier, 0.0);

  // And the uninformed predictor scores exactly 0.25.
  std::vector<std::vector<double>> uninformed(
      data.num_claims(), std::vector<double>(data.intervals(), 0.5));
  EXPECT_NEAR(brier_score(data, uninformed, eval), 0.25, 1e-12);
}

TEST(BrierScore, ValidatesInputs) {
  trace::TraceGenerator generator(
      trace::tiny(trace::paris_shooting(), 5'000, 6));
  const Dataset data = generator.generate();
  EXPECT_THROW(brier_score(data, {}, {}), std::invalid_argument);
  std::vector<std::vector<double>> wrong_rows(data.num_claims());
  EXPECT_THROW(brier_score(data, wrong_rows, {}), std::invalid_argument);
}

TEST(StreamingProbability, TracksEvidenceDirection) {
  SstdConfig config;
  SstdStreaming streaming(config, 1000);
  EXPECT_DOUBLE_EQ(streaming.current_probability(ClaimId{0}), 0.5);

  // Feed strongly positive evidence for several intervals.
  for (int k = 0; k < 5; ++k) {
    for (std::uint32_t s = 0; s < 6; ++s) {
      Report r;
      r.source = SourceId{s};
      r.claim = ClaimId{0};
      r.time_ms = k * 1000 + 100 + s;
      r.attitude = 1;
      streaming.offer(r);
    }
    streaming.end_interval(k);
  }
  EXPECT_GT(streaming.current_probability(ClaimId{0}), 0.8);

  // Then sustained denial should pull the probability down.
  for (int k = 5; k < 12; ++k) {
    for (std::uint32_t s = 0; s < 6; ++s) {
      Report r;
      r.source = SourceId{s};
      r.claim = ClaimId{0};
      r.time_ms = k * 1000 + 100 + s;
      r.attitude = -1;
      streaming.offer(r);
    }
    streaming.end_interval(k);
  }
  EXPECT_LT(streaming.current_probability(ClaimId{0}), 0.2);
}

TEST(StreamingProbability, ConsistentWithHardEstimateWhenConfident) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 20'000, 10));
  const Dataset data = generator.generate();
  SstdConfig config;
  SstdStreaming streaming(config, data.interval_ms());

  const auto& reports = data.reports();
  std::size_t next = 0;
  std::uint64_t confident = 0;
  std::uint64_t agree = 0;
  for (IntervalIndex k = 0; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      streaming.offer(reports[next]);
      ++next;
    }
    streaming.end_interval(k);
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      const auto hard = streaming.current_estimate(ClaimId{u});
      if (hard == kNoEstimate) continue;
      const double p = streaming.current_probability(ClaimId{u});
      if (p > 0.8 || p < 0.2) {
        ++confident;
        agree += (p > 0.5) == (hard == 1);
      }
    }
  }
  ASSERT_GT(confident, 100u);
  EXPECT_GT(static_cast<double>(agree) / confident, 0.9);
}

}  // namespace
}  // namespace sstd
