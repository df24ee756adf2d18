// Differential testing harness for the HMM arithmetic engines (ISSUE 4).
//
// The scaled (linear-space, per-step renormalized) kernels are the
// production default; the original log-space kernels stay compiled as the
// reference oracle. These tests pin the two together over hundreds of
// randomized models — including degenerate ones (near-zero emission rows,
// T = 1, absorbing transitions, impossible observations) — so any drift in
// either implementation is caught with the failing seed printed.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "hmm/discrete_hmm.h"
#include "hmm/gaussian_hmm.h"
#include "hmm/hmm_core.h"
#include "hmm/logspace.h"
#include "hmm/scaled_kernel.h"
#include "sstd/system.h"
#include "trace/generator.h"
#include "util/rng.h"

namespace sstd {
namespace {

// ISSUE 4 tolerances: log-likelihood relative, posteriors absolute.
constexpr double kLlRelTol = 1e-8;
constexpr double kGammaAbsTol = 1e-9;

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

struct Instance {
  HmmCore core;
  LogMatrix log_emit;
  std::size_t T = 0;
  int X = 0;
};

// Deterministic random instance per seed. Seed residues fold in the
// degenerate families so they recur throughout the sweep.
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Instance inst;
  inst.X = 2 + static_cast<int>(rng.below(4));  // 2..5 states
  inst.T = seed % 5 == 0 ? 1 : 2 + rng.below(120);
  inst.core = random_core(inst.X, rng);

  if (seed % 7 == 0) {
    // Absorbing state 0: once entered it never leaves.
    for (int j = 0; j < inst.X; ++j) {
      inst.core.log_a[j] = safe_log(j == 0 ? 1.0 : 0.0);
    }
  }

  inst.log_emit.resize(inst.T * static_cast<std::size_t>(inst.X));
  for (std::size_t t = 0; t < inst.T; ++t) {
    for (int i = 0; i < inst.X; ++i) {
      double p = rng.uniform(1e-4, 1.0);
      if (seed % 11 == 0 && i == 0) p *= 1e-280;  // near-zero emission row
      if (seed % 13 == 0 && rng.bernoulli(0.1)) p = 0.0;  // impossible cell
      inst.log_emit[t * inst.X + i] = safe_log(p);
    }
  }
  return inst;
}

TEST(DifferentialHmm, ScaledMatchesLogSpaceOverRandomizedModels) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Instance inst = make_instance(seed);

    const double ll_log =
        log_likelihood(inst.core, inst.log_emit, inst.T, HmmEngine::kLogSpace);
    const double ll_scaled =
        log_likelihood(inst.core, inst.log_emit, inst.T, HmmEngine::kScaled);
    if (ll_log == kLogZero) {
      // Observation impossible under the model: both engines must agree on
      // that verdict (the scaled path falls back to the oracle).
      EXPECT_EQ(ll_scaled, kLogZero);
      continue;
    }
    EXPECT_LE(rel_err(ll_scaled, ll_log), kLlRelTol);

    const ForwardBackwardResult fb_log = forward_backward(
        inst.core, inst.log_emit, inst.T, HmmEngine::kLogSpace);
    const ForwardBackwardResult fb_scaled =
        forward_backward(inst.core, inst.log_emit, inst.T, HmmEngine::kScaled);
    EXPECT_LE(rel_err(fb_scaled.log_likelihood, fb_log.log_likelihood),
              kLlRelTol);

    const LogMatrix gamma_log = posterior_log_gamma(inst.core, fb_log, inst.T);
    const LogMatrix gamma_scaled =
        posterior_log_gamma(inst.core, fb_scaled, inst.T);
    for (std::size_t k = 0; k < gamma_log.size(); ++k) {
      EXPECT_NEAR(std::exp(gamma_scaled[k]), std::exp(gamma_log[k]),
                  kGammaAbsTol)
          << "gamma cell " << k;
    }

    // Viterbi runs the same max-sum recursion in log space under both
    // engines; paths must be identical, not merely close.
    EXPECT_EQ(viterbi(inst.core, inst.log_emit, inst.T, HmmEngine::kScaled),
              viterbi(inst.core, inst.log_emit, inst.T, HmmEngine::kLogSpace));
  }
}

TEST(DifferentialHmm, ExpectedTransitionsMatchOverRandomizedModels) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Instance inst = make_instance(seed);
    const ForwardBackwardResult fb_log = forward_backward(
        inst.core, inst.log_emit, inst.T, HmmEngine::kLogSpace);
    if (fb_log.log_likelihood == kLogZero) continue;
    const LogMatrix xi_log =
        expected_log_transitions(inst.core, inst.log_emit, fb_log, inst.T);

    // The scaled xi accumulator, via the raw kernels.
    HmmWorkspace ws;
    load_core(inst.core, ws);
    load_log_emissions(inst.log_emit, inst.T, inst.X, ws);
    if (scaled_forward(inst.T, inst.X, ws) == kLogZero) continue;
    scaled_backward(inst.T, inst.X, ws);
    scaled_expected_transitions(inst.T, inst.X, ws);
    for (int i = 0; i < inst.X; ++i) {
      for (int j = 0; j < inst.X; ++j) {
        EXPECT_NEAR(ws.xi[i * inst.X + j],
                    std::exp(xi_log[i * inst.X + j]), 1e-7)
            << "xi(" << i << "," << j << ")";
      }
    }
  }
}

// Training through either engine must land on (numerically) the same
// model: same final likelihood trajectory within differential tolerance.
TEST(DifferentialHmm, BaumWelchFitAgreesAcrossEngines) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const int Y = 7;
    std::vector<std::vector<int>> sequences(2);
    for (auto& seq : sequences) {
      seq.resize(40 + rng.below(40));
      for (auto& s : seq) s = static_cast<int>(rng.below(Y));
    }

    BaumWelchOptions options;
    options.max_iterations = 5;
    options.tolerance = -1.0;  // run all iterations under both engines
    options.restarts = 1;
    options.seed = seed;

    DiscreteHmm scaled = make_truth_hmm(Y);
    options.engine = HmmEngine::kScaled;
    const TrainStats stats_scaled = scaled.fit(sequences, options);

    DiscreteHmm logspace = make_truth_hmm(Y);
    options.engine = HmmEngine::kLogSpace;
    const TrainStats stats_log = logspace.fit(sequences, options);

    EXPECT_EQ(stats_scaled.iterations, stats_log.iterations);
    EXPECT_LE(rel_err(stats_scaled.log_likelihood, stats_log.log_likelihood),
              1e-6);
    // The fitted parameters must agree to near machine precision. (Exact
    // decode identity is only guaranteed for the *same* model — a 1e-12
    // parameter delta can legitimately flip a tie-adjacent Viterbi cell,
    // which ScaledMatchesLogSpaceOverRandomizedModels covers.)
    const int X = scaled.num_states();
    for (int i = 0; i < X; ++i) {
      EXPECT_NEAR(scaled.core().log_pi[i], logspace.core().log_pi[i], 1e-9);
      for (int j = 0; j < X; ++j) {
        EXPECT_NEAR(scaled.core().log_a_at(i, j),
                    logspace.core().log_a_at(i, j), 1e-9)
            << "a(" << i << "," << j << ")";
      }
      for (int y = 0; y < Y; ++y) {
        EXPECT_NEAR(scaled.log_b(i, y), logspace.log_b(i, y), 1e-9)
            << "b(" << i << "," << y << ")";
      }
    }
  }
}

// Gaussian emissions: densities reach far-tail magnitudes that underflow
// linear arithmetic, exercising the per-sequence fallback to the oracle.
TEST(DifferentialHmm, GaussianEmissionsMatchIncludingFarTails) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 1000003ULL);
    GaussianHmm hmm = make_truth_gaussian_hmm(2.0 + rng.uniform());
    std::vector<double> obs(30 + rng.below(30));
    for (auto& v : obs) v = rng.normal(0.0, 2.0);
    if (seed % 3 == 0) obs[obs.size() / 2] = 60.0;   // ~30 sigma outlier
    if (seed % 4 == 0) obs.back() = -45.0;

    const std::size_t T = obs.size();
    const LogMatrix log_emit = hmm.emission_log_probs(obs);
    const double ll_log =
        log_likelihood(hmm.core(), log_emit, T, HmmEngine::kLogSpace);
    const double ll_scaled =
        log_likelihood(hmm.core(), log_emit, T, HmmEngine::kScaled);
    if (ll_log == kLogZero) {
      EXPECT_EQ(ll_scaled, kLogZero);
      continue;
    }
    EXPECT_LE(rel_err(ll_scaled, ll_log), kLlRelTol);
    EXPECT_EQ(viterbi(hmm.core(), log_emit, T, HmmEngine::kScaled),
              viterbi(hmm.core(), log_emit, T, HmmEngine::kLogSpace));
  }
}

// Engine selection is per call: training defaults to the scaled kernels,
// and the log-space oracle runs only where a caller names it.
TEST(DifferentialHmm, DefaultEngineIsScaled) {
  EXPECT_EQ(BaumWelchOptions{}.engine, HmmEngine::kScaled);
  EXPECT_EQ(SstdConfig{}.train.engine, HmmEngine::kScaled);
}

// The workspace arena is single-owner state; SstdSystem gives every shard
// its own engine (and so its own workspace) behind a shard mutex, and
// per-claim decode tasks use the worker thread's thread-local workspace.
// Running the full system under TSan (ctest -L tsan) validates those
// ownership rules against the real task scheduler.
TEST(DifferentialHmm, ConcurrentShardRefitsProduceValidEstimates) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 12'000, 12));
  const Dataset data = generator.generate();

  SstdSystem::Config config;
  config.workers = 4;
  config.num_jobs = 8;
  config.interval_deadline_s = 5.0;
  SstdSystem system(config, data.interval_ms());

  const auto& reports = data.reports();
  std::size_t next = 0;
  for (IntervalIndex k = 0; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      system.ingest(reports[next]);
      ++next;
    }
    system.end_interval(k);
  }

  const auto metrics = system.metrics();
  EXPECT_EQ(metrics.reports_ingested, data.num_reports());
  EXPECT_EQ(metrics.task_failures, 0u);
  int decided = 0;
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    const std::int8_t estimate = system.estimate(ClaimId{u});
    EXPECT_TRUE(estimate == kNoEstimate || estimate == 0 || estimate == 1);
    if (estimate != kNoEstimate) ++decided;
  }
  EXPECT_GT(decided, 0);
}

}  // namespace
}  // namespace sstd
