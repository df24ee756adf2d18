#include "hmm/gaussian_hmm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/serialize.h"
#include "hmm/logspace.h"
#include "hmm/scaled_kernel.h"

namespace sstd {
namespace {

// Variance floor: keeps a state from collapsing onto a single repeated ACS
// value, which would give it infinite density there and zero elsewhere.
constexpr double kMinVariance = 1e-4;

double log_normal_pdf(double x, double mean, double variance) {
  const double d = x - mean;
  return -0.5 * (std::log(2.0 * std::numbers::pi * variance) +
                 d * d / variance);
}

}  // namespace

GaussianHmm::GaussianHmm(int num_states, Rng& rng)
    : core_(random_core(num_states, rng)),
      means_(num_states),
      variances_(num_states, 1.0) {
  for (auto& m : means_) m = rng.normal();
}

void GaussianHmm::set_state(int state, double mean, double variance) {
  if (variance < kMinVariance) {
    throw std::invalid_argument("GaussianHmm: variance below floor");
  }
  means_[state] = mean;
  variances_[state] = variance;
}

void GaussianHmm::set_a(int from, int to, double prob) {
  core_.log_a[from * core_.num_states + to] = safe_log(prob);
}

void GaussianHmm::set_pi(int state, double prob) {
  core_.log_pi[state] = safe_log(prob);
}

LogMatrix GaussianHmm::emission_log_probs(
    const std::vector<double>& obs) const {
  const int X = core_.num_states;
  LogMatrix log_emit(obs.size() * X);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    for (int i = 0; i < X; ++i) {
      log_emit[t * X + i] = log_normal_pdf(obs[t], means_[i], variances_[i]);
    }
  }
  return log_emit;
}

double GaussianHmm::sequence_log_likelihood(
    const std::vector<double>& obs) const {
  return log_likelihood(core_, emission_log_probs(obs), obs.size());
}

std::vector<int> GaussianHmm::decode(const std::vector<double>& obs) const {
  return viterbi(core_, emission_log_probs(obs), obs.size());
}

TrainStats GaussianHmm::fit_from_current(
    const std::vector<std::vector<double>>& sequences,
    const BaumWelchOptions& options, HmmWorkspace& ws) {
  const int X = core_.num_states;
  const HmmEngine engine = options.engine;
  TrainStats stats;
  double prev_ll = kLogZero;
  std::size_t total_steps = 0;
  for (const auto& seq : sequences) total_steps += seq.size();
  if (total_steps == 0) return stats;

  // Log-space per-sequence E-step: oracle path and underflow fallback
  // (far-tail Gaussian densities underflow linear arithmetic long before
  // they hit log-space limits). Writes linear gamma/xi into the workspace
  // so accumulation is shared with the scaled path.
  auto logspace_estep = [&](const std::vector<double>& obs) -> double {
    const std::size_t T = obs.size();
    const LogMatrix log_emit = emission_log_probs(obs);
    const ForwardBackwardResult fb =
        forward_backward(core_, log_emit, T, HmmEngine::kLogSpace);
    if (fb.log_likelihood == kLogZero) return kLogZero;
    const LogMatrix log_gamma = posterior_log_gamma(core_, fb, T);
    const LogMatrix log_xi = expected_log_transitions(core_, log_emit, fb, T);
    ws.prepare(T, X);
    for (std::size_t k = 0; k < T * static_cast<std::size_t>(X); ++k) {
      ws.gamma[k] = std::exp(log_gamma[k]);
    }
    for (std::size_t k = 0; k < static_cast<std::size_t>(X) * X; ++k) {
      ws.xi[k] = std::exp(log_xi[k]);
    }
    return fb.log_likelihood;
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (engine == HmmEngine::kScaled) {
      load_core(core_, ws);
      // Per-state density factors: b_i(x) = norm_i * exp(-(x-mean_i)^2 *
      // inv2v_i). Stashed in b_lin as [norm_0..norm_{X-1}, inv2v_0..].
      if (ws.b_lin.size() < 2 * static_cast<std::size_t>(X)) {
        ws.b_lin.resize(2 * static_cast<std::size_t>(X));
      }
      for (int i = 0; i < X; ++i) {
        ws.b_lin[i] =
            1.0 / std::sqrt(2.0 * std::numbers::pi * variances_[i]);
        ws.b_lin[X + i] = 0.5 / variances_[i];
      }
    }

    // acc_e0 = gamma weight, acc_e1 = weighted sum, acc_e2 = weighted
    // square sum (per-state Gaussian moment accumulators).
    ws.prepare_em(X, X);
    double total_ll = 0.0;

    for (const auto& obs : sequences) {
      const std::size_t T = obs.size();
      if (T == 0) continue;

      double seq_ll;
      if (engine == HmmEngine::kScaled) {
        ws.prepare(T, X);
        for (std::size_t t = 0; t < T; ++t) {
          for (int i = 0; i < X; ++i) {
            const double d = obs[t] - means_[i];
            ws.emit[t * X + i] =
                ws.b_lin[i] * std::exp(-d * d * ws.b_lin[X + i]);
          }
        }
        seq_ll = scaled_estep(T, X, ws);
        if (seq_ll == kLogZero) seq_ll = logspace_estep(obs);
      } else {
        seq_ll = logspace_estep(obs);
      }
      if (seq_ll == kLogZero) continue;
      total_ll += seq_ll;

      for (int i = 0; i < X; ++i) {
        ws.acc_pi[i] += ws.gamma[i];
        for (int j = 0; j < X; ++j) {
          ws.acc_a_num[i * X + j] += ws.xi[i * X + j];
        }
      }
      for (std::size_t t = 0; t < T; ++t) {
        for (int i = 0; i < X; ++i) {
          const double g = ws.gamma[t * X + i];
          if (t + 1 < T) ws.acc_a_den[i] += g;
          ws.acc_e0[i] += g;
          ws.acc_e1[i] += g * obs[t];
          ws.acc_e2[i] += g * obs[t] * obs[t];
        }
      }
    }

    const double eps = options.smoothing;
    for (int i = 0; i < X; ++i) {
      if (options.update_transitions) {
        const double row_den = ws.acc_a_den[i] + eps * X;
        for (int j = 0; j < X; ++j) {
          core_.log_a[i * X + j] =
              safe_log((ws.acc_a_num[i * X + j] + eps) / row_den);
        }
      }
      if (options.update_emissions && ws.acc_e0[i] > 1e-12) {
        const double mean = ws.acc_e1[i] / ws.acc_e0[i];
        const double var = std::max(
            ws.acc_e2[i] / ws.acc_e0[i] - mean * mean, kMinVariance);
        means_[i] = mean;
        variances_[i] = var;
      }
    }
    if (options.update_pi) {
      double pi_total = 0.0;
      for (int i = 0; i < X; ++i) pi_total += ws.acc_pi[i] + eps;
      for (int i = 0; i < X; ++i) {
        core_.log_pi[i] = safe_log((ws.acc_pi[i] + eps) / pi_total);
      }
    }

    stats.iterations = iter + 1;
    stats.log_likelihood = total_ll;
    if (prev_ll != kLogZero &&
        (total_ll - prev_ll) / static_cast<double>(total_steps) <
            options.tolerance) {
      stats.converged = true;
      break;
    }
    prev_ll = total_ll;
  }
  return stats;
}

TrainStats GaussianHmm::fit(const std::vector<std::vector<double>>& sequences,
                            const BaumWelchOptions& options,
                            HmmWorkspace* workspace) {
  HmmWorkspace& ws =
      workspace != nullptr ? *workspace : thread_local_hmm_workspace();
  Rng rng(options.seed);
  GaussianHmm best = *this;
  TrainStats best_stats = best.fit_from_current(sequences, options, ws);

  const int restarts = options.update_emissions ? options.restarts : 0;
  for (int r = 0; r < restarts; ++r) {
    Rng child = rng.fork();
    GaussianHmm candidate(core_.num_states, child);
    const TrainStats stats =
        candidate.fit_from_current(sequences, options, ws);
    if (stats.log_likelihood > best_stats.log_likelihood) {
      best = candidate;
      best_stats = stats;
    }
  }

  *this = best;
  return best_stats;
}

bool GaussianHmm::canonicalize_truth_states() {
  if (core_.num_states != 2) return false;
  if (means_[1] >= means_[0]) return false;
  std::swap(core_.log_pi[0], core_.log_pi[1]);
  std::swap(core_.log_a[0 * 2 + 0], core_.log_a[1 * 2 + 1]);
  std::swap(core_.log_a[0 * 2 + 1], core_.log_a[1 * 2 + 0]);
  std::swap(means_[0], means_[1]);
  std::swap(variances_[0], variances_[1]);
  return true;
}

namespace {
constexpr std::uint8_t kGaussianHmmVersion = 1;
}  // namespace

void GaussianHmm::save(ByteWriter& out) const {
  out.u8(kGaussianHmmVersion);
  save_hmm_core(core_, out);
  out.f64_vec(means_);
  out.f64_vec(variances_);
}

void GaussianHmm::load(ByteReader& in) {
  if (in.u8() != kGaussianHmmVersion) {
    in.fail();
    return;
  }
  HmmCore core;
  load_hmm_core(&core, in);
  std::vector<double> means;
  std::vector<double> variances;
  in.f64_vec(&means);
  in.f64_vec(&variances);
  const auto X = static_cast<std::size_t>(core.num_states);
  if (!in.ok() || means.size() != X || variances.size() != X) {
    in.fail();
    return;
  }
  core_ = std::move(core);
  means_ = std::move(means);
  variances_ = std::move(variances);
}

GaussianHmm make_truth_gaussian_hmm(double scale, double stickiness) {
  Rng rng(7);
  GaussianHmm hmm(2, rng);
  hmm.set_pi(0, 0.5);
  hmm.set_pi(1, 0.5);
  hmm.set_a(0, 0, stickiness);
  hmm.set_a(0, 1, 1.0 - stickiness);
  hmm.set_a(1, 1, stickiness);
  hmm.set_a(1, 0, 1.0 - stickiness);
  const double variance = std::max(scale * scale, 4.0 * kMinVariance);
  hmm.set_state(0, -scale / 2.0, variance);
  hmm.set_state(1, scale / 2.0, variance);
  return hmm;
}

}  // namespace sstd
