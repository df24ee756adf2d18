#include "hmm/hmm_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/serialize.h"
#include "hmm/logspace.h"
#include "hmm/scaled_kernel.h"

namespace sstd {

HmmCore random_core(int num_states, Rng& rng, double concentration) {
  assert(num_states > 0);
  const int X = num_states;
  HmmCore core;
  core.num_states = X;
  core.log_a.resize(static_cast<std::size_t>(X) * X);
  core.log_pi.resize(X);

  auto random_row = [&](double* out, int n) {
    double total = 0.0;
    std::vector<double> raw(n);
    for (auto& v : raw) {
      v = rng.gamma(concentration) + 1e-6;
      total += v;
    }
    for (int i = 0; i < n; ++i) out[i] = safe_log(raw[i] / total);
  };

  for (int i = 0; i < X; ++i) random_row(&core.log_a[i * X], X);
  random_row(core.log_pi.data(), X);
  return core;
}

void save_hmm_core(const HmmCore& core, ByteWriter& out) {
  out.i32(core.num_states);
  out.f64_vec(core.log_a);
  out.f64_vec(core.log_pi);
}

void load_hmm_core(HmmCore* core, ByteReader& in) {
  HmmCore loaded;
  loaded.num_states = in.i32();
  in.f64_vec(&loaded.log_a);
  in.f64_vec(&loaded.log_pi);
  const auto X = static_cast<std::size_t>(loaded.num_states);
  if (!in.ok() || loaded.num_states <= 0 || loaded.log_a.size() != X * X ||
      loaded.log_pi.size() != X) {
    in.fail();
    return;
  }
  *core = std::move(loaded);
}

namespace {

// Reference log-space sweep (the kLogSpace oracle).
ForwardBackwardResult logspace_forward_backward(const HmmCore& core,
                                                const LogMatrix& log_emit,
                                                std::size_t T) {
  const int X = core.num_states;
  assert(log_emit.size() >= T * static_cast<std::size_t>(X));
  ForwardBackwardResult fb;
  fb.log_alpha.assign(T * X, kLogZero);
  fb.log_beta.assign(T * X, kLogZero);
  if (T == 0) return fb;

  // Forward.
  for (int i = 0; i < X; ++i) {
    fb.log_alpha[i] = core.log_pi[i] + log_emit[i];
  }
  for (std::size_t t = 1; t < T; ++t) {
    for (int j = 0; j < X; ++j) {
      double acc = kLogZero;
      for (int i = 0; i < X; ++i) {
        acc = log_add(acc, fb.log_alpha[(t - 1) * X + i] + core.log_a_at(i, j));
      }
      fb.log_alpha[t * X + j] = acc + log_emit[t * X + j];
    }
  }

  // Backward.
  for (int i = 0; i < X; ++i) fb.log_beta[(T - 1) * X + i] = 0.0;
  for (std::size_t t = T - 1; t-- > 0;) {
    for (int i = 0; i < X; ++i) {
      double acc = kLogZero;
      for (int j = 0; j < X; ++j) {
        acc = log_add(acc, core.log_a_at(i, j) + log_emit[(t + 1) * X + j] +
                               fb.log_beta[(t + 1) * X + j]);
      }
      fb.log_beta[t * X + i] = acc;
    }
  }

  double ll = kLogZero;
  for (int i = 0; i < X; ++i) ll = log_add(ll, fb.log_alpha[(T - 1) * X + i]);
  fb.log_likelihood = ll;
  return fb;
}

double logspace_log_likelihood(const HmmCore& core, const LogMatrix& log_emit,
                               std::size_t T) {
  const int X = core.num_states;
  if (T == 0) return 0.0;
  std::vector<double> alpha(X);
  std::vector<double> next(X);
  for (int i = 0; i < X; ++i) alpha[i] = core.log_pi[i] + log_emit[i];
  for (std::size_t t = 1; t < T; ++t) {
    for (int j = 0; j < X; ++j) {
      double acc = kLogZero;
      for (int i = 0; i < X; ++i) {
        acc = log_add(acc, alpha[i] + core.log_a_at(i, j));
      }
      next[j] = acc + log_emit[t * X + j];
    }
    alpha.swap(next);
  }
  double ll = kLogZero;
  for (int i = 0; i < X; ++i) ll = log_add(ll, alpha[i]);
  return ll;
}

std::vector<int> logspace_viterbi(const HmmCore& core,
                                  const LogMatrix& log_emit, std::size_t T) {
  const int X = core.num_states;
  if (T == 0) return {};
  std::vector<double> delta(static_cast<std::size_t>(T) * X, kLogZero);
  std::vector<int> back(static_cast<std::size_t>(T) * X, 0);

  for (int i = 0; i < X; ++i) delta[i] = core.log_pi[i] + log_emit[i];
  for (std::size_t t = 1; t < T; ++t) {
    for (int j = 0; j < X; ++j) {
      double best = kLogZero;
      int arg = 0;
      for (int i = 0; i < X; ++i) {
        const double cand = delta[(t - 1) * X + i] + core.log_a_at(i, j);
        if (cand > best) {
          best = cand;
          arg = i;
        }
      }
      delta[t * X + j] = best + log_emit[t * X + j];
      back[t * X + j] = arg;
    }
  }

  std::vector<int> path(T);
  int arg = 0;
  double best = kLogZero;
  for (int i = 0; i < X; ++i) {
    if (delta[(T - 1) * X + i] > best) {
      best = delta[(T - 1) * X + i];
      arg = i;
    }
  }
  path[T - 1] = arg;
  for (std::size_t t = T - 1; t-- > 0;) {
    path[t] = back[(t + 1) * X + path[t + 1]];
  }
  return path;
}

}  // namespace

ForwardBackwardResult forward_backward(const HmmCore& core,
                                       const LogMatrix& log_emit,
                                       std::size_t T, HmmEngine engine) {
  if (engine == HmmEngine::kLogSpace || T == 0) {
    return logspace_forward_backward(core, log_emit, T);
  }
  const int X = core.num_states;
  assert(log_emit.size() >= T * static_cast<std::size_t>(X));
  HmmWorkspace& ws = thread_local_hmm_workspace();
  load_core(core, ws);
  load_log_emissions(log_emit, T, X, ws);
  const double ll = scaled_forward(T, X, ws);
  if (ll == kLogZero) {
    // Linear per-step mass underflowed (or the observation really is
    // impossible): the oracle handles both with log-space semantics.
    return logspace_forward_backward(core, log_emit, T);
  }
  scaled_backward(T, X, ws);

  // Convert back to the API's log alpha/beta:
  //   log alpha_t(i) = log alphahat_t(i) + sum_{s<=t} log c_s
  //   log beta_t(i)  = log betahat_t(i)  + (LL - sum_{s<=t} log c_s)
  ForwardBackwardResult fb;
  fb.log_alpha.resize(T * X);
  fb.log_beta.resize(T * X);
  fb.log_likelihood = ll;
  double cum = 0.0;
  for (std::size_t t = 0; t < T; ++t) {
    cum += std::log(ws.scale[t]);
    const double beta_shift = ll - cum;
    for (int i = 0; i < X; ++i) {
      fb.log_alpha[t * X + i] = safe_log(ws.alpha[t * X + i]) + cum;
      fb.log_beta[t * X + i] = safe_log(ws.beta[t * X + i]) + beta_shift;
    }
  }
  return fb;
}

double log_likelihood(const HmmCore& core, const LogMatrix& log_emit,
                      std::size_t T, HmmEngine engine) {
  if (engine == HmmEngine::kLogSpace || T == 0) {
    return logspace_log_likelihood(core, log_emit, T);
  }
  const int X = core.num_states;
  HmmWorkspace& ws = thread_local_hmm_workspace();
  load_core(core, ws);
  load_log_emissions(log_emit, T, X, ws);
  const double ll = scaled_forward(T, X, ws);
  if (ll == kLogZero) return logspace_log_likelihood(core, log_emit, T);
  return ll;
}

std::vector<int> viterbi(const HmmCore& core, const LogMatrix& log_emit,
                         std::size_t T, HmmEngine engine) {
  if (engine == HmmEngine::kLogSpace) {
    return logspace_viterbi(core, log_emit, T);
  }
  return workspace_viterbi(core, log_emit, T, thread_local_hmm_workspace());
}

LogMatrix posterior_log_gamma(const HmmCore& core,
                              const ForwardBackwardResult& fb, std::size_t T) {
  const int X = core.num_states;
  LogMatrix gamma(T * X, kLogZero);
  for (std::size_t t = 0; t < T; ++t) {
    for (int i = 0; i < X; ++i) {
      gamma[t * X + i] =
          fb.log_alpha[t * X + i] + fb.log_beta[t * X + i] - fb.log_likelihood;
    }
  }
  return gamma;
}

LogMatrix expected_log_transitions(const HmmCore& core,
                                   const LogMatrix& log_emit,
                                   const ForwardBackwardResult& fb,
                                   std::size_t T) {
  const int X = core.num_states;
  LogMatrix xi_sum(static_cast<std::size_t>(X) * X, kLogZero);
  for (std::size_t t = 0; t + 1 < T; ++t) {
    for (int i = 0; i < X; ++i) {
      for (int j = 0; j < X; ++j) {
        const double v = fb.log_alpha[t * X + i] + core.log_a_at(i, j) +
                         log_emit[(t + 1) * X + j] +
                         fb.log_beta[(t + 1) * X + j] - fb.log_likelihood;
        xi_sum[i * X + j] = log_add(xi_sum[i * X + j], v);
      }
    }
  }
  return xi_sum;
}

}  // namespace sstd
