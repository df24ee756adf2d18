#include "hmm/discrete_hmm.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/serialize.h"
#include "hmm/logspace.h"
#include "hmm/scaled_kernel.h"
#include "obs/cost.h"

namespace sstd {

DiscreteHmm::DiscreteHmm(int num_states, int num_symbols, Rng& rng)
    : core_(random_core(num_states, rng)), num_symbols_(num_symbols) {
  if (num_states <= 0 || num_symbols <= 0) {
    throw std::invalid_argument("DiscreteHmm: states/symbols must be positive");
  }
  log_b_.resize(static_cast<std::size_t>(num_states) * num_symbols);
  for (int i = 0; i < num_states; ++i) {
    std::vector<double> raw(num_symbols);
    double total = 0.0;
    for (auto& v : raw) {
      v = rng.gamma(1.0) + 1e-6;
      total += v;
    }
    for (int y = 0; y < num_symbols; ++y) {
      log_b_[i * num_symbols + y] = safe_log(raw[y] / total);
    }
  }
}

void DiscreteHmm::set_b(int state, int symbol, double prob) {
  log_b_[state * num_symbols_ + symbol] = safe_log(prob);
}

void DiscreteHmm::set_a(int from, int to, double prob) {
  core_.log_a[from * core_.num_states + to] = safe_log(prob);
}

void DiscreteHmm::set_pi(int state, double prob) {
  core_.log_pi[state] = safe_log(prob);
}

LogMatrix DiscreteHmm::emission_log_probs(const std::vector<int>& obs) const {
  const int X = core_.num_states;
  LogMatrix log_emit(obs.size() * X);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    const int y = obs[t];
    assert(y >= 0 && y < num_symbols_);
    for (int i = 0; i < X; ++i) {
      log_emit[t * X + i] = log_b_[i * num_symbols_ + y];
    }
  }
  return log_emit;
}

double DiscreteHmm::sequence_log_likelihood(const std::vector<int>& obs) const {
  return log_likelihood(core_, emission_log_probs(obs), obs.size());
}

std::vector<int> DiscreteHmm::decode(const std::vector<int>& obs) const {
  return viterbi(core_, emission_log_probs(obs), obs.size());
}

TrainStats DiscreteHmm::fit_from_current(
    const std::vector<std::vector<int>>& sequences,
    const BaumWelchOptions& options, HmmWorkspace& ws) {
  const int X = core_.num_states;
  const int Y = num_symbols_;
  const HmmEngine engine = options.engine;
  TrainStats stats;
  double prev_ll = kLogZero;
  std::size_t total_steps = 0;
  for (const auto& seq : sequences) total_steps += seq.size();
  if (total_steps == 0) return stats;

  // Per-sequence E-step through the log-space oracle: exps the log-space
  // gamma/xi into the workspace so the accumulation below is shared with
  // the scaled path. Also the underflow fallback for kScaled.
  auto logspace_estep = [&](const std::vector<int>& obs) -> double {
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

  const std::size_t emission_cells = static_cast<std::size_t>(X) * Y;

  // Phase cost attribution (ISSUE 10): three steady_clock reads per EM
  // iteration accumulate E-step vs M-step wall time locally, flushed to
  // the cost tree once per fit — cheap enough for the ~64 µs hot fit.
  // Wall-only: the thread CPU clock is a syscall and this runs per refit.
  static obs::CostCenter* const cost_forward =
      obs::CostRegistry::global().center("refit/forward");
  static obs::CostCenter* const cost_mstep =
      obs::CostRegistry::global().center("refit/mstep");
  double forward_wall_s = 0.0;
  double mstep_wall_s = 0.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const auto iter_begin = std::chrono::steady_clock::now();
    if (engine == HmmEngine::kScaled) {
      // Linear parameters for this iteration's sweeps; the discrete
      // emission table lets the scaled path fill ws.emit by lookup with
      // zero transcendentals per trellis cell.
      load_core(core_, ws);
      if (ws.b_lin.size() < emission_cells) ws.b_lin.resize(emission_cells);
      for (std::size_t k = 0; k < emission_cells; ++k) {
        ws.b_lin[k] = std::exp(log_b_[k]);
      }
    }

    // E-step accumulators (linear space; counts are well-scaled).
    // acc_e0 = emission numerators (X x Y), acc_e1 = denominators (X).
    ws.prepare_em(X, emission_cells);
    double total_ll = 0.0;

    for (const auto& obs : sequences) {
      const std::size_t T = obs.size();
      if (T == 0) continue;

      double seq_ll;
      if (engine == HmmEngine::kScaled) {
        ws.prepare(T, X);
        for (std::size_t t = 0; t < T; ++t) {
          const int y = obs[t];
          assert(y >= 0 && y < Y);
          for (int i = 0; i < X; ++i) {
            ws.emit[t * X + i] = ws.b_lin[i * Y + y];
          }
        }
        seq_ll = scaled_estep(T, X, ws);
        if (seq_ll == kLogZero) seq_ll = logspace_estep(obs);
      } else {
        seq_ll = logspace_estep(obs);
      }
      if (seq_ll == kLogZero) continue;  // impossible sequence
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
          ws.acc_e0[i * Y + obs[t]] += g;
          ws.acc_e1[i] += g;
        }
      }
    }

    const auto estep_end = std::chrono::steady_clock::now();
    forward_wall_s +=
        std::chrono::duration<double>(estep_end - iter_begin).count();

    // M-step with Dirichlet smoothing so no probability hits exactly zero
    // (a zero emission makes unseen symbols impossible at decode time).
    const double eps = options.smoothing;
    for (int i = 0; i < X; ++i) {
      if (options.update_transitions) {
        const double row_den = ws.acc_a_den[i] + eps * X;
        for (int j = 0; j < X; ++j) {
          core_.log_a[i * X + j] =
              safe_log((ws.acc_a_num[i * X + j] + eps) / row_den);
        }
      }
      if (options.update_emissions) {
        const double b_row_den = ws.acc_e1[i] + eps * Y;
        for (int y = 0; y < Y; ++y) {
          log_b_[i * Y + y] =
              safe_log((ws.acc_e0[i * Y + y] + eps) / b_row_den);
        }
      }
    }
    if (options.update_pi) {
      double pi_total = 0.0;
      for (int i = 0; i < X; ++i) pi_total += ws.acc_pi[i] + eps;
      for (int i = 0; i < X; ++i) {
        core_.log_pi[i] = safe_log((ws.acc_pi[i] + eps) / pi_total);
      }
    }

    mstep_wall_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      estep_end)
            .count();

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
  if (stats.iterations > 0) {
    obs::cost_add(cost_forward, forward_wall_s, 0.0,
                  static_cast<std::uint64_t>(stats.iterations));
    obs::cost_add(cost_mstep, mstep_wall_s, 0.0,
                  static_cast<std::uint64_t>(stats.iterations));
  }
  return stats;
}

TrainStats DiscreteHmm::fit(const std::vector<std::vector<int>>& sequences,
                            const BaumWelchOptions& options,
                            HmmWorkspace* workspace) {
  HmmWorkspace& ws =
      workspace != nullptr ? *workspace : thread_local_hmm_workspace();
  Rng rng(options.seed);

  // Candidate 0: the current (possibly informed) parameters.
  DiscreteHmm best = *this;
  TrainStats best_stats = best.fit_from_current(sequences, options, ws);

  // Random restarts only make sense when every block is free to move;
  // with frozen emissions the informed start is the only valid one.
  const int restarts =
      options.update_emissions ? options.restarts : 0;
  for (int r = 0; r < restarts; ++r) {
    Rng child = rng.fork();
    DiscreteHmm candidate(core_.num_states, num_symbols_, child);
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

bool DiscreteHmm::canonicalize_truth_states() {
  if (core_.num_states != 2) return false;
  const int Y = num_symbols_;
  auto mean_symbol = [&](int state) {
    double mean = 0.0;
    for (int y = 0; y < Y; ++y) {
      mean += std::exp(log_b_[state * Y + y]) * y;
    }
    return mean;
  };
  if (mean_symbol(1) >= mean_symbol(0)) return false;

  // Swap states 0 and 1 everywhere.
  std::swap(core_.log_pi[0], core_.log_pi[1]);
  std::swap(core_.log_a[0 * 2 + 0], core_.log_a[1 * 2 + 1]);
  std::swap(core_.log_a[0 * 2 + 1], core_.log_a[1 * 2 + 0]);
  for (int y = 0; y < Y; ++y) {
    std::swap(log_b_[0 * Y + y], log_b_[1 * Y + y]);
  }
  return true;
}

namespace {
constexpr std::uint8_t kDiscreteHmmVersion = 1;
}  // namespace

void DiscreteHmm::save(ByteWriter& out) const {
  out.u8(kDiscreteHmmVersion);
  out.i32(num_symbols_);
  save_hmm_core(core_, out);
  out.f64_vec(log_b_);
}

void DiscreteHmm::load(ByteReader& in) {
  if (in.u8() != kDiscreteHmmVersion) {
    in.fail();
    return;
  }
  const int num_symbols = in.i32();
  HmmCore core;
  load_hmm_core(&core, in);
  LogMatrix log_b;
  in.f64_vec(&log_b);
  if (!in.ok() || num_symbols <= 0 ||
      log_b.size() != static_cast<std::size_t>(core.num_states) *
                          static_cast<std::size_t>(num_symbols)) {
    in.fail();
    return;
  }
  num_symbols_ = num_symbols;
  core_ = std::move(core);
  log_b_ = std::move(log_b);
}

DiscreteHmm make_truth_hmm(int num_symbols, double stickiness,
                           double emission_bias) {
  if (num_symbols < 2) {
    throw std::invalid_argument("make_truth_hmm: need at least 2 symbols");
  }
  Rng rng(7);
  DiscreteHmm hmm(2, num_symbols, rng);

  hmm.set_pi(0, 0.5);
  hmm.set_pi(1, 0.5);
  hmm.set_a(0, 0, stickiness);
  hmm.set_a(0, 1, 1.0 - stickiness);
  hmm.set_a(1, 1, stickiness);
  hmm.set_a(1, 0, 1.0 - stickiness);

  // Emission rows: geometric ramp across the signed symbol axis. Symbol
  // indices run from most-negative ACS (0) to most-positive (Y-1); the
  // "false" state weights the low end, the "true" state the high end.
  const int Y = num_symbols;
  std::vector<double> ramp(Y);
  for (int target_state = 0; target_state < 2; ++target_state) {
    double total = 0.0;
    for (int y = 0; y < Y; ++y) {
      const double axis = (2.0 * y) / (Y - 1) - 1.0;  // [-1, 1]
      const double direction = target_state == 1 ? axis : -axis;
      ramp[y] = std::exp(emission_bias * direction);
      total += ramp[y];
    }
    for (int y = 0; y < Y; ++y) {
      hmm.set_b(target_state, y, ramp[y] / total);
    }
  }
  return hmm;
}

}  // namespace sstd
