// Emission-agnostic HMM machinery (paper §III-A, §III-C, §III-D).
//
// The transition structure (A, pi) is shared by the discrete- and
// Gaussian-emission models; forward/backward/Viterbi operate on a
// precomputed T x X matrix of per-step emission log-probabilities, so both
// emission families reuse the same inference kernels.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace sstd {

class ByteWriter;
class ByteReader;

// Row-major T x X (or X x X) matrix of log-probabilities.
using LogMatrix = std::vector<double>;

// Transition skeleton of an HMM with X hidden states.
struct HmmCore {
  int num_states = 0;
  LogMatrix log_a;   // X*X, log_a[i*X + j] = log P(s_{t+1}=j | s_t=i)
  std::vector<double> log_pi;  // X, log P(s_1 = i)

  double log_a_at(int i, int j) const { return log_a[i * num_states + j]; }
};

// Creates a core with row-stochastic A and pi sampled from a Dirichlet-ish
// perturbation around uniform; used for Baum-Welch restarts.
HmmCore random_core(int num_states, Rng& rng, double concentration = 1.0);

// Durable state history (DESIGN.md §7): byte-exact (de)serialization of
// the transition skeleton. load_hmm_core marks the reader failed (and
// leaves `core` untouched) on malformed input.
void save_hmm_core(const HmmCore& core, ByteWriter& out);
void load_hmm_core(HmmCore* core, ByteReader& in);

// Arithmetic engine behind the inference kernels (DESIGN.md §6), chosen
// per call (or per fit through BaumWelchOptions::engine):
//
//   kScaled   — linear-space recursions with per-step scaling constants
//               (Rabiner-style; src/hmm/scaled_kernel.h). The production
//               default: mathematically equivalent likelihoods with no
//               transcendental per trellis cell.
//   kLogSpace — the original per-element log-sum-exp kernels, kept
//               compiled as the reference oracle for differential testing
//               and as the fallback when linear arithmetic underflows.
enum class HmmEngine { kScaled, kLogSpace };

struct ForwardBackwardResult {
  LogMatrix log_alpha;  // T x X
  LogMatrix log_beta;   // T x X
  double log_likelihood = 0.0;
};

// `log_emit` is T x X: log_emit[t*X + i] = log P(obs_t | s_t = i).
//
// Under kScaled the sweep runs in linear space with per-step scaling and
// the result is converted back to log alpha/beta, so the API contract is
// engine-independent; a sequence whose linear per-step mass underflows to
// zero silently falls back to the log-space oracle.
ForwardBackwardResult forward_backward(const HmmCore& core,
                                       const LogMatrix& log_emit,
                                       std::size_t T,
                                       HmmEngine engine = HmmEngine::kScaled);

// Total observation log-likelihood (forward pass only).
double log_likelihood(const HmmCore& core, const LogMatrix& log_emit,
                      std::size_t T, HmmEngine engine = HmmEngine::kScaled);

// Most likely hidden state sequence (paper Eq. 6-8, Viterbi 1967). The
// max-sum recursion is additions and comparisons only, so both engines run
// it in log space with identical arithmetic — paths never depend on the
// engine; kScaled merely reuses workspace buffers instead of allocating.
std::vector<int> viterbi(const HmmCore& core, const LogMatrix& log_emit,
                         std::size_t T,
                         HmmEngine engine = HmmEngine::kScaled);

// Posterior state marginals gamma[t*X + i] = P(s_t = i | obs), computed
// from a forward/backward result. Used by the Baum-Welch M-steps.
LogMatrix posterior_log_gamma(const HmmCore& core,
                              const ForwardBackwardResult& fb, std::size_t T);

// Expected transition statistics in log space:
// log_xi_sum[i*X + j] = log sum_t P(s_t=i, s_{t+1}=j | obs).
LogMatrix expected_log_transitions(const HmmCore& core,
                                   const LogMatrix& log_emit,
                                   const ForwardBackwardResult& fb,
                                   std::size_t T);

}  // namespace sstd
