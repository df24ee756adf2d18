// Discrete-emission HMM with Baum-Welch training (paper §III-C, Eq. 5).
//
// SSTD trains one 2-state model per claim: hidden states are the evolving
// binary truth, observation symbols are quantized ACS values.
#pragma once

#include <cstddef>
#include <vector>

#include "hmm/hmm_core.h"
#include "util/rng.h"

namespace sstd {

class HmmWorkspace;

struct BaumWelchOptions {
  int max_iterations = 80;
  double tolerance = 1e-5;      // stop when LL improvement / T drops below
  int restarts = 4;             // random restarts; best LL wins
  double smoothing = 1e-3;      // Dirichlet floor added to every count
  std::uint64_t seed = 42;

  // Which parameter blocks the M-step may update. Freezing emissions keeps
  // an informed emission structure (e.g. "state 1 emits positive ACS")
  // intact while the dynamics are learned — unsupervised EM on one short
  // sequence otherwise reshapes emissions to fit noise and loses the state
  // semantics (see SstdConfig). Restarts are skipped automatically when
  // emissions are frozen (random emissions would defeat the freeze).
  bool update_transitions = true;
  bool update_emissions = true;
  bool update_pi = true;

  // Arithmetic engine for the E-step kernels. kLogSpace re-runs training
  // through the reference log-space kernels (differential oracle).
  HmmEngine engine = HmmEngine::kScaled;
};

struct TrainStats {
  int iterations = 0;           // iterations of the winning restart
  double log_likelihood = 0.0;  // final training LL (sum over sequences)
  bool converged = false;
};

class DiscreteHmm {
 public:
  DiscreteHmm() = default;
  DiscreteHmm(int num_states, int num_symbols, Rng& rng);

  int num_states() const { return core_.num_states; }
  int num_symbols() const { return num_symbols_; }

  const HmmCore& core() const { return core_; }
  HmmCore& mutable_core() { return core_; }

  double log_b(int state, int symbol) const {
    return log_b_[state * num_symbols_ + symbol];
  }
  void set_b(int state, int symbol, double prob);
  void set_a(int from, int to, double prob);
  void set_pi(int state, double prob);

  // Builds the T x X emission log-prob matrix for one observation sequence.
  LogMatrix emission_log_probs(const std::vector<int>& obs) const;

  double sequence_log_likelihood(const std::vector<int>& obs) const;

  // Decodes the most likely hidden state sequence (Viterbi, Eq. 6-8).
  std::vector<int> decode(const std::vector<int>& obs) const;

  // Baum-Welch EM over one or more observation sequences (Eq. 5). Restarts
  // from random parameters `options.restarts` times and keeps the model
  // with the best likelihood; the current parameters are also tried as one
  // starting point so training never degrades an informed initialization.
  //
  // `workspace` is an optional reusable buffer arena: callers that refit
  // many models back to back (a streaming shard's per-claim batch) pass
  // one so every E-step after warm-up allocates nothing. Without one the
  // calling thread's shared workspace is used.
  TrainStats fit(const std::vector<std::vector<int>>& sequences,
                 const BaumWelchOptions& options = {},
                 HmmWorkspace* workspace = nullptr);

  // Enforces the truth-state convention used by the decoder: state 1 is the
  // state whose emission distribution has the larger mean symbol index
  // (i.e. prefers positive ACS). Baum-Welch restarts can converge to the
  // label-swapped optimum; this swaps states back when they do. Returns
  // true if a swap happened. Only meaningful for 2-state models.
  bool canonicalize_truth_states();

  // Durable state history (DESIGN.md §7): versioned byte-exact dump of the
  // model parameters (A, pi, B). load() marks the reader failed — and
  // leaves the model untouched — on an unknown version or malformed input.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  TrainStats fit_from_current(const std::vector<std::vector<int>>& sequences,
                              const BaumWelchOptions& options,
                              HmmWorkspace& workspace);

  HmmCore core_;
  int num_symbols_ = 0;
  LogMatrix log_b_;  // X x Y
};

// Convenience: an SSTD-style truth HMM with an informed initialization —
// state 0 = "claim false" prefers negative ACS symbols, state 1 = "claim
// true" prefers positive symbols, and transitions are sticky. Baum-Welch
// refines from here, which is markedly more stable than random restarts
// alone for short per-claim sequences.
DiscreteHmm make_truth_hmm(int num_symbols, double stickiness = 0.9,
                           double emission_bias = 2.0);

}  // namespace sstd
