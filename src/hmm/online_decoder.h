// Online decoder for one claim's chain (paper §III-D applied online).
//
// SSTD must emit a truth estimate at every interval boundary as data
// streams in; re-running batch Viterbi and forward-backward over the whole
// history each interval would be O(T^2) per claim. OnlineDecoder carries
// the two recursions incrementally, one O(X^2) step each per observation:
//
//   - max-sum (Viterbi): the trellis frontier plus one backpointer row per
//     step, so the current most likely state is available immediately and
//     a smoothed decision `lag` steps back is one backtrack away;
//   - sum-product (forward filter): the normalized filtering distribution
//     P(s_t | o_1..o_t), the *soft* estimate — a "0.51 true" and a
//     "0.99 true" are different alerts for triage and thresholding.
//
// The decoder does not copy the model: step() and reset() read the
// transition core the caller passes in (the claim's own
// DiscreteHmm::core()), which must have the same state count for every
// call between two resets. Backpointer rows are append-only over the whole
// history since the last reset, and the step scratch is a member, so
// step() allocates nothing beyond amortized row growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hmm/hmm_core.h"

namespace sstd {

class OnlineDecoder {
 public:
  OnlineDecoder() = default;
  explicit OnlineDecoder(const HmmCore& core) { reset(core); }

  // Restarts decoding from scratch for `core`'s state count (a streaming
  // refit): uniform filter prior, no history. Retained capacity is kept.
  void reset(const HmmCore& core);

  // Advances one time step. `log_emit` has core.num_states entries of
  // per-state emission log-probabilities, so it works with both discrete
  // and Gaussian emissions.
  void step(const HmmCore& core, const std::vector<double>& log_emit);

  // Observations consumed since the last reset.
  std::size_t steps() const { return steps_; }

  // Most likely current state given everything seen so far (filtered
  // decision; what the streaming engine reports each interval).
  int current_state() const;

  // Most likely state at `steps() - 1 - lag`, backtracking through the
  // stored trellis (smoothed decision). Throws when lag >= steps().
  int lagged_state(std::size_t lag) const;

  // Full Viterbi path over the history since the last reset.
  std::vector<int> traceback() const;

  // Filtering probability of state `i` given everything seen so far.
  // Uniform prior before the first observation.
  double probability(int state) const;

  // Convenience for 2-state truth models: P(state 1) = P(claim true).
  double probability_true() const { return probability(1); }

  // Durable state history (DESIGN.md §7): byte-exact dump of the decoder's
  // own state — step counter, Viterbi frontier, filtering distribution and
  // backpointer rows; the model is saved by its owner. load() checks the
  // image against `core`'s state count, and fails the reader and leaves
  // the decoder untouched on malformed input.
  void save(ByteWriter& out) const;
  void load(ByteReader& in, const HmmCore& core);

 private:
  std::vector<double> delta_;   // Viterbi frontier, X entries (log)
  std::vector<double> alpha_;   // filtering distribution, X entries
  std::vector<double> next_;    // step scratch, X entries
  std::vector<std::int32_t> back_;  // flat backpointer rows, X per step
  std::size_t steps_ = 0;
};

}  // namespace sstd
