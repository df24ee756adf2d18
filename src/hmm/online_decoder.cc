#include "hmm/online_decoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/serialize.h"
#include "hmm/logspace.h"

namespace sstd {

void OnlineDecoder::reset(const HmmCore& core) {
  if (core.num_states <= 0) {
    throw std::invalid_argument("OnlineDecoder: empty core");
  }
  const std::size_t X = static_cast<std::size_t>(core.num_states);
  delta_.assign(X, 0.0);
  alpha_.assign(X, 1.0 / static_cast<double>(X));
  next_.resize(X);
  back_.clear();
  steps_ = 0;
}

void OnlineDecoder::step(const HmmCore& core,
                         const std::vector<double>& log_emit) {
  const int X = core.num_states;
  assert(delta_.size() == static_cast<std::size_t>(X));
  assert(log_emit.size() == static_cast<std::size_t>(X));

  // Max-sum: extend the trellis by one backpointer row.
  back_.resize(back_.size() + static_cast<std::size_t>(X));
  std::int32_t* back = &back_[back_.size() - static_cast<std::size_t>(X)];
  if (steps_ == 0) {
    std::fill(back, back + X, 0);
    for (int i = 0; i < X; ++i) delta_[i] = core.log_pi[i] + log_emit[i];
  } else {
    for (int j = 0; j < X; ++j) {
      double best = kLogZero;
      int arg = 0;
      for (int i = 0; i < X; ++i) {
        const double cand = delta_[i] + core.log_a_at(i, j);
        if (cand > best) {
          best = cand;
          arg = i;
        }
      }
      next_[j] = best + log_emit[j];
      back[j] = arg;
    }
    delta_.swap(next_);
  }
  // Renormalize the frontier to keep log-values bounded on long streams
  // (subtracting a constant does not change any argmax).
  double peak = kLogZero;
  for (double v : delta_) peak = std::max(peak, v);
  if (peak != kLogZero) {
    for (double& v : delta_) v -= peak;
  }

  // Sum-product: predict, weight by the emission, normalize.
  if (steps_ == 0) {
    for (int i = 0; i < X; ++i) {
      next_[i] = std::exp(core.log_pi[i] + log_emit[i]);
    }
  } else {
    for (int j = 0; j < X; ++j) {
      double predicted = 0.0;
      for (int i = 0; i < X; ++i) {
        predicted += alpha_[i] * std::exp(core.log_a_at(i, j));
      }
      next_[j] = predicted * std::exp(log_emit[j]);
    }
  }
  // A numerically impossible observation keeps the previous distribution
  // rather than dividing by zero.
  double total = 0.0;
  for (double value : next_) total += value;
  if (total > 0.0) {
    for (double& value : next_) value /= total;
    alpha_.swap(next_);
  }
  ++steps_;
}

int OnlineDecoder::current_state() const {
  if (steps_ == 0) {
    throw std::logic_error("OnlineDecoder: no observations yet");
  }
  int arg = 0;
  for (std::size_t i = 1; i < delta_.size(); ++i) {
    if (delta_[i] > delta_[arg]) arg = static_cast<int>(i);
  }
  return arg;
}

int OnlineDecoder::lagged_state(std::size_t lag) const {
  if (lag >= steps_) {
    throw std::out_of_range("OnlineDecoder: lag exceeds history");
  }
  const std::size_t X = delta_.size();
  int state = current_state();
  // Walk backpointers from the frontier `lag` steps into the past.
  for (std::size_t back = 0; back < lag; ++back) {
    state = back_[(steps_ - 1 - back) * X + static_cast<std::size_t>(state)];
  }
  return state;
}

std::vector<int> OnlineDecoder::traceback() const {
  std::vector<int> path(steps_);
  if (steps_ == 0) return path;
  const std::size_t X = delta_.size();
  int state = current_state();
  path.back() = state;
  for (std::size_t t = steps_ - 1; t > 0; --t) {
    state = back_[t * X + static_cast<std::size_t>(state)];
    path[t - 1] = state;
  }
  return path;
}

double OnlineDecoder::probability(int state) const {
  return alpha_.at(static_cast<std::size_t>(state));
}

void OnlineDecoder::save(ByteWriter& out) const {
  out.u64(steps_);
  out.f64_vec(delta_);
  out.f64_vec(alpha_);
  out.i32_vec(back_);
}

void OnlineDecoder::load(ByteReader& in, const HmmCore& core) {
  const std::uint64_t steps = in.u64();
  std::vector<double> delta;
  in.f64_vec(&delta);
  std::vector<double> alpha;
  in.f64_vec(&alpha);
  std::vector<std::int32_t> back;
  in.i32_vec(&back);
  if (!in.ok()) return;
  const std::size_t X = static_cast<std::size_t>(core.num_states);
  if (X == 0 || delta.size() != X || alpha.size() != X ||
      back.size() / X != steps || back.size() % X != 0) {
    in.fail();
    return;
  }
  for (const std::int32_t b : back) {
    if (b < 0 || static_cast<std::size_t>(b) >= X) {
      in.fail();
      return;
    }
  }
  delta_ = std::move(delta);
  alpha_ = std::move(alpha);
  next_.assign(X, 0.0);
  back_ = std::move(back);
  steps_ = static_cast<std::size_t>(steps);
}

}  // namespace sstd
