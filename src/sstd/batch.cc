#include "sstd/batch.h"

#include "core/acs.h"
#include "hmm/gaussian_hmm.h"
#include "hmm/quantizer.h"

namespace sstd {

namespace {

TruthSeries path_to_series(const std::vector<int>& path) {
  TruthSeries series(path.size());
  for (std::size_t k = 0; k < path.size(); ++k) {
    series[k] = static_cast<std::int8_t>(path[k]);
  }
  return series;
}

TruthSeries decode_gaussian(const std::vector<double>& acs, double scale,
                            const SstdConfig& config) {
  GaussianHmm hmm = make_truth_gaussian_hmm(scale, config.stickiness);
  hmm.fit({acs}, config.train);
  hmm.canonicalize_truth_states();
  return path_to_series(hmm.decode(acs));
}

}  // namespace

TruthSeries SstdBatch::decode_claim(const std::vector<double>& acs,
                                    const AcsQuantizer& quantizer,
                                    const SstdConfig& config) {
  if (config.use_gaussian) {
    return decode_gaussian(acs, quantizer.scale(), config);
  }
  const std::vector<int> symbols = quantizer.quantize_series(acs);
  DiscreteHmm hmm = make_truth_hmm(quantizer.num_bins(), config.stickiness,
                                   config.emission_bias);
  hmm.fit({symbols}, config.train);
  hmm.canonicalize_truth_states();
  return path_to_series(hmm.decode(symbols));
}

std::vector<double> SstdBatch::claim_posterior(
    const std::vector<double>& acs, const AcsQuantizer& quantizer,
    const SstdConfig& config) {
  const std::size_t T = acs.size();
  std::vector<double> posterior(T, 0.5);
  if (T == 0) return posterior;

  if (config.use_gaussian) {
    GaussianHmm hmm = make_truth_gaussian_hmm(quantizer.scale(),
                                              config.stickiness);
    hmm.fit({acs}, config.train);
    hmm.canonicalize_truth_states();
    const LogMatrix log_emit = hmm.emission_log_probs(acs);
    const auto fb =
        forward_backward(hmm.core(), log_emit, T, config.train.engine);
    const auto gamma = posterior_log_gamma(hmm.core(), fb, T);
    for (std::size_t k = 0; k < T; ++k) {
      posterior[k] = std::exp(gamma[k * 2 + 1]);
    }
    return posterior;
  }

  const std::vector<int> symbols = quantizer.quantize_series(acs);
  DiscreteHmm hmm = make_truth_hmm(quantizer.num_bins(), config.stickiness,
                                   config.emission_bias);
  hmm.fit({symbols}, config.train);
  hmm.canonicalize_truth_states();
  const LogMatrix log_emit = hmm.emission_log_probs(symbols);
  const auto fb =
      forward_backward(hmm.core(), log_emit, T, config.train.engine);
  const auto gamma = posterior_log_gamma(hmm.core(), fb, T);
  for (std::size_t k = 0; k < T; ++k) {
    posterior[k] = std::exp(gamma[k * 2 + 1]);
  }
  return posterior;
}

std::vector<std::vector<double>> SstdBatch::run_probabilities(
    const Dataset& data) {
  const TimestampMs window =
      config_.window_ms > 0 ? config_.window_ms : data.interval_ms();
  std::vector<std::vector<double>> probabilities(data.num_claims());
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    const auto acs =
        build_acs_series(data.reports_of_claim(ClaimId{u}), data.intervals(),
                         data.interval_ms(), window);
    const AcsQuantizer quantizer =
        AcsQuantizer::fit({acs}, config_.num_bins, config_.scale_quantile);
    probabilities[u] = claim_posterior(acs, quantizer, config_);
  }
  return probabilities;
}

EstimateMatrix SstdBatch::run(const Dataset& data) {
  const TimestampMs window =
      config_.window_ms > 0 ? config_.window_ms : data.interval_ms();

  // Per-claim ACS observation sequences (Eq. 4).
  std::vector<std::vector<double>> acs(data.num_claims());
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    acs[u] = build_acs_series(data.reports_of_claim(ClaimId{u}),
                              data.intervals(), data.interval_ms(), window);
  }

  // Shared fallback quantizer (also the pooled-model geometry): bin scale
  // from the whole trace. Per-claim runs refit the scale on their own
  // series, which adapts to each claim's traffic volume.
  const AcsQuantizer global_quantizer =
      AcsQuantizer::fit(acs, config_.num_bins, config_.scale_quantile);

  EstimateMatrix estimates(data.num_claims());

  if (!config_.per_claim_models && !config_.use_gaussian) {
    // Pooled ablation: one model fit on all claims' symbol sequences.
    std::vector<std::vector<int>> pooled;
    pooled.reserve(data.num_claims());
    for (const auto& series : acs) {
      pooled.push_back(global_quantizer.quantize_series(series));
    }
    DiscreteHmm hmm = make_truth_hmm(global_quantizer.num_bins(),
                                     config_.stickiness,
                                     config_.emission_bias);
    hmm.fit(pooled, config_.train);
    hmm.canonicalize_truth_states();
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      estimates[u] = path_to_series(hmm.decode(pooled[u]));
    }
    return estimates;
  }

  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    const AcsQuantizer quantizer =
        config_.per_claim_scale
            ? AcsQuantizer::fit({acs[u]}, config_.num_bins,
                                config_.scale_quantile)
            : global_quantizer;
    estimates[u] = decode_claim(acs[u], quantizer, config_);
  }
  return estimates;
}

}  // namespace sstd
