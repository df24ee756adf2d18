// Golden-file regression tests for decoded truth (ISSUE 4).
//
// Three fixed-seed synthetic scenarios — steady, bursty, flip-heavy — are
// decoded by batch SSTD and rendered to a canonical text form (per-claim
// estimate strings plus accuracy/F1). The rendering is compared byte-wise
// against committed files in tests/golden/. Any change to decoding
// behavior shows up as a diff here before it shows up in a paper table.
//
// Because Viterbi is additions/comparisons in log space under BOTH
// arithmetic engines, training through the log-space oracle
// (config.train.engine) must leave every golden byte-identical — asserted
// below, and relied on when regenerating (see tests/golden/README.md).
// Legitimate regeneration:
//
//   ./golden_regression_test --update-golden
#include <gtest/gtest.h>

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "hmm/hmm_core.h"
#include "sstd/batch.h"
#include "trace/generator.h"

namespace sstd {
namespace {

bool g_update_golden = false;

struct GoldenScenario {
  std::string name;
  trace::ScenarioConfig config;
};

// Fixed-seed scenario trio. Tuning knobs here invalidate the corpus: bump
// a seed or rate only together with --update-golden (README).
std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> scenarios;

  // Steady: slow truth dynamics, no spikes, no coordinated rumors.
  trace::ScenarioConfig steady = trace::tiny(trace::boston_bombing(), 8'000, 10);
  steady.name = "steady";
  steady.seed = 90'001;
  steady.flip_rate_min = 0.01;
  steady.flip_rate_max = 0.03;
  steady.spike_probability = 0.0;
  steady.misinformation_claim_fraction = 0.0;
  scenarios.push_back({"steady", steady});

  // Bursty: frequent traffic spikes plus misinformation bursts on half
  // the claims (the "touchdown effect" stress case).
  trace::ScenarioConfig bursty = trace::tiny(trace::boston_bombing(), 8'000, 10);
  bursty.name = "bursty";
  bursty.seed = 90'002;
  bursty.spike_probability = 0.30;
  bursty.spike_multiplier = 8.0;
  bursty.misinformation_claim_fraction = 0.5;
  scenarios.push_back({"bursty", bursty});

  // Flip-heavy: fast-moving truth, the regime where HMM dynamics matter
  // most relative to voting baselines.
  trace::ScenarioConfig flip = trace::tiny(trace::paris_shooting(), 8'000, 10);
  flip.name = "flip_heavy";
  flip.seed = 90'003;
  flip.flip_rate_min = 0.12;
  flip.flip_rate_max = 0.30;
  scenarios.push_back({"flip_heavy", flip});

  return scenarios;
}

char estimate_char(std::int8_t estimate) {
  if (estimate == kNoEstimate) return '.';
  return estimate == 1 ? '1' : '0';
}

// Canonical text form: deterministic, engine-independent, diff-friendly.
std::string render(const GoldenScenario& scenario,
                   const SstdConfig& config = {}) {
  trace::TraceGenerator generator(scenario.config);
  const Dataset data = generator.generate();
  SstdBatch scheme(config);
  const EstimateMatrix estimates = scheme.run(data);

  EvalOptions eval;
  eval.window_ms = data.interval_ms();
  const auto cm = evaluate(data, estimates, eval);

  std::ostringstream out;
  out << "scenario " << scenario.name << "\n";
  out << "claims " << data.num_claims() << " intervals " << data.intervals()
      << "\n";
  out << std::fixed << std::setprecision(6);
  out << "accuracy " << cm.accuracy() << " f1 " << cm.f1() << "\n";
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    out << "claim " << u << " ";
    for (IntervalIndex k = 0; k < data.intervals(); ++k) {
      out << estimate_char(estimates[u][k]);
    }
    out << "\n";
  }
  return out.str();
}

std::string golden_path(const std::string& name) {
  return std::string(SSTD_GOLDEN_DIR) + "/" + name + ".golden";
}

void check_golden(const GoldenScenario& scenario) {
  const std::string rendered = render(scenario);
  const std::string path = golden_path(scenario.name);

  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with --update-golden";
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(rendered, contents.str())
      << "decoded truth drifted from " << path
      << "; if the change is intended, regenerate with --update-golden";
}

GoldenScenario scenario_by_name(const std::string& name) {
  for (auto& s : golden_scenarios()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return {};
}

TEST(GoldenRegression, SteadyScenarioMatchesGolden) {
  check_golden(scenario_by_name("steady"));
}

TEST(GoldenRegression, BurstyScenarioMatchesGolden) {
  check_golden(scenario_by_name("bursty"));
}

TEST(GoldenRegression, FlipHeavyScenarioMatchesGolden) {
  check_golden(scenario_by_name("flip_heavy"));
}

// Acceptance gate: the default (scaled) engine and the log-space oracle
// must render every scenario byte-identically — decoding behavior is an
// engine-independent contract, not a numerical accident we tolerate.
TEST(GoldenRegression, LogSpaceEngineRendersByteIdenticalOutput) {
  SstdConfig logspace_config;
  logspace_config.train.engine = HmmEngine::kLogSpace;
  for (const auto& scenario : golden_scenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::string scaled = render(scenario);
    const std::string logspace = render(scenario, logspace_config);
    EXPECT_EQ(scaled, logspace);
  }
}

}  // namespace
}  // namespace sstd

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      sstd::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
