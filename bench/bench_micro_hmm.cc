// Microbenchmarks (google-benchmark) of the hot kernels: Baum-Welch
// training, batch and online Viterbi, ACS construction and quantization.
// These bound SSTD's per-claim costs and justify the per-claim task sizing
// in the distributed runtime.
//
// The headline comparison is scaled vs log-space HMM arithmetic
// (DESIGN.md §6): a time-boxed refits/sec + decodes/sec measurement per
// engine, written to bench_results/BENCH_micro_hmm.json with an "engine"
// field per record plus the speedup. `--smoke` runs only that comparison
// with small time budgets and self-validates the JSON (wired into ctest
// under the bench_smoke label); the full run also executes the
// google-benchmark suite.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/acs.h"
#include "hmm/discrete_hmm.h"
#include "hmm/gaussian_hmm.h"
#include "hmm/online_decoder.h"
#include "hmm/quantizer.h"
#include "hmm/scaled_kernel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace sstd {
namespace {

std::vector<int> random_symbols(std::size_t length, int num_symbols,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> symbols(length);
  for (auto& symbol : symbols) {
    symbol = static_cast<int>(rng.below(num_symbols));
  }
  return symbols;
}

HmmEngine engine_from_index(std::int64_t index) {
  return index == 0 ? HmmEngine::kScaled : HmmEngine::kLogSpace;
}

const char* engine_name(HmmEngine engine) {
  return engine == HmmEngine::kScaled ? "scaled" : "logspace";
}

// The production refit shape (SstdStreaming::refit): T = 100 intervals,
// informed 7-symbol truth model, frozen emissions, 30 EM iterations.
BaumWelchOptions refit_options(HmmEngine engine) {
  BaumWelchOptions options;
  options.update_emissions = false;
  options.max_iterations = 30;
  options.engine = engine;
  return options;
}

struct EngineThroughput {
  std::string engine;
  double refits_per_sec = 0.0;
  double decodes_per_sec = 0.0;
};

// Time-boxed throughput of one engine on the production refit/decode
// shapes. One workspace serves the whole loop, as in a streaming shard.
EngineThroughput measure_engine(HmmEngine engine, double budget_s) {
  constexpr std::size_t kT = 100;
  const auto symbols = random_symbols(kT, 7, 1);
  const std::vector<std::vector<int>> batch{symbols};
  const BaumWelchOptions options = refit_options(engine);
  HmmWorkspace workspace;

  EngineThroughput result;
  result.engine = engine_name(engine);

  {
    DiscreteHmm warmup = make_truth_hmm(7);
    warmup.fit(batch, options, &workspace);  // buffers reach full size
  }
  std::uint64_t refits = 0;
  Stopwatch fit_watch;
  double elapsed = 0.0;
  do {
    DiscreteHmm hmm = make_truth_hmm(7);
    benchmark::DoNotOptimize(hmm.fit(batch, options, &workspace));
    ++refits;
  } while ((elapsed = fit_watch.elapsed_seconds()) < budget_s);
  result.refits_per_sec = static_cast<double>(refits) / elapsed;

  const DiscreteHmm decoder = make_truth_hmm(7);
  const LogMatrix log_emit = decoder.emission_log_probs(symbols);
  std::uint64_t decodes = 0;
  Stopwatch decode_watch;
  do {
    benchmark::DoNotOptimize(
        viterbi(decoder.core(), log_emit, kT, engine));
    ++decodes;
  } while ((elapsed = decode_watch.elapsed_seconds()) < budget_s / 4.0);
  result.decodes_per_sec = static_cast<double>(decodes) / elapsed;
  return result;
}

void emit_engine_json(const std::vector<EngineThroughput>& engines,
                      double speedup, const std::string& profile_json) {
  // Kernel bench over one synthetic 100-symbol claim series (seed 1 in
  // random_symbols above) — provenance names that shape, not a trace.
  bench::RunProvenance prov;
  prov.workload = "micro_hmm_random_symbols";
  prov.seed = 1;
  prov.num_claims = 1;
  prov.num_reports = 100;
  std::ofstream out(bench::results_path("BENCH_micro_hmm.json"));
  out << "{\n  \"bench\": \"micro_hmm\",\n  \"meta\": "
      << bench::run_metadata_json(prov) << ",\n  \"refit_shape\": "
      << "{\"T\": 100, \"states\": 2, \"symbols\": 7, \"iterations\": 30},\n"
      << "  \"engines\": [\n";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const EngineThroughput& e = engines[i];
    out << "    {\"engine\": \"" << e.engine
        << "\", \"refits_per_sec\": " << e.refits_per_sec
        << ", \"decodes_per_sec\": " << e.decodes_per_sec << "}"
        << (i + 1 < engines.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedup_refits_scaled_vs_logspace\": " << speedup;
  if (!profile_json.empty()) {
    out << ",\n  \"profile\": " << profile_json;
  }
  out << "\n}\n";
}

// Smoke self-validation: the emitted file must exist, look like a JSON
// object and carry both engines' records with positive finite numbers.
bool validate_engine_json() {
  std::ifstream in(bench::results_path("BENCH_micro_hmm.json"));
  if (!in.good()) {
    std::fprintf(stderr, "BENCH_micro_hmm.json missing\n");
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const bool shaped = !json.empty() && json.front() == '{' &&
                      json.find("\"engine\": \"scaled\"") != std::string::npos &&
                      json.find("\"engine\": \"logspace\"") !=
                          std::string::npos &&
                      json.find("\"refits_per_sec\": ") != std::string::npos &&
                      json.find("\"speedup_refits_scaled_vs_logspace\": ") !=
                          std::string::npos &&
                      json.rfind('}') > json.find('{');
  if (!shaped) {
    std::fprintf(stderr, "BENCH_micro_hmm.json malformed:\n%s\n",
                 json.c_str());
  }
  return shaped;
}

// Runs the dual-engine comparison, emits + validates the JSON. Returns
// false only on a malformed artifact (throughput itself is reported, not
// gated: CI machines vary). With `profile`, the sampling profiler runs
// across the measurement, folded stacks land in
// bench_results/PROFILE_micro_hmm.folded, and the top-k cost centers are
// embedded into the JSON (ISSUE 10).
bool run_engine_comparison(bool smoke, bool profile) {
  const double budget_s = smoke ? 0.4 : 2.0;
  if (profile) {
    obs::CostRegistry::global().reset();
    obs::CpuProfiler::register_current_thread();
    std::string prof_error;
    if (!obs::CpuProfiler::global().start({}, &prof_error)) {
      std::fprintf(stderr, "profiler not armed: %s\n", prof_error.c_str());
    }
  }
  std::vector<EngineThroughput> engines;
  engines.push_back(measure_engine(HmmEngine::kScaled, budget_s));
  engines.push_back(measure_engine(HmmEngine::kLogSpace, budget_s));
  std::string profile_json;
  if (profile) {
    obs::CpuProfiler& prof = obs::CpuProfiler::global();
    if (prof.running()) {
      prof.stop();
      const std::string path =
          bench::write_folded_stacks("micro_hmm", prof.collect_folded());
      if (!path.empty()) std::printf("folded stacks: %s\n", path.c_str());
    }
    profile_json = bench::cost_profile_json();
  }
  const double speedup =
      engines[1].refits_per_sec > 0.0
          ? engines[0].refits_per_sec / engines[1].refits_per_sec
          : 0.0;
  emit_engine_json(engines, speedup, profile_json);

  for (const auto& e : engines) {
    std::printf("engine=%-8s refits/sec=%10.1f decodes/sec=%10.1f\n",
                e.engine.c_str(), e.refits_per_sec, e.decodes_per_sec);
  }
  std::printf("speedup (refits, scaled vs logspace): %.2fx\n", speedup);
  if (!std::isfinite(speedup) || speedup <= 0.0) return false;
  return validate_engine_json();
}

void BM_BaumWelchFit(benchmark::State& state) {
  const auto T = static_cast<std::size_t>(state.range(0));
  const HmmEngine engine = engine_from_index(state.range(1));
  const auto symbols = random_symbols(T, 7, 1);
  const std::vector<std::vector<int>> batch{symbols};
  const BaumWelchOptions options = refit_options(engine);
  HmmWorkspace workspace;
  for (auto _ : state) {
    DiscreteHmm hmm = make_truth_hmm(7);
    benchmark::DoNotOptimize(hmm.fit(batch, options, &workspace));
  }
  state.SetLabel(engine_name(engine));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(T));
}
BENCHMARK(BM_BaumWelchFit)
    ->ArgNames({"T", "engine"})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

void BM_BaumWelchFullEm(benchmark::State& state) {
  const auto T = static_cast<std::size_t>(state.range(0));
  const HmmEngine engine = engine_from_index(state.range(1));
  const auto symbols = random_symbols(T, 7, 2);
  BaumWelchOptions options;
  options.restarts = 4;
  options.engine = engine;
  for (auto _ : state) {
    DiscreteHmm hmm = make_truth_hmm(7);
    benchmark::DoNotOptimize(hmm.fit({symbols}, options));
  }
  state.SetLabel(engine_name(engine));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(T));
}
BENCHMARK(BM_BaumWelchFullEm)
    ->ArgNames({"T", "engine"})
    ->Args({100, 0})
    ->Args({100, 1});

void BM_ViterbiDecode(benchmark::State& state) {
  const auto T = static_cast<std::size_t>(state.range(0));
  const HmmEngine engine = engine_from_index(state.range(1));
  const auto symbols = random_symbols(T, 7, 3);
  const DiscreteHmm hmm = make_truth_hmm(7);
  const LogMatrix log_emit = hmm.emission_log_probs(symbols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(viterbi(hmm.core(), log_emit, T, engine));
  }
  state.SetLabel(engine_name(engine));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(T));
}
BENCHMARK(BM_ViterbiDecode)
    ->ArgNames({"T", "engine"})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// One streaming decode step (Viterbi frontier + forward filter). The
// decoder keeps every backpointer row since its last reset, so the loop
// resets it every kStepsPerReset steps — a long claim history between two
// refits — to time the step rather than unbounded history growth.
void BM_OnlineDecoderStep(benchmark::State& state) {
  constexpr std::size_t kStepsPerReset = 1024;
  const DiscreteHmm hmm = make_truth_hmm(7);
  OnlineDecoder online(hmm.core());
  Rng rng(4);
  std::vector<double> log_emit(2);
  for (auto _ : state) {
    if (online.steps() == kStepsPerReset) online.reset(hmm.core());
    const int symbol = static_cast<int>(rng.below(7));
    log_emit[0] = hmm.log_b(0, symbol);
    log_emit[1] = hmm.log_b(1, symbol);
    online.step(hmm.core(), log_emit);
    benchmark::DoNotOptimize(online.current_state());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineDecoderStep);

void BM_GaussianFit(benchmark::State& state) {
  const HmmEngine engine = engine_from_index(state.range(1));
  Rng rng(5);
  std::vector<double> series(static_cast<std::size_t>(state.range(0)));
  for (auto& value : series) value = rng.normal();
  BaumWelchOptions options;
  options.update_emissions = false;
  options.max_iterations = 30;
  options.engine = engine;
  HmmWorkspace workspace;
  for (auto _ : state) {
    GaussianHmm hmm = make_truth_gaussian_hmm(1.0);
    benchmark::DoNotOptimize(hmm.fit({series}, options, &workspace));
  }
  state.SetLabel(engine_name(engine));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianFit)
    ->ArgNames({"T", "engine"})
    ->Args({100, 0})
    ->Args({100, 1});

void BM_AcsSeriesBuild(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<Report> reports(count);
  for (std::size_t i = 0; i < count; ++i) {
    reports[i].source = SourceId{static_cast<std::uint32_t>(i % 1000)};
    reports[i].claim = ClaimId{0};
    reports[i].time_ms = static_cast<TimestampMs>(i * 100'000 / count);
    reports[i].attitude = rng.bernoulli(0.7) ? 1 : -1;
    reports[i].uncertainty = rng.uniform();
    reports[i].independence = rng.uniform(0.5, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_acs_series(reports, 100, 1000, 1000));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(count));
}
BENCHMARK(BM_AcsSeriesBuild)->Arg(1000)->Arg(100000);

void BM_QuantizeSeries(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> series(10'000);
  for (auto& value : series) value = rng.normal(0.0, 3.0);
  const AcsQuantizer quantizer(7, 3.0);
  std::vector<int> symbols;
  for (auto _ : state) {
    quantizer.quantize_series_into(series, symbols);
    benchmark::DoNotOptimize(symbols.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(series.size()));
}
BENCHMARK(BM_QuantizeSeries);

}  // namespace
}  // namespace sstd

int main(int argc, char** argv) {
  bool smoke = false;
  bool profile = false;
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }

  std::filesystem::create_directories("bench_results");
  const bool ok = sstd::run_engine_comparison(smoke, profile);
  if (smoke) return ok ? 0 : 1;

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
