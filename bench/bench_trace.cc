// Tracing-overhead bench (ISSUE 8, DESIGN.md §5d): what does causal
// tracing cost the streaming runtime? Drives the same SstdSystem workload
// with tracing off, sampled (1%) and full (every report mints a trace,
// every shard task carries attempt/refit/decision spans) and compares
// refit throughput. The acceptance bar is <5% refits/sec overhead with
// tracing enabled.
//
// The headline is the median over rounds of the paired off-vs-full delta
// (as in bench_prof_overhead): each round runs every mode back to back.
//
// Results land in bench_results/BENCH_trace_overhead.json with
// build-provenance metadata. `--smoke` runs a scaled-down sweep (< 5 s)
// and self-validates the emitted JSON — wired into ctest under the
// bench_smoke label.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sstd/system.h"
#include "trace/generator.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace sstd {
namespace {

struct ModePoint {
  double sample_rate = 0.0;
  double wall_s = 0.0;
  std::uint64_t reports = 0;
  std::uint64_t refits = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t decisions_recorded = 0;

  double refits_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(refits) / wall_s : 0.0;
  }
};

// One full streaming run of `data` at the given trace sampling rate;
// refit throughput is the metric tracing must not tax.
ModePoint measure(const Dataset& data, double sample_rate) {
  obs::TraceRecorder::global().clear();
  obs::DecisionProvenanceRing::global().clear();

  SstdSystem::Config config;
  config.workers = 4;
  config.num_jobs = 8;
  config.interval_deadline_s = 10.0;
  config.sstd.refit_every = 1;  // refit-dominated: the worst case for tracing
  config.sstd.warmup_intervals = 1;
  config.trace_sample_rate = sample_rate;
  SstdSystem system(config, data.interval_ms());

  // Engine-side refit tally: delta of the global stream.refits counter
  // over the run (the registry outlives bench iterations).
  obs::Counter* refit_counter =
      obs::MetricsRegistry::global().counter("stream.refits");
  const std::uint64_t refits_before = refit_counter->value();

  const auto& reports = data.reports();
  std::size_t next = 0;
  Stopwatch watch;
  for (IntervalIndex k = 0; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      system.ingest(reports[next]);
      ++next;
    }
    system.end_interval(k);
  }

  ModePoint point;
  point.sample_rate = sample_rate;
  point.wall_s = watch.elapsed_seconds();
  point.reports = system.metrics().reports_ingested;
  point.refits = refit_counter->value() - refits_before;
  point.spans_recorded = obs::TraceRecorder::global().recorded();
  point.decisions_recorded = obs::DecisionProvenanceRing::global().recorded();
  return point;
}

void emit_json(const std::vector<ModePoint>& modes, double overhead_pct,
               std::size_t paired_rounds, const bench::RunProvenance& prov) {
  std::ofstream out(bench::results_path("BENCH_trace_overhead.json"));
  out << "{\n  \"bench\": \"trace_overhead\",\n  \"meta\": "
      << bench::run_metadata_json(prov) << ",\n  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModePoint& m = modes[i];
    out << "    {\"sample_rate\": " << m.sample_rate
        << ", \"wall_s\": " << m.wall_s << ", \"reports\": " << m.reports
        << ", \"refits\": " << m.refits
        << ", \"refits_per_sec\": " << m.refits_per_sec()
        << ", \"spans_recorded\": " << m.spans_recorded
        << ", \"decisions_recorded\": " << m.decisions_recorded << "}"
        << (i + 1 < modes.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"paired_rounds\": " << paired_rounds
      << ",\n  \"full_tracing_overhead_pct\": " << overhead_pct << "\n}\n";
}

// Smoke self-validation: the artifact exists, is JSON-shaped, covers the
// off/sampled/full modes and carries the headline overhead number.
bool validate_json() {
  std::ifstream in(bench::results_path("BENCH_trace_overhead.json"));
  if (!in.good()) {
    std::fprintf(stderr, "BENCH_trace_overhead.json missing\n");
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const bool shaped =
      !json.empty() && json.front() == '{' &&
      json.find("\"sample_rate\": 0,") != std::string::npos &&
      json.find("\"sample_rate\": 1,") != std::string::npos &&
      json.find("\"refits_per_sec\": ") != std::string::npos &&
      json.find("\"spans_recorded\": ") != std::string::npos &&
      json.find("\"full_tracing_overhead_pct\": ") != std::string::npos &&
      json.rfind('}') > json.find('{');
  if (!shaped) {
    std::fprintf(stderr, "BENCH_trace_overhead.json malformed:\n%s\n",
                 json.c_str());
  }
  return shaped;
}

int run(bool smoke) {
  // 200 claims gives a refit-heavy run (~0.5 s per rep): long enough
  // that scheduler jitter stops dominating the mode deltas.
  trace::TraceGenerator generator(trace::tiny(
      trace::boston_bombing(), smoke ? 8'000 : 240'000, smoke ? 10 : 200));
  const Dataset data = generator.generate();

  // Interleaved rounds (off, sampled, full, off, …): interleaving spreads
  // clock drift and thermal state evenly across the modes. Per-mode
  // totals feed the table; the headline comes from the paired rounds.
  const int reps = smoke ? 7 : 9;
  const std::vector<double> rates = {0.0, 0.01, 1.0};
  std::vector<ModePoint> modes(rates.size());
  std::vector<double> round_overhead_pct;
  for (int r = 0; r < reps; ++r) {
    double off_rps = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      ModePoint point = measure(data, rates[i]);
      if (i == 0) off_rps = point.refits_per_sec();
      if (i + 1 == rates.size() && off_rps > 0.0) {
        round_overhead_pct.push_back(
            (off_rps - point.refits_per_sec()) / off_rps * 100.0);
      }
      modes[i].sample_rate = point.sample_rate;
      modes[i].wall_s += point.wall_s;
      modes[i].reports += point.reports;
      modes[i].refits += point.refits;
      modes[i].spans_recorded += point.spans_recorded;
      modes[i].decisions_recorded += point.decisions_recorded;
    }
  }

  // Median of PAIRED per-round deltas: slow box drift hits both sides of
  // a pair equally and cancels in the ratio, and the median shrugs off a
  // round hit by a burst of unrelated load.
  const std::size_t n = round_overhead_pct.size();
  const double overhead_pct = percentile(round_overhead_pct, 0.5);

  TextTable table("Causal-tracing overhead (DESIGN.md §5d)");
  table.set_columns(
      {"Sample rate", "Wall s", "Refits/s", "Spans", "Decisions"});
  for (const ModePoint& m : modes) {
    table.add_row({TextTable::num(m.sample_rate, 2), TextTable::num(m.wall_s),
                   TextTable::num(m.refits_per_sec(), 0),
                   std::to_string(m.spans_recorded),
                   std::to_string(m.decisions_recorded)});
  }
  table.print();
  std::printf(
      "full-tracing refit-throughput overhead (median of %zu paired "
      "rounds): %.2f%%\n",
      n, overhead_pct);

  emit_json(modes, overhead_pct, n,
            bench::scenario_provenance(generator.config(), data));
  return validate_json() ? 0 : 1;
}

}  // namespace
}  // namespace sstd

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::filesystem::create_directories("bench_results");
  return sstd::run(smoke);
}
