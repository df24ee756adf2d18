// batch-boston: the paper's Fig. 4 job. DistributedSstd::run over the
// Boston-Bombing scenario scaled 4x (1,200 claims, 100 intervals), one
// Work Queue task per claim on a fixed three-worker pool, repeated on one
// generated trace. A round is: generate the trace (set-up), kRunsPerRound
// timed run() calls, then a restart that re-indexes the raw reports into
// a fresh Dataset and runs once more. Rounds repeat until --seconds pass.
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sstd/batch.h"
#include "sstd/distributed.h"
#include "trace/generator.h"
#include "trace/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sstd::Dataset;
using sstd::EstimateMatrix;

constexpr int kRunsPerRound = 20;

sstd::trace::ScenarioConfig scenario(std::uint64_t seed) {
  const sstd::trace::ScenarioConfig base = sstd::trace::boston_bombing();
  sstd::trace::ScenarioConfig config = base.scaled_to(4 * base.total_reports);
  config.num_claims = 4 * base.num_claims;
  config.seed = seed;
  return config;
}

sstd::DistributedConfig distributed_config(std::size_t workers) {
  sstd::DistributedConfig config;
  config.workers = workers;
  config.num_jobs = 8;
  return config;
}

// Accuracy of `estimates` and of the benchmark's own per-interval
// contribution-score vote against the generator's ground truth, over
// every (claim, interval) cell with at least one report.
struct Accuracy {
  double sstd = 0.0;
  double vote = 0.0;
  std::uint64_t cells = 0;
};

Accuracy accuracy(const Dataset& data, const EstimateMatrix& estimates,
                  bool invert) {
  std::uint64_t cells = 0, sstd_ok = 0, vote_ok = 0;
  std::vector<double> score(data.intervals());
  std::vector<char> active(data.intervals());
  for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
    std::fill(score.begin(), score.end(), 0.0);
    std::fill(active.begin(), active.end(), 0);
    for (const sstd::Report& r : data.reports_of_claim(sstd::ClaimId{u})) {
      const sstd::IntervalIndex k = data.interval_of(r.time_ms);
      score[k] += sstd::contribution_score(r);
      active[k] = 1;
    }
    const sstd::TruthSeries& truth = data.ground_truth(sstd::ClaimId{u});
    for (sstd::IntervalIndex k = 0; k < data.intervals(); ++k) {
      if (!active[k]) continue;
      const int expected = invert ? 1 - truth[k] : truth[k];
      ++cells;
      sstd_ok += estimates[u][k] == expected;
      vote_ok += (score[k] > 0.0 ? 1 : 0) == expected;
    }
  }
  Accuracy out;
  out.cells = cells;
  if (cells) {
    out.sstd = static_cast<double>(sstd_ok) / static_cast<double>(cells);
    out.vote = static_cast<double>(vote_ok) / static_cast<double>(cells);
  }
  return out;
}

}  // namespace

void run_batch(const Options& opts, Result& result, SpanLog& spans) {
  ThreadGuard guard(opts.workers - (opts.inject == "thread-cap" ? 1 : 0));
  Timings timings;
  LayerTotals layers;
  LayerTotals no_recovery;
  std::vector<double> queue_wait_s, exec_s;
  double generate_s = 0.0;
  double worker_sum = 0.0;
  int rounds = 0, runs = 0;
  std::unique_ptr<Dataset> data;
  EstimateMatrix first;  // first run's rows; every later run must match
  std::uint64_t mismatched_runs = 0;

  auto check_run = [&](const sstd::DistributedSstd& engine,
                       EstimateMatrix rows) {
    const auto& stats = engine.last_run_stats();
    std::size_t degraded = stats.degraded_claims + stats.failed_claims;
    if (opts.inject == "degraded") ++degraded;
    if (degraded > 0) {
      result.fail_check(std::to_string(degraded) +
                        " claims failed or were degraded");
    }
    std::set<std::uint32_t> used;
    for (const auto& report : engine.last_reports()) {
      used.insert(report.worker);
    }
    guard.observe_pool(used.size());
    worker_sum += static_cast<double>(used.size());
    if (first.empty()) {
      first = std::move(rows);
    } else if (rows != first) {
      ++mismatched_runs;
    }
  };

  const double start = now_s();
  double round_s = 0.0;
  do {
    const double round_start = now_s();
    // --- set-up: generate the trace, build the engine -------------------
    const double s0 = now_s();
    data.reset();
    {
      const Timed span(spans, "trace.generate", rounds);
      data = std::make_unique<Dataset>(
          sstd::trace::TraceGenerator(scenario(opts.seed)).generate());
    }
    generate_s += now_s() - s0;
    sstd::DistributedSstd engine(distributed_config(opts.workers));
    timings.setup_s.push_back(now_s() - s0);

    // --- timed runs -------------------------------------------------------
    for (int i = 0; i < kRunsPerRound; ++i) {
      const std::int64_t id = static_cast<std::int64_t>(runs);
      if (opts.trace) layers.begin();
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      EstimateMatrix rows;
      {
        const Timed span(spans, "DistributedSstd::run", id);
        rows = engine.run(*data);
      }
      const double t1 = now_s();
      timings.timed_cpu_s += process_cpu_s() - cpu0;
      if (opts.trace) layers.end();
      timings.timed_s += t1 - t0;
      timings.reports += data->num_reports();
      timings.decision_s.push_back(t1 - t0);
      for (const auto& report : engine.last_reports()) {
        timings.refit_s.push_back(report.sojourn_s());
        queue_wait_s.push_back(report.queue_wait_s());
        exec_s.push_back(report.execution_s());
      }
      result.count_ops(1);
      ++runs;
      check_run(engine, std::move(rows));
    }

    // The job's peak, before the restart holds a second copy of the trace.
    if (rounds == 0) timings.rss_peak_mib = rss_peak_mib();

    // --- restart: re-index the raw reports and run once more ------------
    {
      const double r0 = now_s();
      EstimateMatrix rows;
      sstd::DistributedSstd restarted(distributed_config(opts.workers));
      {
        const Timed span(spans, "restart.reindex_and_run", rounds);
        Dataset reindexed(data->name(), data->num_sources(),
                          data->num_claims(), data->intervals(),
                          data->interval_ms());
        for (const sstd::Report& r : data->reports()) reindexed.add_report(r);
        reindexed.finalize();
        rows = restarted.run(reindexed);
      }
      timings.recovery_s.push_back(now_s() - r0);
      result.count_ops(1);
      check_run(restarted, std::move(rows));
    }
    ++rounds;
    round_s = now_s() - round_start;
  } while (now_s() - start + round_s / 2 < opts.seconds);
  guard.finish(result);
  result.note("claims", std::to_string(data->num_claims()));
  result.note("intervals", std::to_string(data->intervals()));
  result.note("reports", std::to_string(data->num_reports()));
  result.note("runs", std::to_string(runs));
  result.note("rounds", std::to_string(rounds));
  result.note("workers", std::to_string(opts.workers));
  result.note("peak_threads", std::to_string(guard.peak_threads()));

  // --- checks -------------------------------------------------------------
  if (mismatched_runs > 0) {
    result.fail_check(std::to_string(mismatched_runs) +
                      " runs returned other rows than the first run");
  }
  const EstimateMatrix reference =
      sstd::SstdBatch(distributed_config(opts.workers).sstd).run(*data);
  EstimateMatrix checked = first;
  if (opts.inject == "batch-row" && !checked.empty()) {
    auto& cell = checked[opts.seed % checked.size()][0];
    cell = static_cast<std::int8_t>(cell == 1 ? 0 : 1);
  }
  if (checked != reference) {
    std::uint64_t cells = 0;
    for (std::size_t u = 0; u < reference.size(); ++u) {
      for (std::size_t k = 0; k < reference[u].size(); ++k) {
        cells += u >= checked.size() || k >= checked[u].size() ||
                 checked[u][k] != reference[u][k];
      }
    }
    result.fail_check(std::to_string(cells) +
                      " DistributedSstd cells differ from SstdBatch");
  }
  const Accuracy acc = accuracy(*data, first, opts.inject == "truth");
  std::printf("accuracy: sstd=%.4f vote=%.4f cells=%llu\n", acc.sstd,
              acc.vote, static_cast<unsigned long long>(acc.cells));
  if (!(acc.sstd > acc.vote)) {
    result.fail_check("SSTD accuracy " + std::to_string(acc.sstd) +
                      " does not beat the per-interval vote " +
                      std::to_string(acc.vote));
  }

  if (!opts.trace) {
    emit_end_to_end(timings, result);
    return;
  }
  const double reports = static_cast<double>(timings.reports);
  std::printf("traced: reports_per_s=%.1f\n",
              timings.timed_s > 0 ? reports / timings.timed_s : 0.0);
  LayerInputs in;
  in.reports = reports;
  in.rounds = static_cast<double>(runs);
  in.timed_s = timings.timed_s;
  in.pool = static_cast<double>(opts.workers);
  in.queue_wait_p50_ms = quantile(queue_wait_s, 0.5) * 1e3;
  in.exec_p50_ms = quantile(exec_s, 0.5) * 1e3;
  in.worker_target_mean = worker_sum / static_cast<double>(runs + rounds);
  in.generate_ms_per_interval =
      generate_s * 1e3 / (static_cast<double>(rounds) * data->intervals());
  emit_per_layer(layers, no_recovery, in, result);
  write_spans(opts, spans, result);
}

}  // namespace perfbench
