// The two streaming workloads: SstdSystem driven as a closed loop by one
// crawler thread. Each interval the crawler hands over one interval of
// synthesized reports (ingest_batch) and waits for end_interval, which is
// synchronous in the program's contract. Only those two calls, the
// provenance lookups and recover() are timed; the generator and every
// check run outside the timed calls.
//
// A run is a sequence of identical rounds (same seed, same reports):
// set-up (fresh synthesizer + fresh system + load sweep or warm-up), a
// fixed number of timed run-phase intervals, then a restart. Rounds repeat
// until --seconds have passed, so every run does whole rounds of the same
// work and per-claim histories never grow with the run length.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/provenance.h"
#include "sstd/streaming.h"
#include "sstd/system.h"
#include "workload/synth.h"

namespace perfbench {
namespace {

// Accuracy check: SSTD against the synthesizer's latent truth must beat a
// coin and may trail the benchmark's own per-interval vote by at most this
// much (README).
constexpr double kStreamAccuracyMargin = 0.02;

using sstd::ClaimId;
using sstd::IntervalIndex;
using sstd::Report;
using sstd::SstdSystem;

constexpr std::size_t kJobs = 8;
constexpr IntervalIndex kRefitEvery = 10;
constexpr int kRestartsPerRound = 3;

struct StreamSpec {
  sstd::workload::KeyDistKind dist;
  std::uint64_t num_claims;
  std::uint64_t reports_per_interval;
  // YCSB load sweep (one report per claim) before timing; 0 = none.
  std::uint64_t load_reports_per_interval;
  // Untimed intervals of ordinary traffic before timing (fills the live
  // claim set to its steady size when there is no load sweep).
  IntervalIndex warmup_intervals;
  IntervalIndex run_intervals;
  bool durable;
  std::size_t provenance_lookups_per_interval;
};

StreamSpec spec_for(const std::string& workload) {
  if (workload == "stream-zipf") {
    return {sstd::workload::KeyDistKind::kZipfian, 200'000, 25'000, 100'000,
            0, 20, false, 64};
  }
  // Warm-up 0..6 fills the live set; the run phase 7..22 holds the refit
  // and snapshot rounds at 9 and 19 and ends three intervals past the
  // last snapshot, so recovery loads a snapshot and replays a WAL suffix.
  return {sstd::workload::KeyDistKind::kUniform, 1'000'000, 10'000, 0, 7, 16,
          true, 0};
}

SstdSystem::Config system_config(const StreamSpec& spec, std::size_t workers,
                                 const std::string& durable_dir) {
  SstdSystem::Config config;
  config.workers = workers;
  config.num_jobs = kJobs;
  // The pool is held fixed so the numbers measure engine work, not the
  // GCK's choice of pool size.
  config.dtm.min_workers = workers;
  config.dtm.max_workers = workers;
  config.interval_deadline_s = 30.0;
  config.sstd.refit_every = kRefitEvery;
  config.sstd.warmup_intervals = 4;
  config.sstd.evict_after_idle_intervals = 6;
  if (spec.durable) {
    config.durability.dir = durable_dir;
    config.durability.fsync = sstd::durable::FsyncPolicy::kOnIntervalEnd;
    config.durability.snapshot_every = kRefitEvery;
  }
  return config;
}

sstd::workload::WorkloadConfig workload_config(const StreamSpec& spec,
                                               const Options& opts) {
  sstd::workload::WorkloadConfig wc;
  wc.seed = opts.seed;
  wc.num_claims = spec.num_claims;
  wc.dist.kind = spec.dist;
  wc.dist.zipf_theta = 0.99;
  wc.reports_per_interval = spec.reports_per_interval;
  wc.load_reports_per_interval = spec.load_reports_per_interval;
  return wc;
}

// Accuracy against the synthesizer's latent truth, next to the
// benchmark's own per-interval contribution-score vote, over every claim
// that has reports in the interval.
struct AccuracyTally {
  std::uint64_t cells = 0;
  std::uint64_t sstd_correct = 0;
  std::uint64_t vote_correct = 0;
};

void tally_accuracy(const std::vector<Report>& batch, IntervalIndex k,
                    const SstdSystem& system,
                    sstd::workload::ReportSynthesizer& synth, bool invert,
                    std::unordered_map<std::uint32_t, double>& scratch,
                    AccuracyTally& tally) {
  scratch.clear();
  for (const Report& r : batch) {
    scratch[r.claim.value] += sstd::contribution_score(r);
  }
  for (const auto& [claim, score] : scratch) {
    bool truth = synth.truth_at(claim, k);
    if (invert) truth = !truth;
    const int expected = truth ? 1 : 0;
    const int vote = score > 0.0 ? 1 : 0;
    ++tally.cells;
    tally.sstd_correct += system.estimate(ClaimId{claim}) == expected;
    tally.vote_correct += vote == expected;
  }
}

// Everything a round hands to the checks that run after the measurement.
struct ReferenceRecord {
  std::size_t shard = 0;
  std::vector<std::vector<Report>> reports;      // per interval
  std::vector<std::vector<std::int8_t>> decided;  // per interval
};


std::uint64_t live_claims(const SstdSystem& system, std::uint64_t num_claims) {
  std::uint64_t live = 0;
  for (std::uint64_t c = 0; c < num_claims; ++c) {
    live += system.estimate(ClaimId{static_cast<std::uint32_t>(c)}) !=
            sstd::kNoEstimate;
  }
  return live;
}

// Per-run state shared across rounds.
struct StreamRun {
  StreamRun(const Options& o, const StreamSpec& s, SpanLog& l, ThreadGuard& g,
            Result& r)
      : opts(o), spec(s), spans(l), guard(g), result(r) {}

  const Options& opts;
  const StreamSpec& spec;
  SpanLog& spans;
  ThreadGuard& guard;
  Result& result;
  Timings timings;
  LayerTotals layers;
  LayerTotals recovery_layers;
  AccuracyTally accuracy;
  ReferenceRecord reference;
  int rounds = 0;
  double generate_s = 0.0;
  std::uint64_t generated_intervals = 0;
  double ingest_s = 0.0;
  std::uint64_t ingest_calls = 0;
  std::vector<double> lookup_s;
  std::uint64_t lookups = 0;
  std::uint64_t lookup_hits = 0;
  double workers_sum = 0.0;
  std::uint64_t workers_samples = 0;
  double claim_bytes = 0.0;
  std::uint64_t claims_created = 0;
};

void observe_pool(StreamRun& run, const SstdSystem& system) {
  const std::size_t target = system.queue().target_workers();
  run.guard.observe_pool(std::max(target, system.queue().live_workers()));
  run.workers_sum += static_cast<double>(target);
  ++run.workers_samples;
}

void provenance_lookups(StreamRun& run, const SstdSystem& system,
                        const std::vector<Report>& batch,
                        std::int64_t span_id) {
  const std::size_t n = run.spec.provenance_lookups_per_interval;
  if (n == 0 || batch.empty()) return;
  const auto& ring = sstd::obs::DecisionProvenanceRing::global();
  const std::size_t stride = std::max<std::size_t>(1, batch.size() / n);
  for (std::size_t j = 0; j < n; ++j) {
    const Report& r =
        batch[(static_cast<std::size_t>(run.opts.seed) + j * stride) %
              batch.size()];
    const std::int8_t estimate = system.estimate(r.claim);
    if (estimate == sstd::kNoEstimate) {
      run.result.fail_check("claim " + std::to_string(r.claim.value) +
                            " reported this interval has no estimate");
      continue;
    }
    const std::string key = std::to_string(r.claim.value);
    const double t0 = now_s();
    std::vector<sstd::obs::DecisionRecord> records;
    {
      const Timed span(run.spans, "provenance.for_claim", span_id);
      records = ring.for_claim(key);
    }
    run.lookup_s.push_back(now_s() - t0);
    ++run.lookups;
    run.result.count_ops(1);
    if (records.empty()) continue;
    ++run.lookup_hits;
    // The ring drops oldest first, so a retained record set always ends
    // with the claim's latest flip: it must name the current estimate.
    int latest = records.back().new_estimate;
    if (run.opts.inject == "provenance") latest = 1 - latest;
    if (latest != estimate) {
      run.result.fail_check("provenance for claim " + key + " says " +
                            std::to_string(latest) + ", estimate is " +
                            std::to_string(estimate));
    }
  }
}

// A durable restart must resume after the last closed interval and answer
// exactly as the live node did; a reload must answer for every claim.
void check_restart(StreamRun& run, const SstdSystem& system,
                   const sstd::durable::RecoveryManager::Result& recovered,
                   IntervalIndex end, const std::vector<std::int8_t>& live) {
  const StreamSpec& spec = run.spec;
  if (!spec.durable) {
    const std::uint64_t answered = live_claims(system, spec.num_claims);
    if (answered != spec.num_claims) {
      run.result.fail_check("restarted node answers for " +
                            std::to_string(answered) + " of " +
                            std::to_string(spec.num_claims) + " claims");
    }
    return;
  }
  if (recovered.next_interval != end) {
    run.result.fail_check("recovery resumed at interval " +
                          std::to_string(recovered.next_interval) +
                          ", expected " + std::to_string(end));
  }
  std::uint64_t mismatches = 0;
  for (std::uint64_t c = 0; c < spec.num_claims; ++c) {
    std::int8_t got = system.estimate(ClaimId{static_cast<std::uint32_t>(c)});
    if (run.opts.inject == "recovered-estimate" &&
        c == run.opts.seed % spec.num_claims) {
      got = static_cast<std::int8_t>(got == 1 ? 0 : 1);
    }
    mismatches += got != live[c];
  }
  if (mismatches > 0) {
    run.result.fail_check(std::to_string(mismatches) +
                          " claims recovered with another estimate");
  }
}

// The first round of stream-zipf records one shard's reports and, after
// each interval, the system's decision for every claim of that shard, for
// check_reference_shard().
void record_reference(StreamRun& run, const SstdSystem& system,
                      const std::vector<Report>& batch) {
  if (run.rounds != 0 || run.spec.durable) return;
  ReferenceRecord& ref = run.reference;
  ref.reports.emplace_back();
  for (const Report& r : batch) {
    if (r.claim.value % kJobs == ref.shard) ref.reports.back().push_back(r);
  }
  ref.decided.emplace_back();
  for (std::uint64_t c = ref.shard; c < run.spec.num_claims; c += kJobs) {
    ref.decided.back().push_back(
        system.estimate(ClaimId{static_cast<std::uint32_t>(c)}));
  }
}

// One round: set-up, timed run phase, restart.
void run_round(StreamRun& run) {
  const bool first = run.rounds == 0;
  const StreamSpec& spec = run.spec;
  const std::string dir = run.opts.work_dir + "/wal-" +
                          std::to_string(run.opts.seed) + "-" +
                          std::to_string(run.rounds);
  std::filesystem::remove_all(dir);

  // --- set-up: inputs, system, load sweep / warm-up ---------------------
  const double setup_begin = now_s();
  const double rss_before = rss_mib();
  sstd::workload::ReportSynthesizer synth(workload_config(spec, run.opts));
  const auto config = system_config(spec, run.opts.workers, dir);
  const sstd::TimestampMs interval_ms = synth.config().interval_ms;
  auto system = std::make_unique<SstdSystem>(config, interval_ms);
  const IntervalIndex prefix =
      synth.load_intervals() > 0 ? synth.load_intervals()
                                 : spec.warmup_intervals;
  std::vector<std::vector<Report>> prefix_batches(prefix);
  for (IntervalIndex k = 0; k < prefix; ++k) {
    std::vector<Report>& batch = prefix_batches[k];
    synth.generate_interval(k, &batch);
    system->ingest_batch(batch);
    system->end_interval(k);
    record_reference(run, *system, batch);
  }
  run.timings.setup_s.push_back(now_s() - setup_begin);
  std::uint64_t live_before_run = 0;
  if (run.opts.trace) {
    live_before_run = live_claims(*system, spec.num_claims);
    if (first && live_before_run > 0) {
      run.claim_bytes = (rss_mib() - rss_before) * 1024.0 * 1024.0 /
                        static_cast<double>(live_before_run);
    }
    run.layers.begin();
  }

  // --- timed run phase ----------------------------------------------------
  std::vector<Report> batch;
  std::unordered_map<std::uint32_t, double> vote_scratch;
  const IntervalIndex end = prefix + spec.run_intervals;
  for (IntervalIndex k = prefix; k < end; ++k) {
    const std::int64_t span_id = run.rounds * 100'000LL + k;
    const double g0 = now_s();
    {
      const Timed span(run.spans, "workload.generate_interval", span_id);
      synth.generate_interval(k, &batch);
    }
    run.generate_s += now_s() - g0;
    ++run.generated_intervals;

    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    {
      const Timed span(run.spans, "SstdSystem::ingest_batch", span_id);
      system->ingest_batch(batch);
    }
    const double t1 = now_s();
    {
      const Timed span(run.spans, "SstdSystem::end_interval", span_id);
      system->end_interval(k);
    }
    const double t2 = now_s();
    run.timings.timed_cpu_s += process_cpu_s() - cpu0;
    run.spans.add("interval", t0, t2, span_id);
    run.timings.timed_s += t2 - t0;
    run.timings.reports += batch.size();
    run.ingest_s += t1 - t0;
    ++run.ingest_calls;
    ((k + 1) % kRefitEvery == 0 ? run.timings.refit_s
                                : run.timings.decision_s)
        .push_back(t2 - t0);
    run.result.count_ops(1);
    observe_pool(run, *system);

    tally_accuracy(batch, k, *system, synth, run.opts.inject == "truth",
                   vote_scratch, run.accuracy);
    provenance_lookups(run, *system, batch, span_id);
    record_reference(run, *system, batch);
  }
  if (run.opts.trace) {
    const std::uint64_t evicted_before =
        run.layers.counter("stream.claims_evicted");
    run.layers.end();
    const std::uint64_t evicted =
        run.layers.counter("stream.claims_evicted") - evicted_before;
    run.claims_created +=
        live_claims(*system, spec.num_claims) + evicted - live_before_run;
  }

  // The node's peak: later rounds and the restarts below run on a heap the
  // earlier work fragmented, which a restarted process would not.
  if (first) run.timings.rss_peak_mib = rss_peak_mib();

  // Every generated report reached the engines.
  std::uint64_t generated = synth.reports_generated();
  if (run.opts.inject == "report-count") ++generated;
  const auto ingested = system->metrics().reports_ingested;
  if (ingested != generated) {
    run.result.fail_check("ingested " + std::to_string(ingested) +
                          " reports of " + std::to_string(generated) +
                          " generated");
  }

  // --- restart ------------------------------------------------------------
  // kRestartsPerRound fresh nodes, one after another, so recovery_s is a
  // median over several restarts of the same state.
  std::vector<std::int8_t> live;
  if (spec.durable) {
    live.resize(spec.num_claims);
    for (std::uint64_t c = 0; c < spec.num_claims; ++c) {
      live[c] = system->estimate(ClaimId{static_cast<std::uint32_t>(c)});
    }
  }
  for (int restart = 0; restart < kRestartsPerRound; ++restart) {
    system.reset();
    if (run.opts.trace) run.recovery_layers.begin();
    const double r0 = now_s();
    sstd::durable::RecoveryManager::Result recovered;
    {
      const Timed span(run.spans, "restart", run.rounds);
      system = std::make_unique<SstdSystem>(config, interval_ms);
      // Node restart from the WAL and snapshots this round wrote. Without
      // durable state a restarted node answers for every claim again only
      // after the crawler re-sends the load sweep.
      recovered = system->recover();
      if (!spec.durable) {
        for (IntervalIndex k = 0; k < prefix; ++k) {
          system->ingest_batch(prefix_batches[k]);
          system->end_interval(k);
        }
      }
    }
    run.timings.recovery_s.push_back(now_s() - r0);
    if (run.opts.trace) run.recovery_layers.end();
    run.result.count_ops(1);
    observe_pool(run, *system);
    check_restart(run, *system, recovered, end, live);
  }
  system.reset();
  std::filesystem::remove_all(dir);
  ++run.rounds;
}

// Replays the recorded shard through a standalone sequential engine and
// compares its decision for every claim of the shard at every interval.
void check_reference_shard(StreamRun& run, const SstdSystem::Config& config,
                           sstd::TimestampMs interval_ms) {
  ReferenceRecord& ref = run.reference;
  if (run.opts.inject == "shard-decision" && !ref.decided.empty()) {
    std::vector<std::int8_t>& last = ref.decided.back();
    std::int8_t& cell = last[run.opts.seed % last.size()];
    cell = static_cast<std::int8_t>(cell == 1 ? 0 : 1);
  }
  sstd::SstdStreaming engine(config.sstd, interval_ms);
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < ref.reports.size(); ++k) {
    std::vector<Report>& reports = ref.reports[k];
    std::stable_sort(reports.begin(), reports.end(),
                     [](const Report& a, const Report& b) {
                       return a.time_ms < b.time_ms;
                     });
    for (const Report& r : reports) engine.offer(r);
    engine.end_interval(static_cast<IntervalIndex>(k));
    std::size_t i = 0;
    for (std::uint64_t c = ref.shard; c < run.spec.num_claims;
         c += kJobs, ++i) {
      const std::int8_t want =
          engine.current_estimate(ClaimId{static_cast<std::uint32_t>(c)});
      mismatches += want != ref.decided[k][i];
    }
  }
  if (mismatches > 0) {
    run.result.fail_check(std::to_string(mismatches) +
                          " shard decisions differ from the sequential engine");
  }
}

}  // namespace

void run_stream(const Options& opts, Result& result, SpanLog& spans) {
  const StreamSpec spec = spec_for(opts.workload);
  ThreadGuard guard(opts.workers - (opts.inject == "thread-cap" ? 1 : 0));
  StreamRun run(opts, spec, spans, guard, result);
  run.reference.shard = static_cast<std::size_t>(opts.seed % kJobs);
  const double start = now_s();
  double round_s = 0.0;
  do {
    const double round_start = now_s();
    run_round(run);
    round_s = now_s() - round_start;
  } while (now_s() - start + round_s / 2 < opts.seconds);
  guard.finish(result);
  result.note("claims", std::to_string(spec.num_claims));
  result.note("reports_per_interval",
              std::to_string(spec.reports_per_interval));
  result.note("run_intervals_per_round", std::to_string(spec.run_intervals));
  result.note("rounds", std::to_string(run.rounds));
  result.note("reports_timed", std::to_string(run.timings.reports));
  result.note("workers", std::to_string(opts.workers));
  result.note("peak_threads", std::to_string(guard.peak_threads()));

  // --- checks on the recorded outputs -------------------------------------
  if (!spec.durable) {
    const auto config = system_config(spec, opts.workers, "");
    check_reference_shard(run, config,
                          sstd::workload::WorkloadConfig{}.interval_ms);
  }
  const AccuracyTally& acc = run.accuracy;
  const double sstd_acc =
      acc.cells ? static_cast<double>(acc.sstd_correct) / acc.cells : 0.0;
  const double vote_acc =
      acc.cells ? static_cast<double>(acc.vote_correct) / acc.cells : 0.0;
  std::printf("accuracy: sstd=%.4f vote=%.4f cells=%llu\n", sstd_acc, vote_acc,
              static_cast<unsigned long long>(acc.cells));
  if (!(sstd_acc > 0.5) || sstd_acc < vote_acc - kStreamAccuracyMargin) {
    result.fail_check("SSTD accuracy " + std::to_string(sstd_acc) +
                      " is at chance or below the per-interval vote " +
                      std::to_string(vote_acc) + " by more than the margin");
  }

  if (!opts.trace) {
    emit_end_to_end(run.timings, result);
    return;
  }
  // --- per-layer metrics (traced run) -------------------------------------
  const double reports = static_cast<double>(run.timings.reports);
  std::printf("traced: reports_per_s=%.1f\n",
              run.timings.timed_s > 0 ? reports / run.timings.timed_s : 0.0);
  LayerInputs in;
  in.reports = reports;
  in.rounds = static_cast<double>(run.rounds);
  in.timed_s = run.timings.timed_s;
  in.pool = static_cast<double>(opts.workers);
  for (const double s : run.timings.recovery_s) in.recovery_s += s;
  if (!spec.durable) in.recovery_s = 0.0;  // a reload replays no records
  in.ingest_batch_ms =
      run.ingest_calls ? run.ingest_s * 1e3 / run.ingest_calls : 0.0;
  in.claim_bytes = run.claim_bytes;
  in.claims_created = static_cast<double>(run.claims_created) / in.rounds;
  in.worker_target_mean =
      run.workers_samples ? run.workers_sum / run.workers_samples : 0.0;
  in.provenance_query_us =
      run.lookup_s.empty() ? 0.0 : quantile(run.lookup_s, 0.5) * 1e6;
  in.provenance_hit_ratio =
      run.lookups ? static_cast<double>(run.lookup_hits) / run.lookups : 0.0;
  in.generate_ms_per_interval =
      run.generated_intervals ? run.generate_s * 1e3 / run.generated_intervals
                              : 0.0;
  emit_per_layer(run.layers, run.recovery_layers, in, result);
  write_spans(opts, spans, result);
}

}  // namespace perfbench
