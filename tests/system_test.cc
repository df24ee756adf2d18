// Integration tests for SstdSystem — the full Figure-2 runtime: crawler
// ingest, per-interval TD task dispatch on the threaded worker pool, PID
// feedback, live estimates.
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "obs/metrics.h"
#include "sstd/system.h"
#include "trace/generator.h"

namespace sstd {
namespace {

SstdSystem::Config small_system() {
  SstdSystem::Config config;
  config.workers = 2;
  config.num_jobs = 4;
  config.interval_deadline_s = 5.0;  // generous: correctness-focused tests
  return config;
}

TEST(SstdSystem, EndToEndAccuracyOnGeneratedTrace) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 30'000, 20));
  const Dataset data = generator.generate();

  SstdSystem system(small_system(), data.interval_ms());

  EstimateMatrix estimates(
      data.num_claims(),
      std::vector<std::int8_t>(data.intervals(), kNoEstimate));
  const auto& reports = data.reports();
  std::size_t next = 0;
  for (IntervalIndex k = 0; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      system.ingest(reports[next]);
      ++next;
    }
    system.end_interval(k);
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      estimates[u][k] = system.estimate(ClaimId{u});
    }
  }

  EvalOptions eval;
  eval.window_ms = data.interval_ms();
  const auto cm = evaluate(data, estimates, eval);
  EXPECT_GE(cm.accuracy(), 0.7);

  const auto metrics = system.metrics();
  EXPECT_EQ(metrics.reports_ingested, data.num_reports());
  EXPECT_EQ(metrics.intervals_processed,
            static_cast<std::size_t>(data.intervals()));
  EXPECT_EQ(metrics.tasks_completed,
            static_cast<std::uint64_t>(data.intervals()) * 4);
  EXPECT_EQ(metrics.task_failures, 0u);
  EXPECT_GT(metrics.hit_rate(), 0.9);  // generous deadline
}

TEST(SstdSystem, EstimateUnknownClaimIsNoEstimate) {
  SstdSystem system(small_system(), 1000);
  EXPECT_EQ(system.estimate(ClaimId{0}), kNoEstimate);
}

TEST(SstdSystem, MatchesShardedReferenceEngines) {
  // Parallel execution must not change the math: compare against reference
  // SstdStreaming engines sharded exactly like the system (claim-id hash).
  // A *single* pooled engine would differ legitimately at quantizer-refit
  // rounds, because the shared bin scale is fit per engine from the claims
  // it holds.
  trace::TraceGenerator generator(
      trace::tiny(trace::paris_shooting(), 10'000, 8));
  const Dataset data = generator.generate();

  const auto system_config = small_system();
  SstdSystem system(system_config, data.interval_ms());
  std::vector<std::unique_ptr<SstdStreaming>> references;
  for (std::size_t i = 0; i < system_config.num_jobs; ++i) {
    references.push_back(std::make_unique<SstdStreaming>(
        system_config.sstd, data.interval_ms()));
  }

  const auto& reports = data.reports();
  std::size_t next = 0;
  for (IntervalIndex k = 0; k < data.intervals(); ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      system.ingest(reports[next]);
      references[reports[next].claim.value % system_config.num_jobs]->offer(
          reports[next]);
      ++next;
    }
    system.end_interval(k);
    for (auto& reference : references) reference->end_interval(k);
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      ASSERT_EQ(system.estimate(ClaimId{u}),
                references[u % system_config.num_jobs]->current_estimate(
                    ClaimId{u}))
          << "claim " << u << " interval " << k;
    }
  }
}

TEST(SstdSystem, ActiveClaimsGaugeSumsOverShards) {
  // stream.active_claims is process-global and every shard engine feeds
  // it: the gauge must read the node's live-claim total, not the count of
  // whichever shard happened to close its interval last.
  obs::Gauge* gauge =
      obs::MetricsRegistry::global().gauge("stream.active_claims");
  const double before = gauge->value();
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 20'000, 64));
  const Dataset data = generator.generate();
  {
    SstdSystem::Config config = small_system();
    config.num_jobs = 8;
    config.sstd.evict_after_idle_intervals = 0;  // every claim stays live
    SstdSystem system(config, data.interval_ms());
    const auto& reports = data.reports();
    std::size_t next = 0;
    for (IntervalIndex k = 0; k < 10; ++k) {
      const TimestampMs end =
          static_cast<TimestampMs>(k + 1) * data.interval_ms();
      while (next < reports.size() && reports[next].time_ms < end) {
        system.ingest(reports[next]);
        ++next;
      }
      system.end_interval(k);
    }
    std::uint32_t answered = 0;
    for (std::uint32_t u = 0; u < data.num_claims(); ++u) {
      if (system.estimate(ClaimId{u}) != kNoEstimate) ++answered;
    }
    ASSERT_GT(answered, 8u);  // more claims than shards
    EXPECT_EQ(gauge->value() - before, static_cast<double>(answered));
  }
  // Destroyed engines take their share back.
  EXPECT_EQ(gauge->value(), before);
}

TEST(SstdSystem, TightDeadlinesTriggerScaleUp) {
  trace::TraceGenerator generator(
      trace::tiny(trace::boston_bombing(), 40'000, 16));
  const Dataset data = generator.generate();

  SstdSystem::Config config = small_system();
  config.interval_deadline_s = 1e-6;  // impossibly tight: PID must react
  config.dtm.max_workers = 8;
  SstdSystem system(config, data.interval_ms());

  const auto& reports = data.reports();
  std::size_t next = 0;
  for (IntervalIndex k = 0; k < 20; ++k) {
    const TimestampMs end =
        static_cast<TimestampMs>(k + 1) * data.interval_ms();
    while (next < reports.size() && reports[next].time_ms < end) {
      system.ingest(reports[next]);
      ++next;
    }
    system.end_interval(k);
  }
  EXPECT_GT(system.metrics().current_workers, 2u);
}

}  // namespace
}  // namespace sstd
