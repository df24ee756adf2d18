// SstdSystem — the complete runtime of the paper's Figure 2, as one
// embeddable object:
//
//   data crawler  ->  Dynamic Task Manager (Work Queue master)
//                 ->  per-interval TD tasks on an elastic worker pool
//                 ->  streaming HMM truth discovery per claim shard
//                 ->  live truth estimates
//
// with the PID feedback loop observing each TD job's execution time
// against its soft deadline and retuning task priorities (LCK) and the
// worker-pool size (GCK) between intervals.
//
// Claims are sharded onto `num_jobs` TD jobs by claim-id hash (paper
// §III-E: the HMM consumes per-claim ACS aggregates, so shards share no
// state). Each shard owns an SstdStreaming engine guarded by its own
// mutex; a shard's interval batch executes as one Work Queue task.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "control/dtm.h"
#include "core/truth_discovery.h"
#include "dist/fault_plan.h"
#include "dist/work_queue.h"
#include "durable/recovery.h"
#include "durable/snapshot.h"
#include "durable/wal.h"
#include "obs/slo.h"
#include "obs/trace_context.h"
#include "sstd/streaming.h"

namespace sstd {

class SstdSystem {
 public:
  struct Config {
    SstdConfig sstd;
    std::size_t workers = 4;
    std::size_t num_jobs = 8;
    // Soft deadline for each interval's TD work, in wall-clock seconds.
    double interval_deadline_s = 1.0;
    control::DtmConfig dtm;

    // Master retry policy for shard TD tasks and the per-task attempt
    // budget. A crash-killed shard is recovered and re-run through this
    // machinery, so the budget must cover the drill's kill count.
    dist::RetryPolicy retry;
    int shard_task_retries = 3;

    // System-level chaos schedule: crash_kill_during_refit kills a shard
    // mid-Baum-Welch (the shard rebuilds from snapshot + WAL on retry);
    // the rest of the plan (poisoned tasks, worker crashes, stragglers)
    // is installed into the Work Queue.
    dist::FaultPlan fault_plan;

    // Durable state history (DESIGN.md §7): WAL of ingested reports +
    // periodic shard snapshots under `durability.dir`. Disabled when the
    // directory is empty; then a crash-killed shard rebuilds blank.
    durable::DurabilityOptions durability;

    // Causal tracing (ISSUE 8, DESIGN.md §5d): fraction of ingested
    // reports considered as trace roots (0 disables tracing). Sampling
    // is deterministic — every ⌈1/rate⌉-th report is a candidate — so
    // tests and replays see the same traced population. The first
    // candidate of a shard's interval mints the trace and becomes the
    // shard task's trace parent (a representative exemplar of the
    // batch); later candidates of an already-represented batch cost
    // nothing, which keeps even rate 1.0 out of the ingest hot path.
    double trace_sample_rate = 0.0;
  };

  struct Metrics {
    std::uint64_t reports_ingested = 0;
    std::uint64_t tasks_completed = 0;
    std::uint64_t task_failures = 0;
    std::size_t intervals_processed = 0;
    std::size_t deadline_hits = 0;
    double mean_task_exec_s = 0.0;
    std::size_t current_workers = 0;

    double hit_rate() const {
      return intervals_processed
                 ? static_cast<double>(deadline_hits) / intervals_processed
                 : 0.0;
    }
  };

  SstdSystem(Config config, TimestampMs interval_ms);
  ~SstdSystem();

  SstdSystem(const SstdSystem&) = delete;
  SstdSystem& operator=(const SstdSystem&) = delete;

  // Crawler push: buffers the report for its claim's shard. Reports must
  // arrive in non-decreasing time order (per the streaming contract).
  void ingest(const Report& report);

  // Bulk crawler push (ISSUE 9): same semantics as calling ingest() once
  // per report, but the WAL appends happen under one lock, each shard's
  // buffer is extended under a single mutex acquisition, and the ingest
  // counter is bumped once — the soak driver's hot path at millions of
  // reports. Thread-safe; concurrent batches serialize on an internal
  // scratch mutex.
  void ingest_batch(const Report* reports, std::size_t count);
  void ingest_batch(const std::vector<Report>& reports) {
    ingest_batch(reports.data(), reports.size());
  }

  // Per-interval backpressure stats (ISSUE 9): how much buffered work the
  // last end_interval() dispatched, the largest single-shard batch, and
  // how long the interval took. Mirrored to sys.* gauges
  // (sys.interval_reports, sys.max_shard_backlog, sys.interval_s,
  // sys.reports_per_s) so the timeseries sampler and the soak monitor see
  // ingest pressure next to the runtime's own metrics.
  struct BackpressureStats {
    std::uint64_t last_interval_reports = 0;
    std::size_t max_shard_backlog = 0;
    double last_interval_s = 0.0;
    double last_interval_reports_per_s = 0.0;
  };
  BackpressureStats backpressure() const;

  // Closes interval `k`: dispatches one TD task per shard with buffered
  // data, waits for all of them (measuring against the soft deadline) and
  // lets the DTM retune priorities and the pool for the next interval.
  void end_interval(IntervalIndex k);

  // Current estimate for a claim (threadsafe; kNoEstimate if unseen).
  std::int8_t estimate(ClaimId claim) const;

  // Node restart: loads the newest valid snapshot and replays the WAL
  // suffix, restoring every shard to its pre-crash state (byte-exact —
  // the engine is deterministic given state + inputs and the WAL
  // preserves ingest order). Call after construction, before any ingest;
  // resume live processing at Result::next_interval. A blank or disabled
  // durable directory recovers to an empty node (default Result).
  durable::RecoveryManager::Result recover();

  Metrics metrics() const;

  // Live-observability hooks (ISSUE 3, DESIGN.md §5c): the runtime's
  // Work Queue (liveness/backlog for /healthz and /readyz probes), the
  // deadline-SLO tracker fed by the DTM, and the DTM itself.
  const dist::WorkQueue& queue() const { return queue_; }
  const obs::SloTracker& slo() const { return slo_; }
  obs::SloTracker& slo() { return slo_; }
  const control::DynamicTaskManager& dtm() const { return dtm_; }

 private:
  struct Shard {
    std::unique_ptr<SstdStreaming> engine;
    std::vector<Report> buffer;
    mutable std::mutex mutex;

    // Crash-kill drill bookkeeping (guarded by `mutex`): whether the
    // engine died mid-interval and must be rebuilt before the retry, and
    // how many times the drill already killed this shard at the current
    // interval (feeds FaultPlan::should_crash_kill).
    bool needs_recovery = false;
    IntervalIndex kill_interval = -1;
    int kills_at_interval = 0;

    // Causal tracing (guarded by `mutex`): the first sampled report's
    // context and claim since the last dispatch — it becomes the next
    // shard task's trace parent — and the annotations (WAL frontier,
    // traced claim) re-applied to a rebuilt engine after crash-kill
    // recovery.
    obs::TraceContext pending_trace;
    std::uint64_t pending_trace_claim = 0;
    std::uint64_t annotation_lsn = 0;
    std::int64_t annotation_traced_claim = -1;
  };

  // The one shard-interval cadence — sort the buffered reports by time,
  // offer them, clear the buffer, close interval `k` — shared by live
  // processing, per-shard crash recovery and node-restart replay, so
  // replay reproduces live operation by construction (DESIGN.md §7
  // replay invariant 2).
  static void close_interval(std::vector<Report>& buffer,
                             SstdStreaming& engine, IntervalIndex k);

  // One shard's TD work for interval `k` (the Work Queue task body):
  // recover the engine if a previous attempt was crash-killed, then sort +
  // offer the buffered reports and close the interval. ProcessKilled from
  // the chaos hook marks the shard for recovery and propagates, so the
  // master's RetryPolicy re-runs the interval.
  void run_shard_interval(std::size_t shard_index, IntervalIndex k);

  // Rebuilds one shard's engine from the newest snapshot + the WAL suffix
  // filtered to this shard's claims. Caller holds the shard mutex.
  void recover_shard_locked(Shard& shard, std::size_t shard_index);

  // Installs the crash-kill chaos hook on a shard's (possibly rebuilt)
  // engine; no-op when the fault plan is empty.
  void install_crash_hook(std::size_t shard_index);

  // Deterministic ingest trace sampling (shared by the single and batched
  // ingest paths; caller holds shard.mutex): every ⌈1/rate⌉-th report is
  // a candidate, and a candidate whose shard has no pending trace mints
  // one. Returns the minted context, invalid when none was minted.
  obs::TraceContext sample_trace_locked(Shard& shard, std::uint64_t claim);

  // Records the kIngest root span of a freshly minted shard trace (shared
  // by the single and batched ingest paths).
  void record_ingest_span(const obs::TraceContext& minted,
                          std::size_t shard_index, std::uint64_t claim);

  Config config_;
  TimestampMs interval_ms_;
  std::vector<std::unique_ptr<Shard>> shards_;
  dist::WorkQueue queue_;
  obs::SloTracker slo_;
  control::DynamicTaskManager dtm_;
  std::uint64_t next_task_id_ = 0;
  // Deterministic ingest-sampling counter (every ⌈1/rate⌉-th report).
  std::atomic<std::uint64_t> trace_sample_seq_{0};
  Metrics metrics_;
  BackpressureStats backpressure_;  // guarded by metrics_mutex_
  mutable std::mutex metrics_mutex_;

  // Bulk-ingest scratch: per-shard buckets reused across batches so a
  // steady-state batch allocates nothing. Guarded by batch_mutex_.
  std::mutex batch_mutex_;
  std::vector<std::vector<Report>> batch_scratch_;

  // Durability plumbing (all no-ops when config_.durability is disabled).
  // The WAL writer is driver-thread-only in normal operation, but guarded
  // anyway so ingest from multiple crawler threads stays safe.
  durable::WalWriter wal_;
  durable::SnapshotManager snapshots_;
  std::mutex wal_mutex_;
};

}  // namespace sstd
