// Shared plumbing of the SSTD end-to-end benchmark: command-line options,
// the result line, clocks, /proc readings, the thread-budget guard, the
// in-memory span log of the traced run and the accumulator that turns the
// program's own cost tree and metrics registry into per-layer figures.
//
// Nothing here reaches into the program's internals: every number comes
// from a public call the benchmark times itself or from the registries
// the program already exports (obs/cost.h, obs/metrics.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Pool cap: nproc - 1 on the four-core reference host, leaving one core
// to the crawler thread.
constexpr std::size_t kMaxWorkers = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Deliberate corruption of one checked output (checker self-test);
  // empty in every measured run.
  std::string inject;
  // Worker pool size, held fixed; at most kMaxWorkers. The default is the
  // measured configuration; 1 gives the single-threaded baseline.
  std::size_t workers = kMaxWorkers;
  // Directory for the WAL, span files and result records (inside the
  // checkout).
  std::string work_dir = ".bench_build/work";
};

// Seconds on the steady clock.
double now_s();
// Process CPU time, user + system, all threads.
double process_cpu_s();
// Resident set now, and its peak over the process lifetime (VmHWM).
double rss_mib();
double rss_peak_mib();
// Thread count of this process (/proc/self/status).
int thread_count();

// Median-style quantile with linear interpolation; NaN on empty input.
double quantile(std::vector<double> values, double q);

// One benchmark result: the last line of standard output.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect; `what` goes to standard error.
  void fail_check(const std::string& what);
  void count_ops(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Provenance of the run (workload size and shape), printed on its own
  // line before the result and stored with it.
  void note(const std::string& key, const std::string& value) {
    notes_.push_back({key, value});
  }
  bool correct() const { return correct_; }
  // Fails the run when an end-to-end metric could not be measured.
  void require_positive(const std::vector<std::string>& names);
  std::string json() const;
  std::string notes_json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Thread-budget guard: callers report the pool size they observe, and the
// run fails when it exceeds its cap. A sampler thread also reads the
// process thread count every few milliseconds and keeps the peak for the
// provenance line. The peak is recorded, not checked: a pool torn down and
// rebuilt every run (DistributedSstd) leaves exiting threads counted in
// /proc for a moment after they were joined.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t pool_cap);
  ~ThreadGuard();
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

  void observe_pool(std::size_t workers);
  int peak_threads() const { return peak_threads_.load(); }
  // Stops sampling and checks the pool cap into `result`.
  void finish(Result& result);

 private:
  std::size_t pool_cap_;
  std::size_t peak_pool_ = 0;
  std::atomic<int> peak_threads_{0};
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

// Spans of the traced run, kept in memory and written once as a Chrome
// trace (loads in Perfetto). Spans of one interval or one batch run share
// `id`. Disabled spans cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_s_(now_s()) {}
  void add(const char* name, double begin_s, double end_s, std::int64_t id);
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double begin_s;
    double end_s;
    std::int64_t id;
  };
  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
};

// Writes the traced run's spans to <work_dir>/trace-<workload>-<seed>.json;
// a failed write fails the run.
void write_spans(const Options& opts, const SpanLog& spans, Result& result);

// RAII span around one timed call.
class Timed {
 public:
  Timed(SpanLog& log, const char* name, std::int64_t id)
      : log_(log), name_(name), id_(id), begin_s_(now_s()) {}
  ~Timed() { log_.add(name_, begin_s_, now_s(), id_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::int64_t id_;
  double begin_s_;
};

// Sums the program's cost tree and metrics registry over measured phases:
// begin() zeroes both registries, end() adds what accrued since.
class LayerTotals {
 public:
  void begin();
  void end();

  std::uint64_t counter(const std::string& name) const;
  double cost_total_s(const std::string& path) const;
  double cost_self_s(const std::string& path) const;
  std::uint64_t cost_count(const std::string& path) const;
  std::uint64_t cost_scopes() const;
  // Quantile / sum of a histogram merged over every phase.
  double histogram_quantile(const std::string& name, double q) const;
  double histogram_sum(const std::string& name) const;

 private:
  struct CostSums {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, CostSums> costs_;
  std::map<std::string, sstd::obs::HistogramSnapshot> histograms_;
};

// Per-round figures both stream workloads and the batch workload report
// through the same end-to-end names.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> decision_s;
  std::vector<double> refit_s;
  std::vector<double> recovery_s;
  double timed_s = 0.0;       // wall inside timed calls
  double timed_cpu_s = 0.0;   // process CPU inside timed calls
  std::uint64_t reports = 0;  // reports processed inside timed calls
  // Peak resident set at the end of the first round's timed phase, before
  // its restarts and before any check pass.
  double rss_peak_mib = 0.0;
};

// Emits the seven end-to-end metrics from `t`.
void emit_end_to_end(const Timings& t, Result& result);

// What a workload measured itself, beside the registries, for the
// per-layer metrics. Counts are per round, so they do not depend on how
// many rounds fit into the run.
struct LayerInputs {
  double reports = 0.0;      // reports processed inside timed calls
  double rounds = 1.0;
  double timed_s = 0.0;      // wall inside timed calls
  double pool = 1.0;         // worker pool size
  double recovery_s = 0.0;   // summed recovery time
  double ingest_batch_ms = 0.0;
  double claim_bytes = 0.0;
  double claims_created = 0.0;
  // Exact task timings when the workload has them (batch); otherwise the
  // wq.* histograms give the quantiles.
  double queue_wait_p50_ms = -1.0;
  double exec_p50_ms = -1.0;
  double worker_target_mean = 0.0;
  double provenance_query_us = 0.0;
  double provenance_hit_ratio = 0.0;
  double generate_ms_per_interval = 0.0;
};

// Emits every per-layer metric. `run` covers the measured phases,
// `recovery` the restarts.
void emit_per_layer(const LayerTotals& run, const LayerTotals& recovery,
                    const LayerInputs& in, Result& result);

}  // namespace perfbench
