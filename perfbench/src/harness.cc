#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/cost.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {
// One "Key:   value kB" field of /proc/self/status; -1 when absent.
long status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtol(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

// Writes `body` to `path`, creating parent directories.
bool write_file(const std::string& path, const std::string& body) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return static_cast<bool>(out);
}
}  // namespace

double rss_mib() { return static_cast<double>(status_field("VmRSS")) / 1024.0; }
double rss_peak_mib() {
  return static_cast<double>(status_field("VmHWM")) / 1024.0;
}
int thread_count() { return static_cast<int>(status_field("Threads")); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::fail_check(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    double value = value_unit.first;
    // A metric that could not be measured must not break the JSON;
    // require_positive() marks the run incorrect.
    if (!std::isfinite(value)) value = -1.0;
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << value_unit.second << "\"}";
  }
  out << "}}";
  return out.str();
}

void Result::require_positive(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    bool ok = false;
    for (const auto& [metric, value_unit] : metrics_) {
      if (metric == name) {
        ok = std::isfinite(value_unit.first) && value_unit.first > 0.0;
      }
    }
    if (!ok) fail_check("end-to-end metric " + name + " was not measured");
  }
}

std::string Result::notes_json() const {
  std::ostringstream out;
  out << "{\"provenance\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << notes_[i].first << "\": \""
        << notes_[i].second << "\"";
  }
  out << "}}";
  return out.str();
}

ThreadGuard::ThreadGuard(std::size_t pool_cap) : pool_cap_(pool_cap) {
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      // The sampler is the only writer.
      const int threads = thread_count();
      if (threads > peak_threads_.load()) peak_threads_.store(threads);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

ThreadGuard::~ThreadGuard() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

void ThreadGuard::observe_pool(std::size_t workers) {
  peak_pool_ = std::max(peak_pool_, workers);
}

void ThreadGuard::finish(Result& result) {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
  if (peak_pool_ > pool_cap_) {
    result.fail_check("worker pool grew to " + std::to_string(peak_pool_) +
                      " past its cap of " + std::to_string(pool_cap_));
  }
}

void SpanLog::add(const char* name, double begin_s, double end_s,
                  std::int64_t id) {
  if (enabled_) spans_.push_back({name, begin_s, end_s, id});
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ostringstream out;
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << (s.begin_s - origin_s_) * 1e6
        << ", \"dur\": " << (s.end_s - s.begin_s) * 1e6
        << ", \"args\": {\"id\": " << s.id << "}}";
  }
  out << "\n]}\n";
  return write_file(path, out.str());
}

void write_spans(const Options& opts, const SpanLog& spans, Result& result) {
  const std::string path = opts.work_dir + "/trace-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (!spans.write_chrome(path)) result.fail_check("could not write " + path);
}

void LayerTotals::begin() {
  sstd::obs::CostRegistry::global().reset();
  sstd::obs::MetricsRegistry::global().reset();
}

void LayerTotals::end() {
  const auto cost = sstd::obs::CostRegistry::global().snapshot();
  for (const auto& node : cost.nodes) {
    CostSums& sums = costs_[node.path];
    sums.count += node.count;
    sums.total_s += node.total_wall_s;
    sums.self_s += node.self_wall_s;
  }
  const auto snap = sstd::obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) counters_[name] += value;
  for (const auto& [name, hist] : snap.histograms) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
      continue;
    }
    sstd::obs::HistogramSnapshot& merged = it->second;
    if (merged.buckets.size() != hist.buckets.size()) continue;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      merged.buckets[i] += hist.buckets[i];
    }
    merged.count += hist.count;
    merged.sum += hist.sum;
  }
}

std::uint64_t LayerTotals::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double LayerTotals::cost_total_s(const std::string& path) const {
  const auto it = costs_.find(path);
  return it == costs_.end() ? 0.0 : it->second.total_s;
}

double LayerTotals::cost_self_s(const std::string& path) const {
  const auto it = costs_.find(path);
  return it == costs_.end() ? 0.0 : it->second.self_s;
}

std::uint64_t LayerTotals::cost_count(const std::string& path) const {
  const auto it = costs_.find(path);
  return it == costs_.end() ? 0 : it->second.count;
}

std::uint64_t LayerTotals::cost_scopes() const {
  std::uint64_t total = 0;
  for (const auto& [_, sums] : costs_) total += sums.count;
  return total;
}

double LayerTotals::histogram_quantile(const std::string& name,
                                       double q) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end() || it->second.count == 0) return 0.0;
  return it->second.quantile(q);
}

double LayerTotals::histogram_sum(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.sum;
}

void emit_end_to_end(const Timings& t, Result& result) {
  result.metric("setup_s", quantile(t.setup_s, 0.5), "s");
  result.metric("reports_per_s",
                t.timed_s > 0.0 ? static_cast<double>(t.reports) / t.timed_s
                                : 0.0,
                "reports/s");
  result.metric("decision_latency_p50_s", quantile(t.decision_s, 0.5), "s");
  result.metric("refit_latency_p50_s", quantile(t.refit_s, 0.5), "s");
  result.metric("recovery_s", quantile(t.recovery_s, 0.5), "s");
  result.metric("rss_peak_mib", t.rss_peak_mib, "MiB");
  result.metric("cpu_s_per_mreport",
                t.reports > 0
                    ? t.timed_cpu_s / (static_cast<double>(t.reports) / 1e6)
                    : 0.0,
                "s");
}

void emit_per_layer(const LayerTotals& L, const LayerTotals& R,
                    const LayerInputs& in, Result& result) {
  auto per_report_ns = [&](double seconds) {
    return in.reports > 0 ? seconds * 1e9 / in.reports : 0.0;
  };
  auto per_round = [&](double count) { return count / in.rounds; };
  auto mean_ms = [](double total_s, std::uint64_t calls) {
    return calls ? total_s * 1e3 / static_cast<double>(calls) : 0.0;
  };

  result.metric("sstd.ingest_batch_ms", in.ingest_batch_ms, "ms");
  result.metric("sstd.claim_bytes", in.claim_bytes, "bytes");
  result.metric("sstd.claims_created", in.claims_created, "count");

  result.metric("hmm.em_forward_ns_per_report",
                per_report_ns(L.cost_total_s("refit/forward")), "ns");
  result.metric("hmm.em_mstep_ns_per_report",
                per_report_ns(L.cost_total_s("refit/mstep")), "ns");
  result.metric("hmm.em_iterations",
                per_round(static_cast<double>(L.cost_count("refit/forward"))),
                "count");
  result.metric("hmm.replay_ns_per_report",
                per_report_ns(L.cost_total_s("refit/replay")), "ns");
  result.metric("hmm.refits",
                per_round(static_cast<double>(L.counter("stream.refits"))),
                "count");
  result.metric("hmm.decode_ns_per_report",
                per_report_ns(L.cost_self_s("decode/viterbi")), "ns");
  result.metric("hmm.quantize_ns_per_report",
                per_report_ns(L.cost_total_s("ingest/quantize")), "ns");

  result.metric("dist.tasks",
                per_round(static_cast<double>(L.counter("wq.tasks_completed"))),
                "count");
  result.metric("dist.queue_wait_p50_ms",
                in.queue_wait_p50_ms >= 0.0
                    ? in.queue_wait_p50_ms
                    : L.histogram_quantile("wq.queue_wait_s", 0.5) * 1e3,
                "ms");
  result.metric("dist.exec_p50_ms",
                in.exec_p50_ms >= 0.0
                    ? in.exec_p50_ms
                    : L.histogram_quantile("wq.execution_s", 0.5) * 1e3,
                "ms");
  result.metric("dist.worker_busy_ratio",
                in.timed_s > 0.0 ? L.histogram_sum("wq.execution_s") /
                                       (in.timed_s * in.pool)
                                 : 0.0,
                "ratio");
  result.metric("dist.unattributed_ns_per_report",
                per_report_ns(L.cost_self_s("wq/exec")), "ns");

  result.metric("control.worker_target_mean", in.worker_target_mean,
                "workers");
  result.metric("control.gck_moves",
                static_cast<double>(L.counter("dtm.gck_moves")), "count");

  result.metric("durable.wal_append_ns_per_report",
                per_report_ns(L.cost_total_s("wal/append")), "ns");
  result.metric("durable.wal_sync_ms_per_interval",
                mean_ms(L.cost_total_s("wal/sync"), L.cost_count("wal/sync")),
                "ms");
  result.metric("durable.snapshot_write_ms",
                mean_ms(L.cost_total_s("snapshot/write"),
                        L.cost_count("snapshot/write")),
                "ms");
  const std::uint64_t snapshots = L.counter("durable.snapshot_writes");
  result.metric("durable.snapshot_mib",
                snapshots ? static_cast<double>(
                                L.counter("durable.snapshot_bytes")) /
                                static_cast<double>(snapshots) /
                                (1024.0 * 1024.0)
                          : 0.0,
                "MiB");
  result.metric("durable.wal_bytes_per_report",
                in.reports > 0
                    ? static_cast<double>(
                          L.counter("durable.wal_bytes_appended")) /
                          in.reports
                    : 0.0,
                "bytes");
  result.metric(
      "durable.replay_records_per_s",
      in.recovery_s > 0.0
          ? static_cast<double>(
                R.counter("durable.recovery_replayed_records")) /
                in.recovery_s
          : 0.0,
      "records/s");

  result.metric("obs.provenance_query_us", in.provenance_query_us, "us");
  result.metric("obs.provenance_hit_ratio", in.provenance_hit_ratio, "ratio");
  result.metric("obs.provenance_dropped",
                per_round(static_cast<double>(
                    L.counter("obs.provenance.dropped_records"))),
                "count");
  result.metric("obs.cost_scopes",
                per_round(static_cast<double>(L.cost_scopes())), "count");

  result.metric("workload.generate_ms_per_interval",
                in.generate_ms_per_interval, "ms");
}

}  // namespace perfbench
