// sstd_perfbench: one run of one benchmark workload.
//
//   sstd_perfbench --workload <stream-zipf|stream-uniform-durable|batch-boston>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--workers <1..3>] [--inject <check>] [--work-dir <dir>]
//
// Prints a provenance line, then as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics and writes a Chrome
// trace of the spans. --inject corrupts one checked output so the
// checker self-test can show that the check fails; --workers 1 gives the
// single-threaded baseline. Exit status is 0 only
// when every check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sstd_perfbench --workload <stream-zipf|"
               "stream-uniform-durable|batch-boston> --seed <n> --seconds <s>"
               " --trace <0|1> [--workers <1..3>] [--inject <check>]"
               " [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--inject") {
      opts.inject = value;
    } else if (flag == "--workers") {
      opts.workers = std::strtoull(value, nullptr, 10);
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opts.seconds > 0.0) || opts.workers == 0 ||
      opts.workers > perfbench::kMaxWorkers) {
    return usage();
  }
  const bool stream = opts.workload == "stream-zipf" ||
                      opts.workload == "stream-uniform-durable";
  if (!stream && opts.workload != "batch-boston") return usage();

  perfbench::Result result;
  result.note("workload", opts.workload);
  result.note("seed", std::to_string(opts.seed));
  result.note("seconds", std::to_string(opts.seconds));
  result.note("trace", opts.trace ? "1" : "0");
  result.note("build_type", PERFBENCH_BUILD_TYPE);
  result.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  if (!opts.inject.empty()) result.note("inject", opts.inject);
  perfbench::SpanLog spans(opts.trace);
  try {
    if (stream) {
      perfbench::run_stream(opts, result, spans);
    } else {
      perfbench::run_batch(opts, result, spans);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sstd_perfbench: %s\n", error.what());
    return 1;
  }
  if (!opts.trace) {
    result.require_positive({"setup_s", "reports_per_s",
                             "decision_latency_p50_s", "refit_latency_p50_s",
                             "recovery_s", "rss_peak_mib",
                             "cpu_s_per_mreport"});
  }
  std::printf("%s\n%s\n", result.notes_json().c_str(), result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
