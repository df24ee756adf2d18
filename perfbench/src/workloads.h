// The three benchmark workloads. Each runs whole rounds of identical work
// until opts.seconds have passed, checks its outputs and adds the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// to `result`.
#pragma once

#include "harness.h"

namespace perfbench {

// stream-zipf and stream-uniform-durable.
void run_stream(const Options& opts, Result& result, SpanLog& spans);
// batch-boston.
void run_batch(const Options& opts, Result& result, SpanLog& spans);

}  // namespace perfbench
