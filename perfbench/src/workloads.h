// The three workloads of the FEWNER benchmark: meta_train, adapt_5shot and
// serve_docs.  Each runs as a closed loop with one client for a fixed wall
// time and checks its outputs; a traced run instead replays the same work
// through the public calls of each library layer and reports per-layer
// metrics.  See perfbench/README.md for why each workload exists.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"

namespace fewner::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Profile profile = PaperProfile();
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// (name, unit) of every metric a run reports, in result-line order:
/// end-to-end metrics for untraced runs, per-layer metrics for traced runs.
std::vector<std::pair<std::string, std::string>> MetricUnits(bool trace);

/// Runs one workload.  A traced run records its spans into `tracer`.
/// Aborts on an unknown workload name.
Outcome RunWorkload(const RunOptions& options, Tracer* tracer);

}  // namespace fewner::perfbench
