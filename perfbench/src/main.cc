// perfbench: runs one FEWNER workload and prints its metrics.
//
//   perfbench --workload adapt_5shot --seed 3 --seconds 20 --trace 0
//
// Stdout ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}.  The line before it ("report {...}") carries host provenance,
// thread budgets, sample counts and the per-path metric names.  With
// --out-dir the report (and, for --trace 1, every span) is also written to
// files there.

#include <fstream>
#include <iostream>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "util/flags.h"
#include "util/logging.h"

namespace fewner::perfbench {
namespace {

int Main(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddString("workload", "", "meta_train | adapt_5shot | serve_docs");
  flags.AddInt("seed", 1, "seed of every generated input (>= 0)");
  flags.AddDouble("seconds", 10.0, "wall time the run measures");
  flags.AddInt("trace", 0, "1: traced per-layer replay; 0: end-to-end run");
  flags.AddString("out-dir", "", "directory for report and span files");
  const util::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) return 0;

  RunOptions options;
  options.workload = flags.GetString("workload");
  options.seconds = flags.GetDouble("seconds");
  const int64_t seed = flags.GetInt("seed");
  const int64_t trace = flags.GetInt("trace");
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == options.workload;
  if (!known || seed < 0 || !(options.seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::cerr << "invalid arguments\n" << flags.Usage(argv[0]);
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.trace = trace == 1;
  util::SetLogLevel(util::LogLevel::kWarning);

  Tracer tracer;
  const Outcome outcome = RunWorkload(options, &tracer);

  const JsonObject report =
      JsonObject()
          .String("workload", options.workload)
          .Int("seed", seed)
          .Number("seconds", options.seconds)
          .Int("trace", trace)
          .Object("host", HostProvenance())
          .String("input_fingerprint", outcome.input_fingerprint)
          .String("output_fingerprint", outcome.output_fingerprint)
          .Object("run", outcome.report);
  for (const Metric& m : outcome.metrics) {
    std::cout << "  " << m.name << " = " << FormatNumber(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "report " << report.str() << "\n";

  const std::string out_dir = flags.GetString("out-dir");
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + options.workload + "-seed" +
                             std::to_string(seed) + "-trace" + std::to_string(trace);
    std::ofstream(stem + ".report.json") << report.str() << "\n";
    if (options.trace && !tracer.WriteJson(stem + ".spans.json")) {
      std::cerr << "could not write " << stem << ".spans.json\n";
    }
  }
  std::cout << ResultLine(outcome) << std::endl;
  return 0;
}

}  // namespace
}  // namespace fewner::perfbench

int main(int argc, char** argv) { return fewner::perfbench::Main(argc, argv); }
