// Result plumbing shared by every perfbench workload: nearest-rank
// percentiles, a tiny ordered JSON object writer, host provenance, and the
// one-line result the benchmark contract asks for.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fewner::perfbench {

/// Nearest-rank percentile: the sample at 1-based rank ceil(q * n) of the
/// ascending order (q in (0, 1]).  Aborts on an empty sample.
double Percentile(std::vector<double> samples, double q);

/// Median (p50) plus p90 of a timing sample, with the sample count.
struct Summary {
  double p50 = 0.0;
  double p90 = 0.0;
  int64_t n = 0;
};
Summary Summarize(const std::vector<double>& samples);

/// Ordered JSON object built as text.  Keys keep insertion order; numbers
/// keep every significant digit; non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& Number(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& String(const std::string& key, const std::string& value);
  JsonObject& Object(const std::string& key, const JsonObject& value);
  JsonObject& Timing(const std::string& key, const perfbench::Summary& s);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& text);
  std::string body_;
};

std::string FormatNumber(double value);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run produces.
struct Outcome {
  int64_t attempted = 0;       ///< operations attempted, checks included
  int64_t failed = 0;          ///< operations whose output check failed
  std::vector<Metric> metrics; ///< end-to-end (untraced) or per-layer (traced)
  JsonObject report;           ///< path-level names, sample counts, budgets
  std::string input_fingerprint;   ///< hash of the generated inputs
  std::string output_fingerprint;  ///< hash of the first checked outputs
};

/// The contract's last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}.
std::string ResultLine(const Outcome& outcome);

/// nproc, CPU model, ISA flags, compiler and flags, build type, git describe.
JsonObject HostProvenance();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace fewner::perfbench
