#include "perfbench/src/report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/status.h"

namespace fewner::perfbench {

double Percentile(std::vector<double> samples, double q) {
  FEWNER_CHECK(!samples.empty(), "percentile of an empty sample");
  FEWNER_CHECK(q > 0.0 && q <= 1.0, "percentile rank out of (0, 1]: " << q);
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::ceil(q * n));
  return samples[std::max<size_t>(rank, 1) - 1];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (s.n == 0) return s;
  s.p50 = Percentile(samples, 0.5);
  s.p90 = Percentile(samples, 0.9);
  return s;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::Raw(const std::string& key, const std::string& text) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key) + ": " + text;
  return *this;
}

JsonObject& JsonObject::Number(const std::string& key, double value) {
  return Raw(key, FormatNumber(value));
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::String(const std::string& key, const std::string& value) {
  return Raw(key, Quote(value));
}

JsonObject& JsonObject::Object(const std::string& key, const JsonObject& value) {
  return Raw(key, value.str());
}

JsonObject& JsonObject::Timing(const std::string& key,
                               const perfbench::Summary& s) {
  return Object(key,
                JsonObject().Number("p50", s.p50).Number("p90", s.p90).Int("n", s.n));
}

std::string ResultLine(const Outcome& outcome) {
  JsonObject metrics;
  for (const Metric& m : outcome.metrics) {
    metrics.Object(m.name,
                   JsonObject().Number("value", m.value).String("unit", m.unit));
  }
  return JsonObject()
      .Bool("correct", outcome.failed == 0 && outcome.attempted > 0)
      .Int("attempted", outcome.attempted)
      .Int("failed", outcome.failed)
      .Object("metrics", metrics)
      .str();
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string IsaFlags() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  auto add = [&out](bool present, const char* name) {
    if (!present) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#endif
  return out.empty() ? "none detected" : out;
}

int64_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

JsonObject HostProvenance() {
  return JsonObject()
      .Int("nproc", AffinityCpus())
      .Int("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .String("cpu_model", CpuModel())
      .String("isa", IsaFlags())
      .String("compiler", PERFBENCH_COMPILER)
      .String("cxx_flags", PERFBENCH_CXX_FLAGS)
      .String("build_type", PERFBENCH_BUILD_TYPE)
      .String("git_describe", PERFBENCH_GIT_DESCRIBE);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace fewner::perfbench
