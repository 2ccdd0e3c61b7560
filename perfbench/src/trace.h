// In-memory span recorder for the traced replay.
//
// The replay wraps each public call into a library layer in a ScopedSpan.
// A span records its name, start, end, parent span and the operation (task,
// request or iteration) it belongs to.  Spans stay in memory and are written
// out when the run ends, so recording costs one clock read and one locked
// vector write per boundary.
//
// Span names are "<layer>.<call>" (data, models, crf, nn, tensor, meta).
// Names starting with "op." group the spans of one operation and belong to
// no layer.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fewner::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    int64_t begin_ns = 0;   ///< since the tracer was created
    int64_t end_ns = -1;    ///< -1 while open
    int64_t parent = -1;    ///< index into spans(), -1 at top level
    int64_t op = -1;        ///< task / request / iteration id
    int64_t thread = 0;     ///< small per-thread index
  };

  static constexpr int64_t kAutoParent = -2;  ///< innermost open span on this thread

  Tracer();

  int64_t Begin(const char* name, int64_t op, int64_t parent);
  void End(int64_t id);
  int64_t NowNs() const;

  std::vector<Span> spans() const;

  /// Writes every span as one JSON array.  Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op,
             int64_t parent = Tracer::kAutoParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Per-name aggregate over closed spans.
struct SpanStats {
  int64_t calls = 0;
  double total_ns = 0.0;  ///< summed durations
  double self_ns = 0.0;   ///< summed durations minus child-covered time
};

/// Self time of a span is its duration minus the part of its interval that
/// the union of its children covers (children may run on other threads).
std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<Tracer::Span>& spans);

/// Share of [begin_ns, end_ns] covered by top-level layer spans: spans whose
/// name does not start with "op." and that have no layer-span ancestor.
double LayerCoverage(const std::vector<Tracer::Span>& spans, int64_t begin_ns,
                     int64_t end_ns);

}  // namespace fewner::perfbench
