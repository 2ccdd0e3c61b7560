#include "perfbench/src/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/status.h"

namespace fewner::perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadIndex() {
  static std::atomic<int64_t> next{0};
  thread_local const int64_t index = next.fetch_add(1);
  return index;
}

/// Spans opened and not yet closed on this thread, innermost last.
thread_local std::vector<int64_t> t_open_spans;

bool IsGrouping(const char* name) { return std::strncmp(name, "op.", 3) == 0; }

/// Length of the union of [begin, end) intervals, clipped to [lo, hi).
double UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                   int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  int64_t cur_begin = 0;
  int64_t cur_end = -1;
  bool open = false;
  for (auto [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += static_cast<double>(cur_end - cur_begin);
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_end - cur_begin);
  return covered;
}

}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) { spans_.reserve(1 << 14); }

int64_t Tracer::NowNs() const { return SteadyNs() - origin_ns_; }

int64_t Tracer::Begin(const char* name, int64_t op, int64_t parent) {
  if (parent == kAutoParent) {
    parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.thread = ThreadIndex();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.begin_ns = NowNs();
    spans_.push_back(span);
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = NowNs();
  FEWNER_CHECK(!t_open_spans.empty() && t_open_spans.back() == id,
               "spans must close innermost first on their thread");
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"begin_ns\": " << s.begin_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"thread\": " << s.thread << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t op,
                       int64_t parent)
    : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}

ScopedSpan::~ScopedSpan() { tracer_->End(id_); }

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.end_ns < 0) continue;
    const double duration = static_cast<double>(s.end_ns - s.begin_ns);
    SpanStats& st = stats[s.name];
    ++st.calls;
    st.total_ns += duration;
    st.self_ns += duration - UnionLength(children[i], s.begin_ns, s.end_ns);
  }
  return stats;
}

double LayerCoverage(const std::vector<Tracer::Span>& spans, int64_t begin_ns,
                     int64_t end_ns) {
  if (end_ns <= begin_ns) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> top;
  for (const Tracer::Span& s : spans) {
    if (s.end_ns < 0 || IsGrouping(s.name)) continue;
    bool has_layer_ancestor = false;
    for (int64_t p = s.parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
      if (!IsGrouping(spans[static_cast<size_t>(p)].name)) {
        has_layer_ancestor = true;
        break;
      }
    }
    if (!has_layer_ancestor) top.emplace_back(s.begin_ns, s.end_ns);
  }
  return UnionLength(std::move(top), begin_ns, end_ns) /
         static_cast<double>(end_ns - begin_ns);
}

}  // namespace fewner::perfbench
