#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "meta/grad_accumulator.h"
#include "meta/parallel.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "tensor/intraop.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/status.h"

namespace fewner::perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using tensor::Tensor;
using Tags = std::vector<std::vector<int64_t>>;

// Intra-op GEMM budgets.  meta_train's budget covers only the client thread:
// ParallelMetaBatch pins its episode workers to serial GEMMs itself.
constexpr int64_t kTrainBudget = 1;
constexpr int64_t kAdaptBudget = 1;
constexpr int64_t kServeBudget = 2;

// serve_docs replays its first requests whole through graph-mode decoding.
constexpr int64_t kServeExactReplays = 16;

// Operations per throughput chunk (see LoopClock::ItemsPerSecond).
constexpr size_t kTrainChunk = 1;
constexpr size_t kAdaptChunk = 4;
constexpr size_t kServeChunk = 16;

const std::vector<std::pair<std::string, std::string>>& EndToEndUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"}, {"op_ms_p50", "ms"}, {"items_per_s", "1/s"}};
  return units;
}

const char* const kGemmKinds[] = {"nn", "nt", "tn"};
const char* const kGemmLayers[] = {"gru_input", "gru_step", "charcnn", "emission"};
const int64_t kGemmBudgets[] = {1, 2};

std::string GemmMetric(const std::string& kind, const std::string& layer,
                       int64_t budget) {
  return "tensor.gemm." + kind + "." + layer + ".gflops_b" + std::to_string(budget);
}

std::vector<std::pair<std::string, std::string>> PerLayerUnits() {
  std::vector<std::pair<std::string, std::string>> units = {
      {"data.prepare_task.ms", "ms"},
      {"meta.inner_loop.ms", "ms"},
      {"models.query_loss.ms", "ms"},
      {"tensor.meta_grad.ms", "ms"},
      {"meta.reduce.ms", "ms"},
      {"nn.clip_adam.ms", "ms"},
      {"meta.parallel.idle_share", "ratio"},
      {"meta.parallel.straggler_ratio", "ratio"},
      {"models.pack.us", "us"},
      {"models.pack.pad_efficiency", "ratio"},
      {"models.prefix.ms", "ms"},
      {"models.prefix.tokens", "count"},
      {"models.prefix.gflops", "GFLOP/s"},
      {"models.suffix_loss.ms_per_step", "ms"},
      {"tensor.phi_grad.ms_per_step", "ms"},
      {"meta.phi_update.us_per_step", "us"},
      {"models.emissions.ms", "ms"},
      {"crf.viterbi.ms", "ms"},
  };
  for (const char* kind : kGemmKinds) {
    for (const char* layer : kGemmLayers) {
      for (int64_t budget : kGemmBudgets) {
        units.emplace_back(GemmMetric(kind, layer, budget), "GFLOP/s");
      }
    }
  }
  units.emplace_back("trace.coverage", "ratio");
  units.emplace_back("trace.overhead", "ratio");
  return units;
}

/// Fills the outcome's metrics in MetricUnits order.  End-to-end values must
/// all be present; a per-layer metric the workload never reaches reads 0.
void SetMetrics(bool trace, const std::map<std::string, double>& values,
                Outcome* out) {
  for (const auto& [name, unit] : MetricUnits(trace)) {
    const auto it = values.find(name);
    FEWNER_CHECK(trace || it != values.end(), "missing metric " << name);
    out->metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ms(Clock::time_point a, Clock::time_point b) { return 1e3 * Seconds(a, b); }

bool Finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(), [](float x) { return std::isfinite(x); });
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SameParameters(models::Backbone* a, models::Backbone* b) {
  const auto va = nn::SnapshotParameterValues(a);
  const auto vb = nn::SnapshotParameterValues(b);
  if (va.size() != vb.size()) return false;
  for (size_t i = 0; i < va.size(); ++i) {
    if (!SameBits(va[i], vb[i])) return false;
  }
  return true;
}

bool ParametersFinite(models::Backbone* net) {
  for (const Tensor* p : net->Parameters()) {
    if (!Finite(p->data())) return false;
  }
  return true;
}

/// Builds the workload state `repeats` times and keeps the last build; returns
/// the median build time.  Each build starts from an empty state, so peak
/// memory is that of one set-up.
template <typename State, typename Build>
double RepeatSetup(int64_t repeats, const Build& build, State* state) {
  std::vector<double> seconds;
  for (int64_t r = 0; r < std::max<int64_t>(repeats, 1); ++r) {
    *state = State{};
    const auto start = Clock::now();
    build(state);
    seconds.push_back(Seconds(start, Clock::now()));
  }
  return Percentile(seconds, 0.5);
}

/// Completion times of a closed loop's operations.
class LoopClock {
 public:
  LoopClock() : start_(Clock::now()) {}

  /// Marks one operation done that completed `items` units of work.
  void Done(double items) {
    end_s_.push_back(Seconds(start_, Clock::now()));
    items_.push_back(items);
  }
  double elapsed() const { return Seconds(start_, Clock::now()); }
  double wall() const { return end_s_.empty() ? 0.0 : end_s_.back(); }
  double total_items() const {
    return std::accumulate(items_.begin(), items_.end(), 0.0);
  }

  /// Items per second as the median over consecutive chunks of `chunk`
  /// operations, so that a burst of interference from other tenants of the
  /// host moves a few chunks rather than the result.  Falls back to the whole
  /// window when not one chunk completed.
  double ItemsPerSecond(size_t chunk) const {
    std::vector<double> rates;
    for (size_t end = chunk; end <= end_s_.size(); end += chunk) {
      const size_t begin = end - chunk;
      const double t0 = begin == 0 ? 0.0 : end_s_[begin - 1];
      const double items = std::accumulate(items_.begin() + static_cast<std::ptrdiff_t>(begin),
                                           items_.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
      rates.push_back(items / (end_s_[end - 1] - t0));
    }
    return rates.empty() ? total_items() / wall() : Percentile(rates, 0.5);
  }

 private:
  Clock::time_point start_;
  std::vector<double> end_s_;  ///< completion times since start_
  std::vector<double> items_;
};

/// An untraced run's end-to-end metrics; the report also names them after
/// the user path (e.g. adapt_ms, adapt_tasks_per_s) with p90, sample count,
/// whole-window throughput and peak memory.
void EndToEnd(double setup_s, double peak_rss_mb, const std::vector<double>& op_ms,
              const LoopClock& loop, size_t chunk, const std::string& op_name,
              const std::string& rate_name, std::map<std::string, double>* values,
              Outcome* out) {
  const Summary op = Summarize(op_ms);
  const double rate = loop.ItemsPerSecond(chunk);
  *values = {{"setup_s", setup_s}, {"op_ms_p50", op.p50}, {"items_per_s", rate}};
  out->report.Number("setup_s", setup_s)
      .Timing(op_name, op)
      .Number(rate_name, rate)
      .Number(rate_name + "_whole_window", loop.total_items() / loop.wall())
      .Number("peak_rss_mb", peak_rss_mb);
}

JsonObject OpsReport(const Outcome& out) {
  return JsonObject()
      .Int("ops_attempted", out.attempted)
      .Int("ops_failed", out.failed)
      .Number("ops_failed_ratio", out.attempted > 0
                                      ? static_cast<double>(out.failed) /
                                            static_cast<double>(out.attempted)
                                      : 0.0);
}

// ---------------------------------------------------------------------------
// Replay bookkeeping shared by the traced runs.

/// Lanes, padded length and padded characters per word of one encoder batch.
struct BatchShape {
  double lanes = 0.0;
  double max_len = 0.0;
  double char_len = 0.0;
};

BatchShape ShapeOf(const std::vector<models::EncodedSentence>& sentences,
                   const models::BackboneConfig& config) {
  BatchShape shape;
  shape.lanes = static_cast<double>(sentences.size());
  int64_t max_len = 0;
  int64_t char_len = *std::max_element(config.filter_widths.begin(),
                                       config.filter_widths.end());
  for (const auto& s : sentences) {
    max_len = std::max(max_len, s.length());
    for (const auto& word : s.char_ids) {
      char_len = std::max(char_len, static_cast<int64_t>(word.size()));
    }
  }
  shape.max_len = static_cast<double>(max_len);
  shape.char_len = static_cast<double>(char_len);
  return shape;
}

/// Counts over every CachedPrefix a replay builds: real vs padded tokens and
/// the prefix's flops, computed from the GEMM shapes of its runs.
struct PrefixCounter {
  double real_tokens = 0.0;
  double padded_tokens = 0.0;
  double flops = 0.0;
  int64_t calls = 0;

  void Add(const models::CachedPrefix& prefix, const models::Backbone& net) {
    const models::BackboneConfig& c = net.config();
    const double in = static_cast<double>(net.token_input_dim());
    const double h = static_cast<double>(c.hidden_dim);
    const int64_t widest =
        *std::max_element(c.filter_widths.begin(), c.filter_widths.end());
    ++calls;
    for (const models::CachedPrefix::Run& run : prefix.runs) {
      const double lanes = static_cast<double>(run.batch.batch);
      const double len = static_cast<double>(run.batch.max_len);
      const double tokens = lanes * len;
      for (int64_t l : run.batch.lengths) real_tokens += static_cast<double>(l);
      padded_tokens += tokens;
      int64_t char_len = widest;
      for (const auto& word : run.batch.char_ids) {
        char_len = std::max(char_len, static_cast<int64_t>(word.size()));
      }
      for (int64_t w : c.filter_widths) {
        flops += 2.0 * tokens * static_cast<double>(char_len - w + 1) *
                 static_cast<double>(w * c.char_dim) *
                 static_cast<double>(c.filters_per_width);
      }
      // Two directions, each one input projection plus one step GEMM per
      // time step.
      flops += 2.0 * (2.0 * tokens * in * 3.0 * h + len * 2.0 * lanes * h * 3.0 * h);
    }
  }
};

double MedianOf(const std::vector<BatchShape>& shapes, double BatchShape::*field) {
  std::vector<double> v;
  v.reserve(shapes.size());
  for (const BatchShape& s : shapes) v.push_back(s.*field);
  return Percentile(v, 0.5);
}

/// GFLOP/s of one kernel::Gemm call shape under an intra-op budget: the
/// median of three timed batches, each at least 5 ms long.
double GemmGflops(const std::string& kind, int64_t m, int64_t k, int64_t n,
                  int64_t budget, uint64_t seed) {
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  util::Rng rng(seed);
  for (float& x : a) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const tensor::ParallelismBudget scope(budget);
  auto call = [&] {
    if (kind == "nn") {
      tensor::kernel::GemmNN(a.data(), b.data(), c.data(), m, k, n);
    } else if (kind == "nt") {
      tensor::kernel::GemmNT(a.data(), b.data(), c.data(), m, k, n);
    } else {
      tensor::kernel::GemmTN(a.data(), b.data(), c.data(), m, k, n);
    }
  };
  call();
  int64_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (int64_t r = 0; r < reps; ++r) call();
    if (Seconds(start, Clock::now()) >= 0.005) break;
    reps *= 2;
  }
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    for (int64_t r = 0; r < reps; ++r) call();
    rates.push_back(2.0 * static_cast<double>(m * k * n * reps) /
                    Seconds(start, Clock::now()) / 1e9);
  }
  return Percentile(rates, 0.5);
}

/// Times kernel::Gemm{NN,NT,TN} in isolation at the workload's GEMM shapes:
/// a layer y[rows, out] = x[rows, in] w[in, out] runs NN forward, NT for dx
/// and TN for dw.  Rows come from the median lanes and length of the
/// workload's encoder batches.
void GemmProbes(const models::Backbone& net, const std::vector<BatchShape>& shapes,
                uint64_t seed, std::map<std::string, double>* values,
                JsonObject* report) {
  const models::BackboneConfig& c = net.config();
  const auto lanes = static_cast<int64_t>(MedianOf(shapes, &BatchShape::lanes));
  const auto len = static_cast<int64_t>(MedianOf(shapes, &BatchShape::max_len));
  const auto char_len = static_cast<int64_t>(MedianOf(shapes, &BatchShape::char_len));
  const int64_t width = c.filter_widths[c.filter_widths.size() / 2];
  const int64_t tokens = lanes * len;
  const int64_t h = c.hidden_dim;
  struct Layer {
    const char* name;
    int64_t rows, in, out;
  };
  const Layer layers[] = {
      {"gru_input", tokens, net.token_input_dim(), 3 * h},
      {"gru_step", lanes, h, 3 * h},
      {"charcnn", tokens * (char_len - width + 1), width * c.char_dim,
       c.filters_per_width},
      {"emission", tokens, 2 * h, c.max_tags},
  };
  JsonObject shape_report;
  for (const Layer& l : layers) {
    shape_report.String(l.name, std::to_string(l.rows) + "x" + std::to_string(l.in) +
                                    "x" + std::to_string(l.out));
    for (const char* kind : kGemmKinds) {
      const std::string k(kind);
      const int64_t m = k == "tn" ? l.in : l.rows;
      const int64_t inner = k == "nn" ? l.in : (k == "nt" ? l.out : l.rows);
      const int64_t n = k == "nt" ? l.in : l.out;
      for (int64_t budget : kGemmBudgets) {
        (*values)[GemmMetric(k, l.name, budget)] =
            GemmGflops(k, m, inner, n, budget, seed);
      }
    }
  }
  report->Object("gemm_shapes_rows_in_out", shape_report);
}

/// Per-call self time of every layer span the replays record.
void SpanMetrics(const std::vector<Tracer::Span>& spans,
                 std::map<std::string, double>* values, JsonObject* report) {
  const std::map<std::string, SpanStats> stats = AggregateSpans(spans);
  JsonObject span_report;
  for (const auto& [name, st] : stats) {
    span_report.Object(name, JsonObject()
                                 .Int("calls", st.calls)
                                 .Number("self_ms", st.self_ns / 1e6)
                                 .Number("total_ms", st.total_ns / 1e6));
  }
  report->Object("spans", span_report);
  constexpr double kMs = 1e-6;
  constexpr double kUs = 1e-3;
  const struct {
    const char* metric;
    const char* span;
    double scale;  ///< from ns
  } per_call[] = {
      {"data.prepare_task.ms", "data.prepare_task", kMs},
      {"meta.inner_loop.ms", "meta.inner_loop", kMs},
      {"models.query_loss.ms", "models.query_loss", kMs},
      {"tensor.meta_grad.ms", "tensor.meta_grad", kMs},
      {"meta.reduce.ms", "meta.reduce", kMs},
      {"nn.clip_adam.ms", "nn.clip_adam", kMs},
      {"models.pack.us", "models.pack", kUs},
      {"models.prefix.ms", "models.prefix", kMs},
      {"models.suffix_loss.ms_per_step", "models.suffix_loss", kMs},
      {"tensor.phi_grad.ms_per_step", "tensor.phi_grad", kMs},
      {"meta.phi_update.us_per_step", "meta.phi_update", kUs},
      {"models.emissions.ms", "models.emissions", kMs},
      {"crf.viterbi.ms", "crf.viterbi", kMs},
  };
  for (const auto& m : per_call) {
    const auto it = stats.find(m.span);
    if (it == stats.end()) continue;
    (*values)[m.metric] =
        it->second.self_ns / static_cast<double>(it->second.calls) * m.scale;
  }
}

void PrefixMetrics(const PrefixCounter& counter,
                   std::map<std::string, double>* values) {
  if (counter.calls == 0) return;
  (*values)["models.pack.pad_efficiency"] = counter.real_tokens / counter.padded_tokens;
  (*values)["models.prefix.tokens"] =
      counter.real_tokens / static_cast<double>(counter.calls);
  // One models.prefix span per counted prefix; flop per ns is GFLOP/s.
  const double self_ns =
      (*values)["models.prefix.ms"] * 1e6 * static_cast<double>(counter.calls);
  if (self_ns > 0.0) (*values)["models.prefix.gflops"] = counter.flops / self_ns;
}

/// Closes a traced run: span metrics, coverage, overhead, GEMM probes.
void FinishTrace(const Tracer& tracer, int64_t begin_ns, int64_t end_ns,
                 double untraced_s, double traced_s, const models::Backbone& net,
                 const std::vector<BatchShape>& shapes, uint64_t seed,
                 std::map<std::string, double>* values, Outcome* out) {
  const std::vector<Tracer::Span> spans = tracer.spans();
  SpanMetrics(spans, values, &out->report);
  (*values)["trace.coverage"] = LayerCoverage(spans, begin_ns, end_ns);
  (*values)["trace.overhead"] = traced_s / untraced_s;
  out->report.Number("untraced_s", untraced_s).Number("traced_s", traced_s);
  GemmProbes(net, shapes, seed, values, &out->report);
}

/// One test-time φ step after Fewner's DescendPhi (create_graph=false):
/// clip the gradient to global norm 5, step, re-leaf.
Tensor PhiStep(const Tensor& phi, const Tensor& grad, float lr) {
  double norm_sq = 0.0;
  for (float v : grad.data()) norm_sq += static_cast<double>(v) * v;
  const float norm = static_cast<float>(std::sqrt(norm_sq));
  const float clip_scale = norm > 5.0f ? 5.0f / norm : 1.0f;
  Tensor leaf = tensor::Sub(phi, tensor::MulScalar(grad, lr * clip_scale)).Detach();
  leaf.set_requires_grad(true);
  return leaf;
}

// ---------------------------------------------------------------------------
// meta_train

meta::TrainConfig TrainingConfig(int64_t workers, int64_t iterations) {
  meta::TrainConfig config;  // paper defaults otherwise (see meta/method.h)
  config.num_threads = workers;
  config.iterations = iterations;
  return config;
}

struct TrainState {
  std::unique_ptr<World> world;
  std::unique_ptr<data::EpisodeSampler> sampler;
  std::unique_ptr<meta::Fewner> model;
};

/// Fewner::Train's outer loop, replayed through the public call of each
/// layer so every stage gets a span.  Must end bitwise-equal to Train.
void ReplayTrain(meta::Fewner* model, const data::EpisodeSampler& sampler,
                 const models::EpisodeEncoder& encoder,
                 const meta::TrainConfig& config, Tracer* tracer,
                 std::vector<BatchShape>* shapes) {
  models::Backbone* master = model->backbone();
  master->SetTraining(true);
  nn::Adam optimizer(master->Parameters(), config.meta_lr, 0.9f, 0.999f, 1e-8f,
                     config.weight_decay);
  meta::ParallelMetaBatch batch = meta::BackboneMetaBatch(config.num_threads, master);
  const std::vector<Tensor> params = nn::ParameterTensors(master);
  const auto tasks = static_cast<size_t>(config.meta_batch);
  int64_t tasks_seen = 0;
  for (int64_t it = 0; it < config.iterations; ++it) {
    const ScopedSpan iteration(tracer, "op.iteration", it);
    const auto base = static_cast<uint64_t>(it * config.meta_batch);
    std::vector<std::vector<Tensor>> task_grads(tasks);
    std::vector<BatchShape> task_shapes(2 * tasks);
    {
      const ScopedSpan run(tracer, "meta.parallel.run", it);
      const int64_t run_id = run.id();
      batch.Run(
          config.meta_batch,
          [&](int64_t t, nn::Module* module, const std::vector<Tensor>& replica,
              std::vector<Tensor>* grads) -> double {
            const ScopedSpan task(tracer, "op.task", it, run_id);
            auto* net = static_cast<models::Backbone*>(module);
            models::EncodedEpisode enc;
            {
              const ScopedSpan s(tracer, "data.prepare_task", it);
              enc = meta::PrepareTrainingTask(sampler, encoder, config,
                                              base + static_cast<uint64_t>(t), net);
            }
            Tensor phi;
            {
              const ScopedSpan s(tracer, "meta.inner_loop", it);
              phi = meta::Fewner::AdaptContextOn(
                  *net, enc.support, enc.valid_tags, config.inner_steps_train,
                  config.inner_lr, /*create_graph=*/!config.first_order);
            }
            models::EncodedBatch query;
            {
              const ScopedSpan s(tracer, "models.pack", it);
              query = models::PackBatch(enc.query);
            }
            Tensor loss;
            {
              const ScopedSpan s(tracer, "models.query_loss", it);
              loss = net->BatchLoss(query, phi, enc.valid_tags);
            }
            {
              const ScopedSpan s(tracer, "tensor.meta_grad", it);
              *grads = tensor::autodiff::Grad(loss, replica);
            }
            task_grads[static_cast<size_t>(t)] = *grads;
            task_shapes[2 * static_cast<size_t>(t)] = ShapeOf(enc.support, net->config());
            task_shapes[2 * static_cast<size_t>(t) + 1] = ShapeOf(enc.query, net->config());
            return loss.item();
          },
          /*accumulator=*/nullptr);
    }
    std::vector<Tensor> grads;
    {
      const ScopedSpan s(tracer, "meta.reduce", it);
      meta::GradAccumulator accumulator(params);
      for (const auto& g : task_grads) accumulator.Add(g);
      grads = accumulator.Finish(1.0 / static_cast<double>(config.meta_batch));
    }
    {
      const ScopedSpan s(tracer, "nn.clip_adam", it);
      nn::ClipGradNorm(&grads, config.grad_clip);
      optimizer.Step(grads);
    }
    tasks_seen += config.meta_batch;
    if (tasks_seen / config.lr_decay_every !=
        (tasks_seen - config.meta_batch) / config.lr_decay_every) {
      optimizer.DecayLr(config.lr_decay);
    }
    shapes->insert(shapes->end(), task_shapes.begin(), task_shapes.end());
  }
  master->SetTraining(false);
}

/// 1 - task busy time / (workers x ParallelMetaBatch::Run wall time), and the
/// mean over meta-batches of slowest task / median task.
void ParallelMetrics(const std::vector<Tracer::Span>& spans, int64_t workers,
                     std::map<std::string, double>* values) {
  std::map<int64_t, std::vector<double>> task_ns;
  for (const Tracer::Span& s : spans) {
    if (std::strcmp(s.name, "op.task") == 0 && s.parent >= 0) {
      task_ns[s.parent].push_back(static_cast<double>(s.end_ns - s.begin_ns));
    }
  }
  double run_ns = 0.0;
  double busy_ns = 0.0;
  double straggler = 0.0;
  for (const auto& [run, durations] : task_ns) {
    const Tracer::Span& r = spans[static_cast<size_t>(run)];
    run_ns += static_cast<double>(r.end_ns - r.begin_ns);
    busy_ns += std::accumulate(durations.begin(), durations.end(), 0.0);
    straggler += *std::max_element(durations.begin(), durations.end()) /
                 Percentile(durations, 0.5);
  }
  if (task_ns.empty()) return;
  (*values)["meta.parallel.idle_share"] =
      1.0 - busy_ns / (static_cast<double>(workers) * run_ns);
  (*values)["meta.parallel.straggler_ratio"] =
      straggler / static_cast<double>(task_ns.size());
}

int64_t IterationsFor(double seconds, double per_iteration) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::ceil(seconds / per_iteration)));
}

Outcome RunMetaTrain(const RunOptions& o, Tracer* tracer) {
  Outcome out;
  const Profile& p = o.profile;
  const tensor::ParallelismBudget budget(kTrainBudget);
  TrainState s;
  const double setup_s = RepeatSetup(
      p.setup_repeats,
      [&](TrainState* st) {
        st->world = std::make_unique<World>(p, o.seed);
        st->sampler = std::make_unique<data::EpisodeSampler>(st->world->TrainSampler());
        st->model = st->world->NewModel();
      },
      &s);
  const World& world = *s.world;
  Fingerprint inputs;
  for (int64_t t = 0; t < meta::TrainConfig{}.meta_batch; ++t) {
    inputs.Add(world.encoder().Encode(s.sampler->Sample(static_cast<uint64_t>(t))));
  }
  out.input_fingerprint = inputs.hex();

  // Untimed check: the first iterations on 2 episode workers end
  // bitwise-equal to 1 worker.  The 2-worker run also sizes the window.
  // The 1-worker run executes its tasks on the calling thread; giving it a
  // thread of its own releases that thread's workspace arena with it, so the
  // check adds nothing to the memory the timed window starts from.
  auto serial = world.NewModel();
  std::thread([&] {
    const tensor::ParallelismBudget serial_budget(kTrainBudget);
    serial->Train(*s.sampler, world.encoder(), TrainingConfig(1, p.parity_iterations));
  }).join();
  auto parallel = world.NewModel();
  const auto parity_start = Clock::now();
  parallel->Train(*s.sampler, world.encoder(),
                  TrainingConfig(p.train_workers, p.parity_iterations));
  const double per_iteration = Seconds(parity_start, Clock::now()) /
                               static_cast<double>(p.parity_iterations);
  ++out.attempted;
  if (!SameParameters(serial->backbone(), parallel->backbone()) ||
      !ParametersFinite(serial->backbone())) {
    ++out.failed;
  }
  Fingerprint outputs;
  for (const auto& v : nn::SnapshotParameterValues(serial->backbone())) outputs.Add(v);
  out.output_fingerprint = outputs.hex();
  serial.reset();
  parallel.reset();

  meta::TrainConfig config = TrainingConfig(p.train_workers, 0);
  out.report.Object("budgets", JsonObject()
                                   .Int("episode_workers", config.num_threads)
                                   .Int("intraop_client", kTrainBudget)
                                   .Int("intraop_episode_workers", 1));
  std::map<std::string, double> values;
  if (!o.trace) {
    config.iterations = IterationsFor(o.seconds, per_iteration);
    std::vector<double> iteration_ms;
    LoopClock loop;
    auto last = Clock::now();
    config.callback_every = 1;
    config.iteration_callback = [&](int64_t) {
      iteration_ms.push_back(Ms(last, Clock::now()));
      loop.Done(static_cast<double>(config.meta_batch));
      ++out.attempted;
      if (!ParametersFinite(s.model->backbone())) ++out.failed;
      last = Clock::now();  // the finite check is not part of the next iteration
    };
    s.model->Train(*s.sampler, world.encoder(), config);
    EndToEnd(setup_s, PeakRssMb(), iteration_ms, loop, kTrainChunk,
             "meta_iteration_ms", "train_tasks_per_s", &values, &out);
  } else {
    config.iterations = IterationsFor(o.seconds / 2.0, per_iteration);
    auto untraced = world.NewModel();
    const auto u0 = Clock::now();
    untraced->Train(*s.sampler, world.encoder(), config);
    const double untraced_s = Seconds(u0, Clock::now());
    auto replayed = world.NewModel();
    std::vector<BatchShape> shapes;
    const int64_t begin_ns = tracer->NowNs();
    const auto r0 = Clock::now();
    ReplayTrain(replayed.get(), *s.sampler, world.encoder(), config, tracer, &shapes);
    const double traced_s = Seconds(r0, Clock::now());
    const int64_t end_ns = tracer->NowNs();
    out.attempted += config.iterations;
    if (!SameParameters(untraced->backbone(), replayed->backbone())) {
      out.failed += config.iterations;
    }
    FinishTrace(*tracer, begin_ns, end_ns, untraced_s, traced_s,
                *replayed->backbone(), shapes, o.seed, &values, &out);
    ParallelMetrics(tracer->spans(),
                    std::min(config.num_threads, config.meta_batch), &values);
  }
  out.report.Object("ops", OpsReport(out));
  SetMetrics(o.trace, values, &out);
  return out;
}

// ---------------------------------------------------------------------------
// adapt_5shot

struct AdaptState {
  std::unique_ptr<World> world;
  std::unique_ptr<meta::Fewner> model;
  std::vector<models::EncodedEpisode> tasks;
};

struct AdaptRecord {
  size_t task = 0;
  double adapt_ms = 0.0;
  std::vector<float> phi;
  Tags tags;
  bool failed = false;
};

/// The closed adapt-then-tag loop: one task after another, for `seconds`.
std::vector<AdaptRecord> AdaptLoop(models::Backbone* net,
                                   const std::vector<models::EncodedEpisode>& tasks,
                                   const Profile& p, double seconds, LoopClock* loop) {
  std::vector<AdaptRecord> records;
  do {
    AdaptRecord r;
    r.task = records.size() % tasks.size();
    const models::EncodedEpisode& task = tasks[r.task];
    const auto t0 = Clock::now();
    const meta::AdaptedTagger tagger(net, task.support, task.valid_tags,
                                     p.adapt_steps, p.adapt_lr);
    r.adapt_ms = Ms(t0, Clock::now());
    r.tags = tagger.TagAll(task.query);
    r.phi = tagger.phi().data();
    r.failed = !Finite(r.phi);
    records.push_back(std::move(r));
    loop->Done(1.0);
  } while (loop->elapsed() < seconds);
  return records;
}

/// Re-derives φ* for a seeded sample of the completed tasks by per-step
/// uncached descent (a full BatchLoss forward each step) and their tags by
/// graph-mode DecodeBatch.  Any differing bit fails that task.
void CheckAdaptSample(models::Backbone* net,
                      const std::vector<models::EncodedEpisode>& tasks,
                      const Profile& p, uint64_t seed,
                      std::vector<AdaptRecord>* records) {
  std::vector<size_t> order(records->size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(util::Mix64(seed ^ 0xC4EC4ull));
  rng.Shuffle(&order);
  order.resize(std::min(order.size(), static_cast<size_t>(p.adapt_checked_tasks)));
  for (size_t i : order) {
    AdaptRecord& r = (*records)[i];
    const models::EncodedEpisode& task = tasks[r.task];
    const models::EncodedBatch support = models::PackBatch(task.support);
    Tensor phi = net->ZeroContext();
    for (int64_t k = 0; k < p.adapt_steps; ++k) {
      const Tensor loss = net->BatchLoss(support, phi, task.valid_tags);
      phi = PhiStep(phi, tensor::autodiff::Grad(loss, {phi})[0], p.adapt_lr);
    }
    const Tags tags =
        net->DecodeBatch(models::PackBatch(task.query), phi, task.valid_tags);
    if (!SameBits(phi.data(), r.phi) || tags != r.tags) r.failed = true;
  }
}

/// AdaptedTagger construction, replayed call by call.  Returns φ*.
Tensor ReplayAdapt(models::Backbone* net, const models::EncodedEpisode& task,
                   const Profile& p, Tracer* tracer, int64_t op,
                   PrefixCounter* counter) {
  const ScopedSpan adapt(tracer, "op.adapt", op);
  models::EncodedBatch packed;
  {
    const ScopedSpan s(tracer, "models.pack", op);
    packed = models::PackBatch(task.support);
  }
  models::CachedPrefix prefix;
  {
    const ScopedSpan s(tracer, "models.prefix", op);
    const tensor::EvalMode eval;
    prefix = net->EncodePrefix(packed);
  }
  counter->Add(prefix, *net);
  Tensor phi = net->ZeroContext();
  for (int64_t k = 0; k < p.adapt_steps; ++k) {
    Tensor loss;
    {
      const ScopedSpan s(tracer, "models.suffix_loss", op);
      loss = net->BatchLossFromPrefix(prefix, phi, task.valid_tags);
    }
    Tensor grad;
    {
      const ScopedSpan s(tracer, "tensor.phi_grad", op);
      grad = tensor::autodiff::Grad(loss, {phi})[0];
    }
    const ScopedSpan s(tracer, "meta.phi_update", op);
    phi = PhiStep(phi, grad, p.adapt_lr);
  }
  return phi.Detach();
}

/// AdaptedTagger::TagAll, replayed call by call.
Tags ReplayTag(models::Backbone* net,
               const std::vector<models::EncodedSentence>& sentences,
               const Tensor& phi, const std::vector<bool>& valid_tags,
               Tracer* tracer, int64_t op, PrefixCounter* counter) {
  const ScopedSpan tag(tracer, "op.tag", op);
  const tensor::EvalMode eval;
  models::EncodedBatch packed;
  {
    const ScopedSpan s(tracer, "models.pack", op);
    packed = models::PackBatch(sentences);
  }
  models::CachedPrefix prefix;
  {
    const ScopedSpan s(tracer, "models.prefix", op);
    prefix = net->EncodePrefix(packed);
  }
  counter->Add(prefix, *net);
  Tensor emissions;
  {
    const ScopedSpan s(tracer, "models.emissions", op);
    emissions = net->EmissionsFromPrefix(prefix, phi);
  }
  const ScopedSpan s(tracer, "crf.viterbi", op);
  return net->crf()->ViterbiBatch(emissions, packed.lengths, &valid_tags);
}

Outcome RunAdapt(const RunOptions& o, Tracer* tracer) {
  Outcome out;
  const Profile& p = o.profile;
  const tensor::ParallelismBudget budget(kAdaptBudget);
  AdaptState s;
  const double setup_s = RepeatSetup(
      p.setup_repeats,
      [&](AdaptState* st) {
        st->world = std::make_unique<World>(p, o.seed);
        st->model = st->world->NewModel();
        st->model->backbone()->SetTraining(false);
        st->tasks = st->world->AdaptTasks(p.adapt_tasks);
        const models::EncodedEpisode& warm = st->tasks.back();
        const meta::AdaptedTagger tagger(st->model->backbone(), warm.support,
                                         warm.valid_tags, p.adapt_steps, p.adapt_lr);
        tagger.TagAll(warm.query);
      },
      &s);
  Fingerprint inputs;
  for (const auto& task : s.tasks) inputs.Add(task);
  out.input_fingerprint = inputs.hex();
  out.report.Object("budgets", JsonObject().Int("intraop_client", kAdaptBudget));

  models::Backbone* net = s.model->backbone();
  LoopClock loop;
  std::vector<AdaptRecord> records =
      AdaptLoop(net, s.tasks, p, o.trace ? o.seconds / 2.0 : o.seconds, &loop);
  const double peak_rss_mb = PeakRssMb();
  Fingerprint outputs;
  outputs.Add(records.front().phi);
  for (const auto& t : records.front().tags) outputs.Add(t);
  out.output_fingerprint = outputs.hex();

  std::map<std::string, double> values;
  if (o.trace) {
    PrefixCounter counter;
    std::vector<BatchShape> shapes;
    const int64_t begin_ns = tracer->NowNs();
    const auto r0 = Clock::now();
    for (size_t i = 0; i < records.size(); ++i) {
      AdaptRecord& r = records[i];
      const models::EncodedEpisode& task = s.tasks[r.task];
      const auto op = static_cast<int64_t>(i);
      const Tensor phi = ReplayAdapt(net, task, p, tracer, op, &counter);
      const Tags tags =
          ReplayTag(net, task.query, phi, task.valid_tags, tracer, op, &counter);
      if (!SameBits(phi.data(), r.phi) || tags != r.tags) r.failed = true;
      shapes.push_back(ShapeOf(task.support, net->config()));
      shapes.push_back(ShapeOf(task.query, net->config()));
    }
    const double traced_s = Seconds(r0, Clock::now());
    FinishTrace(*tracer, begin_ns, tracer->NowNs(), loop.wall(), traced_s, *net, shapes,
                o.seed, &values, &out);
    PrefixMetrics(counter, &values);
  }
  CheckAdaptSample(net, s.tasks, p, o.seed, &records);
  out.attempted = static_cast<int64_t>(records.size());
  out.failed = std::count_if(records.begin(), records.end(),
                             [](const AdaptRecord& r) { return r.failed; });
  if (!o.trace) {
    std::vector<double> adapt_ms;
    for (const auto& r : records) adapt_ms.push_back(r.adapt_ms);
    EndToEnd(setup_s, peak_rss_mb, adapt_ms, loop, kAdaptChunk, "adapt_ms",
             "adapt_tasks_per_s", &values, &out);
  }
  out.report.Object("ops", OpsReport(out));
  SetMetrics(o.trace, values, &out);
  return out;
}

// ---------------------------------------------------------------------------
// serve_docs

struct ServeState {
  std::unique_ptr<World> world;
  std::unique_ptr<meta::Fewner> model;
  ServeInputs inputs;
  std::unique_ptr<meta::AdaptedTagger> tagger;
};

struct ServeRecord {
  size_t request = 0;
  double ms = 0.0;
  Tags tags;
  bool failed = false;
};

/// The closed serving loop: one TagAll request after another, for `seconds`.
std::vector<ServeRecord> ServeLoop(const meta::AdaptedTagger& tagger,
                                   const ServeInputs& inputs, double seconds,
                                   LoopClock* loop) {
  std::vector<ServeRecord> records;
  do {
    ServeRecord r;
    r.request = records.size() % inputs.requests.size();
    const std::vector<models::EncodedSentence> request =
        Gather(inputs, inputs.requests[r.request]);
    const auto t0 = Clock::now();
    r.tags = tagger.TagAll(request);
    r.ms = Ms(t0, Clock::now());
    records.push_back(std::move(r));
    loop->Done(static_cast<double>(request.size()));
  } while (loop->elapsed() < seconds);
  return records;
}

/// Compares every served tag sequence with graph-mode Backbone::DecodeBatch:
/// each pool sentence served is decoded once (in batches of max_request), and
/// the first requests are also decoded whole, exactly as served.
void CheckServe(models::Backbone* net, const meta::AdaptedTagger& tagger,
                const ServeInputs& inputs, int64_t max_request,
                std::vector<ServeRecord>* records) {
  std::vector<bool> used(inputs.pool.size(), false);
  for (const ServeRecord& r : *records) {
    for (int64_t i : inputs.requests[r.request]) used[static_cast<size_t>(i)] = true;
  }
  std::vector<int64_t> wanted;
  for (size_t i = 0; i < used.size(); ++i) {
    if (used[i]) wanted.push_back(static_cast<int64_t>(i));
  }
  Tags reference(inputs.pool.size());
  for (size_t begin = 0; begin < wanted.size();
       begin += static_cast<size_t>(max_request)) {
    const size_t end = std::min(wanted.size(), begin + static_cast<size_t>(max_request));
    const std::vector<int64_t> chunk(wanted.begin() + static_cast<std::ptrdiff_t>(begin),
                                     wanted.begin() + static_cast<std::ptrdiff_t>(end));
    Tags tags = net->DecodeBatch(models::PackBatch(Gather(inputs, chunk)),
                                 tagger.phi(), tagger.valid_tags());
    for (size_t j = 0; j < chunk.size(); ++j) {
      reference[static_cast<size_t>(chunk[j])] = std::move(tags[j]);
    }
  }
  for (size_t n = 0; n < records->size(); ++n) {
    ServeRecord& r = (*records)[n];
    const std::vector<int64_t>& request = inputs.requests[r.request];
    if (r.tags.size() != request.size()) {
      r.failed = true;
      continue;
    }
    for (size_t j = 0; j < request.size(); ++j) {
      if (r.tags[j] != reference[static_cast<size_t>(request[j])]) r.failed = true;
    }
    if (static_cast<int64_t>(n) < kServeExactReplays &&
        net->DecodeBatch(models::PackBatch(Gather(inputs, request)), tagger.phi(),
                         tagger.valid_tags()) != r.tags) {
      r.failed = true;
    }
  }
}

Outcome RunServe(const RunOptions& o, Tracer* tracer) {
  Outcome out;
  const Profile& p = o.profile;
  const tensor::ParallelismBudget budget(kServeBudget);
  ServeState s;
  const double setup_s = RepeatSetup(
      p.setup_repeats,
      [&](ServeState* st) {
        st->world = std::make_unique<World>(p, o.seed);
        st->model = st->world->NewModel();
        st->inputs = MakeServeInputs(*st->world);
        st->tagger = std::make_unique<meta::AdaptedTagger>(
            st->model->backbone(), st->inputs.task.support,
            st->inputs.task.valid_tags, p.adapt_steps, p.adapt_lr);
        for (int64_t r = 0; r < p.serve_warmup; ++r) {
          st->tagger->TagAll(Gather(st->inputs, st->inputs.requests[static_cast<size_t>(
                                                   r % p.serve_requests)]));
        }
      },
      &s);
  Fingerprint inputs;
  inputs.Add(s.inputs.task);
  for (const auto& sentence : s.inputs.pool) inputs.Add(sentence);
  for (const auto& request : s.inputs.requests) inputs.Add(request);
  out.input_fingerprint = inputs.hex();
  out.report.Object("budgets", JsonObject().Int("intraop_client", kServeBudget));

  models::Backbone* net = s.model->backbone();
  LoopClock loop;
  std::vector<ServeRecord> records =
      ServeLoop(*s.tagger, s.inputs, o.trace ? o.seconds / 2.0 : o.seconds, &loop);
  const double peak_rss_mb = PeakRssMb();
  Fingerprint outputs;
  outputs.Add(s.tagger->phi().data());
  for (const auto& t : records.front().tags) outputs.Add(t);
  out.output_fingerprint = outputs.hex();

  std::map<std::string, double> values;
  if (o.trace) {
    PrefixCounter counter;
    std::vector<BatchShape> shapes;
    const int64_t begin_ns = tracer->NowNs();
    const auto r0 = Clock::now();
    for (size_t i = 0; i < records.size(); ++i) {
      ServeRecord& r = records[i];
      const std::vector<models::EncodedSentence> request =
          Gather(s.inputs, s.inputs.requests[r.request]);
      const Tags tags = ReplayTag(net, request, s.tagger->phi(), s.tagger->valid_tags(),
                                  tracer, static_cast<int64_t>(i), &counter);
      if (tags != r.tags) r.failed = true;
      shapes.push_back(ShapeOf(request, net->config()));
    }
    const double traced_s = Seconds(r0, Clock::now());
    FinishTrace(*tracer, begin_ns, tracer->NowNs(), loop.wall(), traced_s, *net, shapes,
                o.seed, &values, &out);
    PrefixMetrics(counter, &values);
  }
  CheckServe(net, *s.tagger, s.inputs, p.max_request, &records);
  out.attempted = static_cast<int64_t>(records.size());
  out.failed = std::count_if(records.begin(), records.end(),
                             [](const ServeRecord& r) { return r.failed; });
  if (!o.trace) {
    std::vector<double> request_ms;
    for (const auto& r : records) request_ms.push_back(r.ms);
    EndToEnd(setup_s, peak_rss_mb, request_ms, loop, kServeChunk, "serve_req_ms",
             "serve_sentences_per_s", &values, &out);
  }
  out.report.Object("ops", OpsReport(out));
  SetMetrics(o.trace, values, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"meta_train", "adapt_5shot",
                                                 "serve_docs"};
  return names;
}

std::vector<std::pair<std::string, std::string>> MetricUnits(bool trace) {
  return trace ? PerLayerUnits() : EndToEndUnits();
}

Outcome RunWorkload(const RunOptions& options, Tracer* tracer) {
  if (options.workload == "meta_train") return RunMetaTrain(options, tracer);
  if (options.workload == "adapt_5shot") return RunAdapt(options, tracer);
  FEWNER_CHECK(options.workload == "serve_docs",
               "unknown workload '" << options.workload << "'");
  return RunServe(options, tracer);
}

}  // namespace fewner::perfbench
