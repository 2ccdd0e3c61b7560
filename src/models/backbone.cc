#include "models/backbone.h"

#include <algorithm>
#include <utility>

#include "tensor/ops.h"

namespace fewner::models {

using tensor::Shape;
using tensor::Tensor;

namespace {
/// Contiguous lane runs with bounded padding: a run closes before a lane that
/// would stretch its max/min length ratio beyond 2.  Per-lane batched results
/// are bitwise lane-independent (DESIGN.md §7), so any partition computes
/// identical values — bucketing only trades padded FLOPs for a few extra op
/// launches.  With length-sorted batches (data::EpisodeSampler) ragged sets
/// collapse into a handful of near-homogeneous sub-batches.
std::vector<std::pair<int64_t, int64_t>> LaneRuns(
    const std::vector<int64_t>& lengths) {
  std::vector<std::pair<int64_t, int64_t>> runs;
  int64_t begin = 0;
  int64_t run_min = lengths[0];
  int64_t run_max = lengths[0];
  for (int64_t b = 1; b < static_cast<int64_t>(lengths.size()); ++b) {
    const int64_t lo = std::min(run_min, lengths[static_cast<size_t>(b)]);
    const int64_t hi = std::max(run_max, lengths[static_cast<size_t>(b)]);
    if (hi > 2 * lo) {
      runs.emplace_back(begin, b - begin);
      begin = b;
      run_min = run_max = lengths[static_cast<size_t>(b)];
    } else {
      run_min = lo;
      run_max = hi;
    }
  }
  runs.emplace_back(begin, static_cast<int64_t>(lengths.size()) - begin);
  return runs;
}

/// Repacks lanes [begin, begin + count) into their own padded batch, padded
/// only to the run's max length.
EncodedBatch SubBatch(const EncodedBatch& batch, int64_t begin, int64_t count) {
  EncodedBatch sub;
  sub.batch = count;
  sub.lengths.assign(batch.lengths.begin() + begin,
                     batch.lengths.begin() + begin + count);
  sub.max_len = *std::max_element(sub.lengths.begin(), sub.lengths.end());
  const size_t flat = static_cast<size_t>(sub.batch * sub.max_len);
  sub.word_ids.assign(flat, 0);
  sub.char_ids.assign(flat, {});
  sub.tags.assign(flat, 0);
  for (int64_t b = 0; b < count; ++b) {
    const size_t src = static_cast<size_t>((begin + b) * batch.max_len);
    const size_t dst = static_cast<size_t>(b * sub.max_len);
    const size_t len = static_cast<size_t>(sub.lengths[static_cast<size_t>(b)]);
    for (size_t t = 0; t < len; ++t) {
      sub.word_ids[dst + t] = batch.word_ids[src + t];
      sub.char_ids[dst + t] = batch.char_ids[src + t];
      sub.tags[dst + t] = batch.tags[src + t];
    }
  }
  return sub;
}
}  // namespace

Backbone::Backbone(const BackboneConfig& config, util::Rng* rng)
    : config_(config),
      dropout_base_(rng->Fork(0xD409u)),
      dropout_episode_(dropout_base_.Fork(0)) {
  FEWNER_CHECK(config.word_vocab_size > 0, "backbone needs a word vocabulary");
  word_embedding_ =
      std::make_unique<nn::Embedding>(config.word_vocab_size, config.word_dim, rng);
  if (config.pretrained_word_vectors != nullptr) {
    word_embedding_->LoadPretrained(*config.pretrained_word_vectors);
  }
  RegisterModule("word_embedding", word_embedding_.get());

  if (config.use_char_cnn) {
    nn::CharCnnConfig char_config;
    char_config.char_vocab_size = config.char_vocab_size;
    char_config.char_dim = config.char_dim;
    char_config.filter_widths = config.filter_widths;
    char_config.filters_per_width = config.filters_per_width;
    char_cnn_ = std::make_unique<nn::CharCnn>(char_config, rng);
    RegisterModule("char_cnn", char_cnn_.get());
  }

  if (config.encoder == EncoderKind::kBiGru) {
    encoder_ = std::make_unique<nn::BiRnn>(std::in_place_type<nn::GruCell>,
                                           token_input_dim(), config.hidden_dim, rng);
    RegisterModule("bigru", encoder_.get());
  } else {
    encoder_ = std::make_unique<nn::BiRnn>(std::in_place_type<nn::LstmCell>,
                                           token_input_dim(), config.hidden_dim, rng);
    RegisterModule("bilstm", encoder_.get());
  }

  if (config.conditioning == Conditioning::kFilm) {
    FEWNER_CHECK(config.context_dim > 0, "FiLM conditioning needs context_dim > 0");
    film_ = std::make_unique<nn::FilmGenerator>(config.context_dim,
                                                2 * config.hidden_dim, rng);
    RegisterModule("film", film_.get());
  }

  emission_ =
      std::make_unique<nn::Linear>(2 * config.hidden_dim, config.max_tags, rng);
  RegisterModule("emission", emission_.get());

  crf_ = std::make_unique<crf::LinearChainCrf>(config.max_tags);
  RegisterModule("crf", crf_.get());
}

void Backbone::ReseedDropout(uint64_t stream) {
  dropout_episode_ = dropout_base_.Fork(stream);
  dropout_call_ = 0;
}

std::vector<util::Rng> Backbone::ForkLaneRngs(size_t lanes) const {
  std::vector<util::Rng> rngs;
  // Lane streams exist only to make training-mode dropout masks reproducible
  // per (episode, call, lane); with dropout off, LaneDropout never draws from
  // them.  Returning unforked placeholders then keeps this path free of
  // writes to the shared Backbone, so concurrent eval-mode serving threads
  // never touch shared state (the tsan-labelled serving tests pin this).
  if (CanCachePrefix()) {
    rngs.resize(lanes);
    return rngs;
  }
  const uint64_t call = dropout_call_++;
  rngs.reserve(lanes);
  for (size_t b = 0; b < lanes; ++b) {
    rngs.push_back(dropout_episode_.Fork((call << 32) | static_cast<uint64_t>(b)));
  }
  return rngs;
}

int64_t Backbone::token_input_dim() const {
  int64_t dim = config_.word_dim;
  if (config_.use_char_cnn) {
    dim += static_cast<int64_t>(config_.filter_widths.size()) *
           config_.filters_per_width;
  }
  if (config_.conditioning == Conditioning::kConcat) dim += config_.context_dim;
  return dim;
}

Tensor Backbone::ZeroContext() const {
  if (config_.conditioning == Conditioning::kNone) return Tensor();
  return Tensor::Zeros(Shape{config_.context_dim}, /*requires_grad=*/true);
}

Tensor Backbone::LaneDropout(const Tensor& x, const EncodedBatch& batch,
                             util::Rng* lane_rngs) const {
  if (CanCachePrefix()) return x;
  const float p = config_.dropout;
  FEWNER_CHECK(p < 1.0f, "Dropout rate must be < 1");
  const float scale = 1.0f / (1.0f - p);
  const int64_t d = x.shape().dim(2);
  // One draw per real element of lane b, row-major over its [len, d] block;
  // padding rows get a 0 mask (dropped) without consuming draws, so the
  // sequence is the same at any padded width — and garbage padding
  // activations are zeroed for free.
  std::vector<float> mask(static_cast<size_t>(x.numel()), 0.0f);
  for (int64_t b = 0; b < batch.batch; ++b) {
    util::Rng* rng = lane_rngs + b;
    float* lane_mask = mask.data() + b * batch.max_len * d;
    const int64_t lane_elems = batch.lengths[static_cast<size_t>(b)] * d;
    for (int64_t i = 0; i < lane_elems; ++i) {
      lane_mask[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  }
  return tensor::Mul(x, Tensor::FromData(x.shape(), std::move(mask)));
}

Tensor Backbone::PrefixStage(const EncodedBatch& run, util::Rng* lane_rngs) const {
  const int64_t lanes = run.batch;
  const int64_t max_len = run.max_len;
  // One embedding gather + one CharCnn pass over all B*Lmax tokens.  Every op
  // here is per-row (GEMM rows are bitwise-independent under the ascending-k
  // kernel contract), so lane b's rows match a B=1 pass on its sentence.
  Tensor words = word_embedding_->Forward(run.word_ids);  // [B*L, word_dim]
  Tensor input = words;
  if (config_.use_char_cnn) {
    Tensor chars = char_cnn_->ForwardBatch(run.char_ids);  // [B*L, char_feat]
    input = tensor::Concat({words, chars}, 1);
  }
  Tensor input3 =
      tensor::Reshape(input, Shape{lanes, max_len, input.shape().dim(1)});
  input3 = LaneDropout(input3, run, lane_rngs);
  // Method A threads φ into the RNN input, so the recurrence is φ-dependent
  // and the prefix stops at the token features.  kFilm/kNone: φ enters after
  // the encoder (or never), so the full recurrent pass is θ-only.
  if (config_.conditioning == Conditioning::kConcat) return input3;
  return encoder_->ForwardBatch(input3, run.lengths);
}

Tensor Backbone::SuffixStage(const EncodedBatch& run, const Tensor& features,
                             const Tensor& phi, util::Rng* lane_rngs) const {
  const int64_t lanes = run.batch;
  const int64_t max_len = run.max_len;
  Tensor hidden3 = features;  // kNone: the suffix is emission + CRF only
  if (config_.conditioning == Conditioning::kConcat) {
    FEWNER_CHECK(phi.defined(), "kConcat conditioning requires a context vector");
    // Method A (paper Eq. 7): φ joins every token's input features.
    Tensor phi_rows = tensor::BroadcastTo(
        tensor::Reshape(phi, Shape{1, 1, config_.context_dim}),
        Shape{lanes, max_len, config_.context_dim});
    hidden3 = encoder_->ForwardBatch(tensor::Concat({features, phi_rows}, 2),
                                     run.lengths);
  } else if (config_.conditioning == Conditioning::kFilm) {
    FEWNER_CHECK(phi.defined(), "kFilm conditioning requires a context vector");
    // Method B (paper Eq. 8-9): modulate the BiGRU output so adapted hidden
    // states feed task-specific label dependencies into the CRF.  FiLM's γ/η
    // broadcast is per-row, so flattening lanes is exact.
    Tensor hidden2 = film_->Forward(
        tensor::Reshape(features, Shape{lanes * max_len, 2 * config_.hidden_dim}),
        phi);
    hidden3 =
        tensor::Reshape(hidden2, Shape{lanes, max_len, 2 * config_.hidden_dim});
  }
  return LaneDropout(hidden3, run, lane_rngs);
}

CachedPrefix Backbone::EncodeRuns(const EncodedBatch& batch,
                                  util::Rng* lane_rngs) const {
  FEWNER_CHECK(batch.batch > 0 && batch.max_len > 0, "forward on empty batch");
  CachedPrefix prefix;
  prefix.batch = batch.batch;
  prefix.max_len = batch.max_len;
  prefix.conditioning = config_.conditioning;
  // Length-bucketed execution: each near-homogeneous lane run gets its own
  // padded forward, so a ragged batch does not pay every lane at the longest
  // lane's length.  Lane values are identical under any partition.  A batch
  // that is one run is read in place; only a split batch is repacked.
  const std::vector<std::pair<int64_t, int64_t>> spans = LaneRuns(batch.lengths);
  if (spans.size() == 1) prefix.source = &batch;
  prefix.runs.resize(spans.size());
  for (size_t r = 0; r < spans.size(); ++r) {
    const auto [begin, count] = spans[r];
    if (prefix.source == nullptr) prefix.runs[r].batch = SubBatch(batch, begin, count);
    prefix.runs[r].features = PrefixStage(prefix.lanes(r), lane_rngs + begin);
  }
  return prefix;
}

std::vector<Tensor> Backbone::SuffixRuns(const CachedPrefix& prefix, const Tensor& phi,
                                         util::Rng* lane_rngs) const {
  std::vector<Tensor> hidden;
  hidden.reserve(prefix.runs.size());
  int64_t begin = 0;
  for (size_t r = 0; r < prefix.runs.size(); ++r) {
    const EncodedBatch& run = prefix.lanes(r);
    hidden.push_back(SuffixStage(run, prefix.runs[r].features, phi, lane_rngs + begin));
    begin += run.batch;
  }
  return hidden;
}

Tensor Backbone::Emissions(const EncodedBatch& run, const Tensor& hidden) const {
  Tensor emissions2 = emission_->Forward(tensor::Reshape(
      hidden, Shape{run.batch * run.max_len, 2 * config_.hidden_dim}));
  return tensor::Reshape(emissions2, Shape{run.batch, run.max_len, config_.max_tags});
}

Tensor Backbone::RunsLoss(const CachedPrefix& prefix, const std::vector<Tensor>& hidden,
                          const std::vector<bool>& valid_tags) const {
  std::vector<Tensor> per_run;
  per_run.reserve(hidden.size());
  for (size_t r = 0; r < hidden.size(); ++r) {
    const EncodedBatch& run = prefix.lanes(r);
    per_run.push_back(crf_->NegLogLikelihoodBatch(Emissions(run, hidden[r]), run.tags,
                                                  run.lengths, &valid_tags));
  }
  // Runs are contiguous and ascending, so the concatenated lane NLLs sit in
  // batch order; SumAllFloat folds them with left-associated scalar float
  // adds, so the total is bitwise-equal to summing one-sentence losses in
  // lane order (the per-sentence test oracle), not just to rounding.
  return tensor::SumAllFloat(tensor::Concat(per_run, 0));
}

std::vector<std::vector<int64_t>> Backbone::RunsDecode(
    const CachedPrefix& prefix, const std::vector<Tensor>& hidden,
    const std::vector<bool>& valid_tags) const {
  std::vector<std::vector<int64_t>> paths;
  paths.reserve(static_cast<size_t>(prefix.batch));
  for (size_t r = 0; r < hidden.size(); ++r) {
    const EncodedBatch& run = prefix.lanes(r);
    for (auto& path :
         crf_->ViterbiBatch(Emissions(run, hidden[r]), run.lengths, &valid_tags)) {
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

Tensor Backbone::TokenFeatures(const EncodedBatch& batch, const Tensor& phi) const {
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(batch.batch));
  const CachedPrefix prefix = EncodeRuns(batch, lane_rngs.data());
  const std::vector<Tensor> hidden = SuffixRuns(prefix, phi, lane_rngs.data());
  const int64_t width = 2 * config_.hidden_dim;
  std::vector<Tensor> per_run;
  per_run.reserve(hidden.size());
  for (size_t r = 0; r < hidden.size(); ++r) {
    const EncodedBatch& run = prefix.lanes(r);
    Tensor rows = tensor::Reshape(hidden[r], Shape{run.flat_size(), width});
    std::vector<int64_t> real;  // lane-major real-token rows
    for (int64_t b = 0; b < run.batch; ++b) {
      for (int64_t t = 0; t < run.lengths[static_cast<size_t>(b)]; ++t) {
        real.push_back(b * run.max_len + t);
      }
    }
    const bool padded = static_cast<int64_t>(real.size()) < run.flat_size();
    per_run.push_back(padded ? tensor::IndexSelectRows(rows, real) : rows);
  }
  return tensor::Concat(per_run, 0);
}

Tensor Backbone::BatchLoss(const EncodedBatch& batch, const Tensor& phi,
                           const std::vector<bool>& valid_tags) const {
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(batch.batch));
  const CachedPrefix prefix = EncodeRuns(batch, lane_rngs.data());
  return RunsLoss(prefix, SuffixRuns(prefix, phi, lane_rngs.data()), valid_tags);
}

std::vector<std::vector<int64_t>> Backbone::DecodeBatch(
    const EncodedBatch& batch, const Tensor& phi,
    const std::vector<bool>& valid_tags) const {
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(batch.batch));
  const CachedPrefix prefix = EncodeRuns(batch, lane_rngs.data());
  return RunsDecode(prefix, SuffixRuns(prefix, phi, lane_rngs.data()), valid_tags);
}

bool Backbone::CanCachePrefix() const {
  // The one "dropout is off" test: when it holds, LaneDropout is an identity
  // and ForkLaneRngs touches no shared RNG state, so the θ-head draws nothing
  // and reusing its output across calls is exactly what re-running it would
  // compute.
  return !training() || config_.dropout <= 0.0f;
}

uint64_t Backbone::ParameterVersion() const {
  // FNV-1a fold over every slot's (node id, mutation version), in slot order.
  // In-place optimizer steps bump the version, slot replacement (fresh leaf,
  // ParameterPatch) swaps the id — either way the fold changes.  Parameters()
  // is non-const because it exposes mutable slots; this walk only reads.
  uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (tensor::Tensor* slot : const_cast<Backbone*>(this)->Parameters()) {
    fold(slot->node()->id);
    fold(slot->node()->version);
  }
  return h;
}

void Backbone::CheckPrefix(const CachedPrefix& prefix) const {
  FEWNER_CHECK(prefix.defined(), "use of an undefined CachedPrefix");
  FEWNER_CHECK(prefix.conditioning == config_.conditioning,
               "CachedPrefix built for a different conditioning mode");
  FEWNER_CHECK(CanCachePrefix(),
               "CachedPrefix consumed in the training-dropout regime");
  FEWNER_CHECK(prefix.param_version == ParameterVersion(),
               "stale CachedPrefix: θ changed since EncodePrefix (optimizer "
               "step or parameter swap) — rebuild the prefix");
}

CachedPrefix Backbone::EncodePrefix(const EncodedBatch& batch) const {
  FEWNER_CHECK(CanCachePrefix(),
               "EncodePrefix in the training-dropout regime: per-step masks "
               "make a shared prefix incorrect; use the per-step forward");
  // The lane streams are placeholders here: CanCachePrefix() makes every
  // LaneDropout an identity.
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(batch.batch));
  CachedPrefix prefix = EncodeRuns(batch, lane_rngs.data());
  // The prefix outlives `batch`, so it owns its lanes.
  if (prefix.source != nullptr) prefix.runs[0].batch = batch;
  prefix.source = nullptr;
  prefix.param_version = ParameterVersion();
  return prefix;
}

Tensor Backbone::BatchLossFromPrefix(const CachedPrefix& prefix,
                                     const Tensor& phi,
                                     const std::vector<bool>& valid_tags) const {
  CheckPrefix(prefix);
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(prefix.batch));
  return RunsLoss(prefix, SuffixRuns(prefix, phi, lane_rngs.data()), valid_tags);
}

Tensor Backbone::EmissionsFromPrefix(const CachedPrefix& prefix,
                                     const Tensor& phi) const {
  CheckPrefix(prefix);
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(prefix.batch));
  const std::vector<Tensor> hidden = SuffixRuns(prefix, phi, lane_rngs.data());
  std::vector<Tensor> per_run;
  per_run.reserve(hidden.size());
  for (size_t r = 0; r < hidden.size(); ++r) {
    const EncodedBatch& run = prefix.lanes(r);
    Tensor em = Emissions(run, hidden[r]);
    if (run.max_len < prefix.max_len) {
      // Re-pad to the whole-batch Lmax; padding rows are zeros.
      em = tensor::Concat(
          {em, Tensor::Zeros(Shape{run.batch, prefix.max_len - run.max_len,
                                   config_.max_tags})},
          1);
    }
    per_run.push_back(em);
  }
  return tensor::Concat(per_run, 0);
}

std::vector<std::vector<int64_t>> Backbone::DecodeBatchFromPrefix(
    const CachedPrefix& prefix, const Tensor& phi,
    const std::vector<bool>& valid_tags) const {
  CheckPrefix(prefix);
  std::vector<util::Rng> lane_rngs = ForkLaneRngs(static_cast<size_t>(prefix.batch));
  return RunsDecode(prefix, SuffixRuns(prefix, phi, lane_rngs.data()), valid_tags);
}

}  // namespace fewner::models
