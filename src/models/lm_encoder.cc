#include "models/lm_encoder.h"

#include <algorithm>

#include "nn/init.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"

namespace fewner::models {

using tensor::Shape;
using tensor::Tensor;

std::string LmKindName(LmKind kind) {
  switch (kind) {
    case LmKind::kGpt2:
      return "GPT2";
    case LmKind::kFlair:
      return "Flair";
    case LmKind::kElmo:
      return "ELMo";
    case LmKind::kBert:
      return "BERT";
    case LmKind::kXlnet:
      return "XLNet";
  }
  return "?";
}

std::vector<LmKind> AllLmKinds() {
  return {LmKind::kGpt2, LmKind::kFlair, LmKind::kElmo, LmKind::kBert,
          LmKind::kXlnet};
}

PretrainedLmEncoder::PretrainedLmEncoder(LmKind kind, const LmConfig& config,
                                         const text::Vocab* word_vocab,
                                         const text::Vocab* char_vocab,
                                         util::Rng* rng)
    : kind_(kind),
      config_(config),
      word_vocab_(word_vocab),
      char_vocab_(char_vocab),
      mask_rng_(rng->Fork(0xBE27u)) {
  FEWNER_CHECK(word_vocab_ != nullptr && char_vocab_ != nullptr,
               "LM encoder requires vocabularies");
  const bool is_transformer =
      kind == LmKind::kGpt2 || kind == LmKind::kBert || kind == LmKind::kXlnet;

  if (kind != LmKind::kFlair) {
    word_embedding_ = std::make_unique<nn::Embedding>(word_vocab_->size(),
                                                      config.model_dim, rng);
    RegisterModule("word_embedding", word_embedding_.get());
  }

  if (is_transformer) {
    position_embedding_ = std::make_unique<nn::Embedding>(config.max_len,
                                                          config.model_dim, rng);
    RegisterModule("position_embedding", position_embedding_.get());
    const nn::AttentionMask mask = (kind == LmKind::kBert)
                                       ? nn::AttentionMask::kNone
                                       : nn::AttentionMask::kCausal;
    for (int64_t i = 0; i < config.num_layers; ++i) {
      blocks_.push_back(std::make_unique<nn::TransformerBlock>(
          config.model_dim, config.ffn_dim, mask, rng));
      RegisterModule("block" + std::to_string(i), blocks_.back().get());
    }
    if (kind == LmKind::kXlnet) {
      for (int64_t i = 0; i < config.num_layers; ++i) {
        blocks_rev_.push_back(std::make_unique<nn::TransformerBlock>(
            config.model_dim, config.ffn_dim, nn::AttentionMask::kCausal, rng));
        RegisterModule("block_rev" + std::to_string(i), blocks_rev_.back().get());
      }
    }
    vocab_head_ = std::make_unique<nn::Linear>(config.model_dim, word_vocab_->size(),
                                               rng);
    RegisterModule("vocab_head", vocab_head_.get());
    if (kind == LmKind::kBert) {
      mask_embedding_ = nn::GaussianInit(Shape{1, config.model_dim}, 0.1f, rng);
      RegisterParameter("mask_embedding", &mask_embedding_);
    }
  } else if (kind == LmKind::kElmo) {
    gru_ = std::make_unique<nn::BiRnn>(std::in_place_type<nn::GruCell>,
                                         config.model_dim, config.gru_hidden, rng);
    RegisterModule("gru", gru_.get());
    vocab_head_ = std::make_unique<nn::Linear>(config.gru_hidden,
                                               word_vocab_->size(), rng);
    RegisterModule("vocab_head", vocab_head_.get());
  } else {  // kFlair
    char_embedding_ = std::make_unique<nn::Embedding>(char_vocab_->size(),
                                                      config.char_dim, rng);
    gru_ = std::make_unique<nn::BiRnn>(std::in_place_type<nn::GruCell>,
                                         config.char_dim, config.gru_hidden, rng);
    char_head_ = std::make_unique<nn::Linear>(config.gru_hidden, char_vocab_->size(),
                                              rng);
    RegisterModule("char_embedding", char_embedding_.get());
    RegisterModule("gru", gru_.get());
    RegisterModule("char_head", char_head_.get());
  }
}

int64_t PretrainedLmEncoder::feature_dim() const {
  switch (kind_) {
    case LmKind::kGpt2:
    case LmKind::kBert:
    case LmKind::kXlnet:
      return config_.model_dim;
    case LmKind::kElmo:
    case LmKind::kFlair:
      return 2 * config_.gru_hidden;
  }
  return config_.model_dim;
}

namespace {

/// Flair's character stream of a sentence: each word's characters (one
/// <pad> for an empty word) followed by a <pad> separator, with the stream
/// positions of every word's first and last character.
struct CharStream {
  std::vector<int64_t> ids;
  std::vector<int64_t> word_start;
  std::vector<int64_t> word_end;
};

CharStream BuildCharStream(const EncodedSentence& sentence) {
  CharStream stream;
  for (const auto& chars : sentence.char_ids) {
    stream.word_start.push_back(static_cast<int64_t>(stream.ids.size()));
    stream.ids.insert(stream.ids.end(), chars.begin(), chars.end());
    if (chars.empty()) stream.ids.push_back(text::kPadId);
    stream.word_end.push_back(static_cast<int64_t>(stream.ids.size()) - 1);
    stream.ids.push_back(text::kPadId);  // separator
  }
  return stream;
}

std::vector<int64_t> ReversedIndices(int64_t length) {
  std::vector<int64_t> idx(static_cast<size_t>(length));
  for (int64_t i = 0; i < length; ++i) idx[static_cast<size_t>(i)] = length - 1 - i;
  return idx;
}

}  // namespace

Tensor PretrainedLmEncoder::TransformerFeatures(
    const std::vector<int64_t>& word_ids,
    const std::vector<nn::TransformerBlock*>& blocks, bool reverse) const {
  std::vector<int64_t> ids = word_ids;
  if (reverse) std::reverse(ids.begin(), ids.end());
  const int64_t length = static_cast<int64_t>(ids.size());
  FEWNER_CHECK(length <= config_.max_len,
               "sentence of " << length << " tokens exceeds LM max_len "
                              << config_.max_len);
  std::vector<int64_t> positions(static_cast<size_t>(length));
  for (int64_t i = 0; i < length; ++i) positions[static_cast<size_t>(i)] = i;
  Tensor x = tensor::Add(word_embedding_->Forward(ids),
                         position_embedding_->Forward(positions));
  for (nn::TransformerBlock* block : blocks) x = block->Forward(x);
  if (reverse) x = tensor::IndexSelectRows(x, ReversedIndices(length));
  return x;
}

Tensor PretrainedLmEncoder::CrossEntropy(const Tensor& logits,
                                         const std::vector<int64_t>& targets,
                                         const std::vector<bool>* predict_mask) const {
  const int64_t length = logits.shape().dim(0);
  const int64_t vocab = logits.shape().dim(1);
  FEWNER_CHECK(static_cast<int64_t>(targets.size()) == length,
               "CrossEntropy target length mismatch");
  Tensor logp = tensor::LogSoftmaxLastDim(logits);
  std::vector<float> select(static_cast<size_t>(length * vocab), 0.0f);
  int64_t predicted = 0;
  for (int64_t t = 0; t < length; ++t) {
    if (predict_mask != nullptr && !(*predict_mask)[static_cast<size_t>(t)]) continue;
    select[static_cast<size_t>(t * vocab + targets[static_cast<size_t>(t)])] = 1.0f;
    ++predicted;
  }
  FEWNER_CHECK(predicted > 0, "CrossEntropy with no predicted positions");
  Tensor gold = tensor::SumAll(
      tensor::Mul(logp, Tensor::FromData(logits.shape(), std::move(select))));
  return tensor::MulScalar(tensor::Neg(gold), 1.0f / static_cast<float>(predicted));
}

Tensor PretrainedLmEncoder::GruStates(const Tensor& embedded) const {
  // A B=1 batch of the shared BiGRU: forward states in columns [0, H),
  // backward states in [H, 2H), both in textual order.
  const int64_t length = embedded.shape().dim(0);
  Tensor states = gru_->ForwardBatch(
      tensor::Reshape(embedded, Shape{1, length, embedded.shape().dim(1)}), {length});
  return tensor::Reshape(states, Shape{length, gru_->output_dim()});
}

Tensor PretrainedLmEncoder::BidirectionalLoss(const Tensor& states,
                                              const std::vector<int64_t>& ids,
                                              const nn::Linear& head) const {
  const int64_t length = static_cast<int64_t>(ids.size());
  const int64_t hidden = config_.gru_hidden;
  Tensor fwd = tensor::Slice(tensor::Slice(states, 1, 0, hidden), 0, 0, length - 1);
  Tensor bwd =
      tensor::Slice(tensor::Slice(states, 1, hidden, hidden), 0, 1, length - 1);
  const std::vector<int64_t> next(ids.begin() + 1, ids.end());
  const std::vector<int64_t> prev(ids.begin(), ids.end() - 1);
  Tensor loss_f = CrossEntropy(head.Forward(fwd), next, nullptr);
  Tensor loss_b = CrossEntropy(head.Forward(bwd), prev, nullptr);
  return tensor::MulScalar(tensor::Add(loss_f, loss_b), 0.5f);
}

Tensor PretrainedLmEncoder::Encode(const EncodedSentence& sentence) const {
  const int64_t length = sentence.length();
  FEWNER_CHECK(length > 0, "Encode on empty sentence");
  switch (kind_) {
    case LmKind::kGpt2:
    case LmKind::kBert: {
      std::vector<nn::TransformerBlock*> blocks;
      for (const auto& b : blocks_) blocks.push_back(b.get());
      return TransformerFeatures(sentence.word_ids, blocks, /*reverse=*/false);
    }
    case LmKind::kXlnet: {
      std::vector<nn::TransformerBlock*> fwd, rev;
      for (const auto& b : blocks_) fwd.push_back(b.get());
      for (const auto& b : blocks_rev_) rev.push_back(b.get());
      Tensor a = TransformerFeatures(sentence.word_ids, fwd, false);
      Tensor b = TransformerFeatures(sentence.word_ids, rev, true);
      return tensor::MulScalar(tensor::Add(a, b), 0.5f);
    }
    case LmKind::kElmo:
      return GruStates(word_embedding_->Forward(sentence.word_ids));
    case LmKind::kFlair: {
      // Word features are forward states at word ends + backward states at
      // word starts.
      const CharStream stream = BuildCharStream(sentence);
      Tensor states = GruStates(char_embedding_->Forward(stream.ids));
      const int64_t hidden = config_.gru_hidden;
      return tensor::Concat(
          {tensor::IndexSelectRows(tensor::Slice(states, 1, 0, hidden), stream.word_end),
           tensor::IndexSelectRows(tensor::Slice(states, 1, hidden, hidden),
                                   stream.word_start)},
          1);
    }
  }
  FEWNER_CHECK(false, "unreachable");
  return Tensor();
}

Tensor PretrainedLmEncoder::LmLoss(const EncodedSentence& sentence) const {
  const int64_t length = sentence.length();
  FEWNER_CHECK(length >= 2, "LM loss needs at least two tokens");
  switch (kind_) {
    case LmKind::kGpt2: {
      std::vector<nn::TransformerBlock*> blocks;
      for (const auto& b : blocks_) blocks.push_back(b.get());
      Tensor features = TransformerFeatures(sentence.word_ids, blocks, false);
      Tensor context = tensor::Slice(features, 0, 0, length - 1);
      std::vector<int64_t> targets(sentence.word_ids.begin() + 1,
                                   sentence.word_ids.end());
      return CrossEntropy(vocab_head_->Forward(context), targets, nullptr);
    }
    case LmKind::kXlnet: {
      std::vector<nn::TransformerBlock*> fwd, rev;
      for (const auto& b : blocks_) fwd.push_back(b.get());
      for (const auto& b : blocks_rev_) rev.push_back(b.get());
      Tensor f = TransformerFeatures(sentence.word_ids, fwd, false);
      Tensor next_ctx = tensor::Slice(f, 0, 0, length - 1);
      std::vector<int64_t> next(sentence.word_ids.begin() + 1,
                                sentence.word_ids.end());
      Tensor loss_f = CrossEntropy(vocab_head_->Forward(next_ctx), next, nullptr);
      Tensor r = TransformerFeatures(sentence.word_ids, rev, true);
      Tensor prev_ctx = tensor::Slice(r, 0, 1, length - 1);
      std::vector<int64_t> prev(sentence.word_ids.begin(),
                                sentence.word_ids.end() - 1);
      Tensor loss_r = CrossEntropy(vocab_head_->Forward(prev_ctx), prev, nullptr);
      return tensor::MulScalar(tensor::Add(loss_f, loss_r), 0.5f);
    }
    case LmKind::kBert: {
      // Mask ~15% of tokens (at least one) and predict them bidirectionally.
      std::vector<bool> masked(static_cast<size_t>(length), false);
      int64_t count = 0;
      for (int64_t t = 0; t < length; ++t) {
        if (mask_rng_.Bernoulli(0.15)) {
          masked[static_cast<size_t>(t)] = true;
          ++count;
        }
      }
      if (count == 0) {
        masked[mask_rng_.UniformInt(static_cast<uint64_t>(length))] = true;
      }
      std::vector<int64_t> positions(static_cast<size_t>(length));
      for (int64_t i = 0; i < length; ++i) positions[static_cast<size_t>(i)] = i;
      Tensor embedded = word_embedding_->Forward(sentence.word_ids);
      std::vector<float> keep(static_cast<size_t>(length), 1.0f);
      std::vector<float> use_mask(static_cast<size_t>(length), 0.0f);
      for (int64_t t = 0; t < length; ++t) {
        if (masked[static_cast<size_t>(t)]) {
          keep[static_cast<size_t>(t)] = 0.0f;
          use_mask[static_cast<size_t>(t)] = 1.0f;
        }
      }
      Tensor keep_col = Tensor::FromData(Shape{length, 1}, std::move(keep));
      Tensor mask_col = Tensor::FromData(Shape{length, 1}, std::move(use_mask));
      Tensor x = tensor::Add(
          tensor::Add(tensor::Mul(embedded, keep_col),
                      tensor::Mul(tensor::BroadcastTo(mask_embedding_,
                                                      Shape{length,
                                                            config_.model_dim}),
                                  mask_col)),
          position_embedding_->Forward(positions));
      for (const auto& block : blocks_) x = block->Forward(x);
      return CrossEntropy(vocab_head_->Forward(x), sentence.word_ids, &masked);
    }
    case LmKind::kElmo:
      return BidirectionalLoss(GruStates(word_embedding_->Forward(sentence.word_ids)),
                               sentence.word_ids, *vocab_head_);
    case LmKind::kFlair: {
      const CharStream stream = BuildCharStream(sentence);
      return BidirectionalLoss(GruStates(char_embedding_->Forward(stream.ids)),
                               stream.ids, *char_head_);
    }
  }
  FEWNER_CHECK(false, "unreachable");
  return Tensor();
}

void PretrainedLmEncoder::Pretrain(const std::vector<EncodedSentence>& sentences,
                                   int64_t steps, float lr, util::Rng* rng) {
  FEWNER_CHECK(!sentences.empty(), "Pretrain on empty corpus");
  SetTraining(true);
  nn::Adam optimizer(Parameters(), lr);
  for (int64_t step = 0; step < steps; ++step) {
    const EncodedSentence& sentence = sentences[rng->UniformInt(sentences.size())];
    if (sentence.length() < 2) continue;
    Tensor loss = LmLoss(sentence);
    std::vector<Tensor> params = nn::ParameterTensors(this);
    std::vector<Tensor> grads = tensor::autodiff::Grad(loss, params);
    nn::ClipGradNorm(&grads, 5.0f);
    optimizer.Step(grads);
  }
  SetTraining(false);  // frozen from here on
}

}  // namespace fewner::models
