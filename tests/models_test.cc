// Tests for the models layer: episode encoding, the CNN-BiGRU-CRF backbone
// (shapes, conditioning modes, trainability), and the LM encoders.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "models/lm_encoder.h"
#include "nn/optim.h"
#include "tensor/autodiff.h"
#include "tensor/ops.h"
#include "text/bio.h"

namespace fewner::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::Sentence MakeSentence() {
  data::Sentence sentence;
  sentence.tokens = {"Dr.", "Breampro", "visited", "Granville", "today"};
  sentence.entities = {{1, 2, "PER"}, {3, 4, "LOC"}};
  return sentence;
}

class EncodingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    builder.AddSentence(MakeSentence().tokens);
    builder.AddSentence({"unrelated", "words"});
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
  }
  text::Vocab words_;
  text::Vocab chars_;
};

TEST_F(EncodingTest, EncodesWordsCharsAndTags) {
  EpisodeEncoder encoder(&words_, &chars_, text::NumTags(5));
  data::Sentence sentence = MakeSentence();
  EncodedSentence encoded = encoder.EncodeSentence(sentence, {"LOC", "PER"});
  EXPECT_EQ(encoded.length(), 5);
  EXPECT_EQ(encoded.word_ids.size(), 5u);
  EXPECT_EQ(encoded.char_ids[0].size(), 3u);  // "Dr."
  // PER is slot 1, LOC is slot 0.
  EXPECT_EQ(encoded.tags[1], text::BeginTag(1));
  EXPECT_EQ(encoded.tags[3], text::BeginTag(0));
  EXPECT_EQ(encoded.tags[0], text::kOutsideTag);
  EXPECT_EQ(encoded.source, &sentence);
}

TEST_F(EncodingTest, UnknownWordsMapToUnk) {
  EpisodeEncoder encoder(&words_, &chars_, text::NumTags(5));
  data::Sentence sentence;
  sentence.tokens = {"Zyzzyva"};
  EncodedSentence encoded = encoder.EncodeSentence(sentence, {});
  EXPECT_EQ(encoded.word_ids[0], text::kUnkId);
  // Characters present in the vocab still resolve (e.g. 'v' from "visited").
  EXPECT_NE(encoded.char_ids[0][4], text::kUnkId);
}

/// Emissions [L, max_tags] of one sentence: a B=1 cached prefix, then the
/// φ suffix.
Tensor SentenceEmissions(const Backbone& net, const EncodedSentence& sentence,
                         const Tensor& phi) {
  return tensor::Reshape(
      net.EmissionsFromPrefix(net.EncodePrefix(PackBatch({sentence})), phi),
      Shape{sentence.length(), net.config().max_tags});
}

class BackboneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    builder.AddSentence(MakeSentence().tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
    config_.word_vocab_size = words_.size();
    config_.char_vocab_size = chars_.size();
    config_.word_dim = 8;
    config_.char_dim = 6;
    config_.filters_per_width = 3;
    config_.hidden_dim = 8;
    config_.max_tags = text::NumTags(5);
    config_.context_dim = 6;
    config_.dropout = 0.0f;
    encoder_ = std::make_unique<EpisodeEncoder>(&words_, &chars_, config_.max_tags);
    encoded_ = encoder_->EncodeSentence(MakeSentence(), {"PER", "LOC"});
    valid_ = text::ValidTagMask(5, config_.max_tags);
  }

  text::Vocab words_, chars_;
  BackboneConfig config_;
  std::unique_ptr<EpisodeEncoder> encoder_;
  EncodedSentence encoded_;
  std::vector<bool> valid_;
};

TEST_F(BackboneTest, EmissionShapes) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  Tensor phi = backbone.ZeroContext();
  Tensor emissions = SentenceEmissions(backbone, encoded_, phi);
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, ConditioningModesAffectInputDim) {
  util::Rng rng(1);
  config_.conditioning = Conditioning::kFilm;
  Backbone film(config_, &rng);
  config_.conditioning = Conditioning::kConcat;
  Backbone concat(config_, &rng);
  EXPECT_EQ(concat.token_input_dim(), film.token_input_dim() + config_.context_dim);
  config_.conditioning = Conditioning::kNone;
  config_.context_dim = 0;
  Backbone none(config_, &rng);
  EXPECT_FALSE(none.ZeroContext().defined());
  Tensor emissions = SentenceEmissions(none, encoded_, Tensor());
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, ContextChangesEmissionsUnderFilm) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);
  Tensor e0 = SentenceEmissions(backbone, encoded_, Tensor::Zeros(Shape{6}, true));
  Tensor e1 = SentenceEmissions(backbone, encoded_, Tensor::Ones(Shape{6}, true));
  double delta = 0;
  for (int64_t i = 0; i < e0.numel(); ++i) delta += std::abs(e0.at(i) - e1.at(i));
  EXPECT_GT(delta, 1e-4);
}

TEST_F(BackboneTest, GradFlowsToContextAndTheta) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  Tensor phi = backbone.ZeroContext();
  Tensor loss = backbone.BatchLoss(PackBatch({encoded_}), phi, valid_);
  EXPECT_GE(loss.item(), -1e-3);
  auto phi_grads = tensor::autodiff::Grad(loss, {phi});
  double norm = 0;
  for (float v : phi_grads[0].data()) norm += std::abs(v);
  EXPECT_GT(norm, 1e-8);
  auto theta_grads =
      tensor::autodiff::Grad(loss, nn::ParameterTensors(&backbone));
  EXPECT_EQ(theta_grads.size(), backbone.Parameters().size());
}

TEST_F(BackboneTest, NoCharCnnAblation) {
  util::Rng rng(1);
  config_.use_char_cnn = false;
  Backbone backbone(config_, &rng);
  EXPECT_EQ(backbone.token_input_dim(), config_.word_dim);
  Tensor emissions = SentenceEmissions(backbone, encoded_, backbone.ZeroContext());
  EXPECT_EQ(emissions.shape(), (Shape{5, config_.max_tags}));
}

TEST_F(BackboneTest, DecodeRespectsValidMask) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);
  std::vector<bool> narrow = text::ValidTagMask(2, config_.max_tags);
  auto tags =
      backbone.DecodeBatch(PackBatch({encoded_}), backbone.ZeroContext(), narrow)
          .front();
  EXPECT_EQ(tags.size(), 5u);
  for (int64_t tag : tags) EXPECT_LT(tag, text::NumTags(2));
}

TEST_F(BackboneTest, TrainingReducesLossOnFixedSentence) {
  util::Rng rng(1);
  Backbone backbone(config_, &rng);
  backbone.SetTraining(false);  // keep dropout off for determinism
  Tensor phi = backbone.ZeroContext();
  const float initial = backbone.BatchLoss(PackBatch({encoded_}), phi, valid_).item();
  nn::Adam adam(backbone.Parameters(), 0.02f);
  for (int step = 0; step < 25; ++step) {
    Tensor loss =
        backbone.BatchLoss(PackBatch({encoded_}), backbone.ZeroContext(), valid_);
    adam.Step(tensor::autodiff::Grad(loss, nn::ParameterTensors(&backbone)));
  }
  const float final_loss =
      backbone.BatchLoss(PackBatch({encoded_}), backbone.ZeroContext(), valid_).item();
  EXPECT_LT(final_loss, initial * 0.5f);
}

TEST_F(BackboneTest, PretrainedVectorsAreLoaded) {
  util::Rng rng(1);
  std::vector<std::vector<float>> table(
      static_cast<size_t>(words_.size()),
      std::vector<float>(static_cast<size_t>(config_.word_dim), 0.25f));
  config_.pretrained_word_vectors = &table;
  Backbone backbone(config_, &rng);
  EXPECT_FLOAT_EQ(backbone.word_embedding()->Parameters()[0]->at(0), 0.25f);
}

class LmEncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::VocabBuilder builder;
    corpus_ = data::GenerateUnlabeledText(40, 5);
    for (const auto& tokens : corpus_) builder.AddSentence(tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();
    encoder_ = std::make_unique<EpisodeEncoder>(&words_, &chars_, 3);
    for (const auto& tokens : corpus_) {
      data::Sentence sentence;
      sentence.tokens = tokens;
      sentences_.push_back(sentence);
    }
    for (const auto& sentence : sentences_) {
      encoded_.push_back(encoder_->EncodeSentence(sentence, {}));
    }
  }

  LmConfig SmallLmConfig() {
    LmConfig config;
    config.model_dim = 12;
    config.num_layers = 1;
    config.ffn_dim = 16;
    config.gru_hidden = 8;
    config.char_dim = 8;
    return config;
  }

  std::vector<std::vector<std::string>> corpus_;
  std::vector<data::Sentence> sentences_;
  std::vector<EncodedSentence> encoded_;
  text::Vocab words_, chars_;
  std::unique_ptr<EpisodeEncoder> encoder_;
};

TEST_F(LmEncoderTest, AllKindsEncodeWithDeclaredDims) {
  for (LmKind kind : AllLmKinds()) {
    util::Rng rng(3);
    PretrainedLmEncoder lm(kind, SmallLmConfig(), &words_, &chars_, &rng);
    Tensor features = lm.Encode(encoded_[0]);
    EXPECT_EQ(features.shape().dim(0), encoded_[0].length())
        << LmKindName(kind);
    EXPECT_EQ(features.shape().dim(1), lm.feature_dim()) << LmKindName(kind);
  }
}

TEST_F(LmEncoderTest, LmLossIsFiniteAndPositive) {
  for (LmKind kind : AllLmKinds()) {
    util::Rng rng(3);
    PretrainedLmEncoder lm(kind, SmallLmConfig(), &words_, &chars_, &rng);
    const float loss = lm.LmLoss(encoded_[0]).item();
    EXPECT_TRUE(std::isfinite(loss)) << LmKindName(kind);
    EXPECT_GT(loss, 0.0f) << LmKindName(kind);
  }
}

TEST_F(LmEncoderTest, PretrainingReducesLmLoss) {
  // GPT2-style encoder: average LM loss over a fixed probe set must drop.
  util::Rng rng(7);
  PretrainedLmEncoder lm(LmKind::kGpt2, SmallLmConfig(), &words_, &chars_, &rng);
  auto probe_loss = [&]() {
    double total = 0;
    for (int i = 0; i < 5; ++i) total += lm.LmLoss(encoded_[static_cast<size_t>(i)]).item();
    return total / 5;
  };
  const double before = probe_loss();
  util::Rng pretrain_rng(11);
  lm.Pretrain(encoded_, /*steps=*/60, /*lr=*/5e-3f, &pretrain_rng);
  EXPECT_LT(probe_loss(), before);
}

TEST_F(LmEncoderTest, PretrainingTrainsBothFlairDirections) {
  // Flair reads backward character states at word starts, so pre-training
  // must move the backward GRU's parameters as well as the forward ones.
  util::Rng rng(7);
  PretrainedLmEncoder lm(LmKind::kFlair, SmallLmConfig(), &words_, &chars_, &rng);
  std::vector<std::pair<std::string, std::vector<float>>> before;
  for (const auto& [name, slot] : lm.NamedParameters()) {
    if (name.find("backward") != std::string::npos) {
      before.emplace_back(name, slot->data());
    }
  }
  ASSERT_FALSE(before.empty());
  util::Rng pretrain_rng(11);
  lm.Pretrain(encoded_, /*steps=*/10, /*lr=*/5e-3f, &pretrain_rng);
  size_t i = 0;
  for (const auto& [name, slot] : lm.NamedParameters()) {
    if (name.find("backward") == std::string::npos) continue;
    EXPECT_NE(slot->data(), before[i++].second) << name << " never trained";
  }
}

TEST_F(LmEncoderTest, NamesMatchPaper) {
  EXPECT_EQ(LmKindName(LmKind::kGpt2), "GPT2");
  EXPECT_EQ(LmKindName(LmKind::kFlair), "Flair");
  EXPECT_EQ(LmKindName(LmKind::kElmo), "ELMo");
  EXPECT_EQ(LmKindName(LmKind::kBert), "BERT");
  EXPECT_EQ(LmKindName(LmKind::kXlnet), "XLNet");
  EXPECT_EQ(AllLmKinds().size(), 5u);
}

TEST_F(LmEncoderTest, GptFeaturesAreCausal) {
  util::Rng rng(9);
  PretrainedLmEncoder lm(LmKind::kGpt2, SmallLmConfig(), &words_, &chars_, &rng);
  EncodedSentence a = encoded_[0];
  EncodedSentence b = a;
  ASSERT_GE(b.word_ids.size(), 3u);
  b.word_ids.back() = (b.word_ids.back() + 1) % words_.size();
  Tensor fa = lm.Encode(a);
  Tensor fb = lm.Encode(b);
  for (int64_t j = 0; j < fa.shape().dim(1); ++j) {
    EXPECT_FLOAT_EQ(fa.at(j), fb.at(j)) << "feature " << j;
  }
}

TEST_F(LmEncoderTest, BertFeaturesAreBidirectional) {
  util::Rng rng(9);
  PretrainedLmEncoder lm(LmKind::kBert, SmallLmConfig(), &words_, &chars_, &rng);
  EncodedSentence a = encoded_[0];
  EncodedSentence b = a;
  b.word_ids.back() = (b.word_ids.back() + 1) % words_.size();
  Tensor fa = lm.Encode(a);
  Tensor fb = lm.Encode(b);
  double delta = 0;
  for (int64_t j = 0; j < fa.shape().dim(1); ++j) delta += std::abs(fa.at(j) - fb.at(j));
  EXPECT_GT(delta, 1e-7);
}

std::vector<std::string> ParameterNames(nn::Module* module) {
  std::vector<std::string> names;
  for (const auto& [name, slot] : module->NamedParameters()) names.push_back(name);
  return names;
}

// Checkpoints store parameter names and loading verifies them
// (nn/serialization.h), so renaming a slot orphans every checkpoint written
// before the rename.  A save/load round trip within one build cannot see that;
// these literal lists can.
TEST(ParameterNamesTest, BackboneAndRecurrentLmNamesAreStable) {
  text::VocabBuilder builder;
  for (const auto& tokens : data::GenerateUnlabeledText(5, 5)) {
    builder.AddSentence(tokens);
  }
  const text::Vocab words = builder.BuildWordVocab();
  const text::Vocab chars = builder.BuildCharVocab();

  BackboneConfig config;
  config.word_vocab_size = words.size();
  config.char_vocab_size = chars.size();
  config.hidden_dim = 4;
  util::Rng rng(1);
  Backbone gru(config, &rng);
  EXPECT_EQ(ParameterNames(&gru),
            (std::vector<std::string>{
                "word_embedding.table", "char_cnn.char_embedding.table",
                "char_cnn.filter_w2.weight", "char_cnn.filter_w2.bias",
                "char_cnn.filter_w3.weight", "char_cnn.filter_w3.bias",
                "char_cnn.filter_w4.weight", "char_cnn.filter_w4.bias",
                "bigru.forward.w_ih", "bigru.forward.w_hh", "bigru.forward.b_ih",
                "bigru.forward.b_hh", "bigru.backward.w_ih", "bigru.backward.w_hh",
                "bigru.backward.b_ih", "bigru.backward.b_hh", "film.weight",
                "film.bias", "emission.weight", "emission.bias", "crf.transitions",
                "crf.start", "crf.end"}));

  config.encoder = EncoderKind::kBiLstm;
  Backbone lstm(config, &rng);
  EXPECT_EQ(ParameterNames(&lstm),
            (std::vector<std::string>{
                "word_embedding.table", "char_cnn.char_embedding.table",
                "char_cnn.filter_w2.weight", "char_cnn.filter_w2.bias",
                "char_cnn.filter_w3.weight", "char_cnn.filter_w3.bias",
                "char_cnn.filter_w4.weight", "char_cnn.filter_w4.bias",
                "bilstm.forward.w_ih", "bilstm.forward.w_hh", "bilstm.forward.bias",
                "bilstm.backward.w_ih", "bilstm.backward.w_hh",
                "bilstm.backward.bias", "film.weight", "film.bias",
                "emission.weight", "emission.bias", "crf.transitions", "crf.start",
                "crf.end"}));

  LmConfig lm_config;
  lm_config.model_dim = 4;
  lm_config.gru_hidden = 4;
  lm_config.char_dim = 4;
  PretrainedLmEncoder elmo(LmKind::kElmo, lm_config, &words, &chars, &rng);
  EXPECT_EQ(ParameterNames(&elmo),
            (std::vector<std::string>{
                "word_embedding.table", "gru.forward.w_ih", "gru.forward.w_hh",
                "gru.forward.b_ih", "gru.forward.b_hh", "gru.backward.w_ih",
                "gru.backward.w_hh", "gru.backward.b_ih", "gru.backward.b_hh",
                "vocab_head.weight", "vocab_head.bias"}));
  PretrainedLmEncoder flair(LmKind::kFlair, lm_config, &words, &chars, &rng);
  EXPECT_EQ(ParameterNames(&flair),
            (std::vector<std::string>{
                "char_embedding.table", "gru.forward.w_ih", "gru.forward.w_hh",
                "gru.forward.b_ih", "gru.forward.b_hh", "gru.backward.w_ih",
                "gru.backward.w_hh", "gru.backward.b_ih", "gru.backward.b_hh",
                "char_head.weight", "char_head.bias"}));
}

}  // namespace
}  // namespace fewner::models
