// Checked-in output goldens: FNV-1a hashes of the bit patterns the library
// produces on small fixed inputs.  The parity suites pin one path against
// another (batched vs. per-sentence, cached vs. uncached, 1 vs. N threads);
// these literals pin the values themselves, so a refactor that moves both
// sides of a parity pair by the same ULP still fails here.
//
// Every literal below depends on libm.  The backbone literals (loss,
// gradients, features and tags here; θ, φ* and tags in GoldenMetaTest) pass
// through the GRU gates (sigmoid's exp, tanh) and the CRF's log-sum-exp (exp,
// log).  The LM-CRF head literal passes through the transformer's softmax
// (exp) and the CRF (exp, log), but no tanh.  A libm that rounds one of
// these differently moves the float hashes; a tag hash moves only if a score
// crosses a tie.  The literals are the values of the reference build (g++,
// -ffp-contract=off, glibc libm) on x86-64; they hold for the portable,
// x86-64-v3 and sanitizer builds alike.  A change that moves any of them
// moves output bits: update the literal and say so in the change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "meta/adapted_tagger.h"
#include "meta/fewner.h"
#include "meta/lm_tagger.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "models/lm_encoder.h"
#include "nn/module.h"
#include "tensor/autodiff.h"
#include "tensor/eval_mode.h"
#include "text/bio.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace fewner {
namespace {

using tensor::Tensor;

/// 64-bit FNV-1a over the bytes of every value added, in order.
class Fnv1a {
 public:
  void Add(const std::vector<float>& values) {
    for (float v : values) {
      uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      Fold(bits, 4);
    }
  }
  void Add(const Tensor& t) { Add(t.data()); }
  void Add(const std::vector<std::vector<float>>& slots) {
    for (const auto& slot : slots) Add(slot);
  }
  void Add(const std::vector<std::vector<int64_t>>& paths) {
    for (const auto& path : paths) {
      Fold(path.size(), 8);
      for (int64_t tag : path) Fold(static_cast<uint64_t>(tag), 8);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  void Fold(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// `hash` as 0x-prefixed hex, so a failing check prints the new literal.
std::string Hex(uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

template <typename T>
std::string Hash(const T& value) {
  Fnv1a h;
  h.Add(value);
  return Hex(h.value());
}

constexpr int64_t kWordVocab = 40;
constexpr int64_t kCharVocab = 20;

models::BackboneConfig SmallConfig(models::Conditioning conditioning) {
  models::BackboneConfig config;
  config.word_vocab_size = kWordVocab;
  config.char_vocab_size = kCharVocab;
  config.word_dim = 8;
  config.char_dim = 5;
  config.filters_per_width = 3;
  config.hidden_dim = 6;
  config.max_tags = text::NumTags(3);
  config.context_dim = 5;
  config.conditioning = conditioning;
  config.dropout = 0.3f;
  return config;
}

/// Lanes of lengths 2, 3, 4, 8, 9, 20: three LaneRuns ({2, 3, 4}, {8, 9},
/// {20}), so every multi-run path is exercised.
models::EncodedBatch RaggedBatch() {
  util::Rng rng(11);
  std::vector<models::EncodedSentence> sentences;
  for (int64_t length : {2, 3, 4, 8, 9, 20}) {
    models::EncodedSentence s;
    for (int64_t t = 0; t < length; ++t) {
      s.word_ids.push_back(static_cast<int64_t>(rng.UniformInt(kWordVocab)));
      std::vector<int64_t> chars;
      const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(6));
      for (int64_t c = 0; c < n; ++c) {
        chars.push_back(static_cast<int64_t>(rng.UniformInt(kCharVocab)));
      }
      s.char_ids.push_back(std::move(chars));
      // Tags in 0..4: O and the B/I tags of slots 0 and 1.
      s.tags.push_back(static_cast<int64_t>(rng.UniformInt(5)));
    }
    sentences.push_back(std::move(s));
  }
  return models::PackBatch(sentences);
}

struct BackboneGoldens {
  const char* loss;
  const char* grads;
  const char* features;
  const char* tags;
};

void CheckBackbone(models::Conditioning conditioning, const BackboneGoldens& expected) {
  util::Rng rng(5);
  models::Backbone net(SmallConfig(conditioning), &rng);
  const models::EncodedBatch batch = RaggedBatch();
  const std::vector<bool> valid = text::ValidTagMask(2, net.config().max_tags);
  Tensor phi = net.ZeroContext();
  for (float& v : *phi.mutable_data()) v = static_cast<float>(rng.Gaussian(0.0, 0.5));

  // Training mode, dropout on: per-(episode, call, lane) masks in both stages.
  net.SetTraining(true);
  net.ReseedDropout(3);
  Tensor loss = net.BatchLoss(batch, phi, valid);
  std::vector<Tensor> grads =
      tensor::autodiff::Grad(loss, nn::ParameterTensors(&net));
  Fnv1a grad_hash;
  for (const Tensor& g : grads) grad_hash.Add(g);
  EXPECT_EQ(Hash(loss), expected.loss);
  EXPECT_EQ(Hex(grad_hash.value()), expected.grads);
  EXPECT_EQ(Hash(net.TokenFeatures(batch, phi)), expected.features);

  // Inference mode: the uncached and cached decodes give the same tags.
  net.SetTraining(false);
  tensor::EvalMode eval;
  const models::CachedPrefix prefix = net.EncodePrefix(batch);
  EXPECT_EQ(prefix.runs.size(), 3u);
  EXPECT_EQ(Hash(net.DecodeBatch(batch, phi, valid)), expected.tags);
  EXPECT_EQ(Hash(net.DecodeBatchFromPrefix(prefix, phi, valid)), expected.tags);
}

TEST(GoldenTest, BackboneFilm) {
  CheckBackbone(models::Conditioning::kFilm,
                {"0x248fe355c8ae660b", "0x12e15d43fdc7fe5f", "0xfea471cb810f35bc",
                 "0xf16e73c824feb335"});
}

TEST(GoldenTest, BackboneConcat) {
  CheckBackbone(models::Conditioning::kConcat,
                {"0xac05d4a84eecadae", "0x8d771eade2fb355f", "0xf46ffe963b5fc9ab",
                 "0x44b63cea23b39434"});
}

/// A small synthetic corpus, vocabularies and a 3-way 2-shot sampler.
class GoldenMetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec;
    spec.name = "golden";
    spec.genre = "newswire";
    spec.num_types = 6;
    spec.num_sentences = 160;
    spec.mentions_per_sentence = 2.0;
    spec.seed = 9;
    corpus_ = data::GenerateCorpus(spec);
    text::VocabBuilder builder;
    for (const auto& sentence : corpus_.sentences) builder.AddSentence(sentence.tokens);
    words_ = builder.BuildWordVocab();
    chars_ = builder.BuildCharVocab();

    config_.word_vocab_size = words_.size();
    config_.char_vocab_size = chars_.size();
    config_.word_dim = 8;
    config_.char_dim = 5;
    config_.filters_per_width = 3;
    config_.hidden_dim = 6;
    config_.max_tags = text::NumTags(3);
    config_.context_dim = 5;
    config_.dropout = 0.2f;

    encoder_ = std::make_unique<models::EpisodeEncoder>(&words_, &chars_,
                                                        config_.max_tags);
    sampler_ = std::make_unique<data::EpisodeSampler>(
        &corpus_, corpus_.entity_types, 3, 2, 3, 21);

    train_config_.iterations = 2;
    train_config_.meta_batch = 2;
    train_config_.inner_steps_train = 2;
    train_config_.inner_steps_test = 3;
    train_config_.train_query_size = 2;
    train_config_.first_order = false;
  }

  data::Corpus corpus_;
  text::Vocab words_;
  text::Vocab chars_;
  models::BackboneConfig config_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  std::unique_ptr<data::EpisodeSampler> sampler_;
  meta::TrainConfig train_config_;
};

TEST_F(GoldenMetaTest, FewnerThetaAdaptedPhiAndTags) {
  constexpr const char* kTheta = "0xd535ac6feca7915e";
  for (int64_t threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << threads << " episode threads");
    util::Rng rng(2);
    meta::Fewner fewner(config_, &rng);
    meta::TrainConfig config = train_config_;
    config.num_threads = threads;
    fewner.Train(*sampler_, *encoder_, config);
    EXPECT_EQ(Hash(nn::SnapshotParameterValues(fewner.backbone())), kTheta);
    if (threads != 1) continue;

    const models::EncodedEpisode episode = encoder_->Encode(sampler_->Sample(500));
    const meta::AdaptedTagger tagger(&fewner, episode);
    EXPECT_EQ(Hash(tagger.phi()), "0xbd6f2d416b4681be");
    EXPECT_EQ(Hash(tagger.TagAll(episode.query)), "0x5b7bd6b96dc03383");
  }
}

TEST_F(GoldenMetaTest, LmCrfHeadAfterTraining) {
  util::Rng rng(4);
  models::LmConfig lm_config;
  lm_config.model_dim = 8;
  lm_config.num_layers = 1;
  lm_config.ffn_dim = 12;
  auto lm = std::make_shared<models::PretrainedLmEncoder>(
      models::LmKind::kGpt2, lm_config, &words_, &chars_, &rng);
  meta::LmCrfTagger tagger(lm, config_.max_tags, &rng);
  tagger.Train(*sampler_, *encoder_, train_config_);
  EXPECT_EQ(Hash(nn::SnapshotParameterValues(tagger.head())), "0x1eb0f5c8e37432ff");
}

}  // namespace
}  // namespace fewner
