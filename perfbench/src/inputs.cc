#include "perfbench/src/inputs.h"

#include <cstdio>
#include <cstring>

#include "data/synthetic.h"
#include "text/bio.h"
#include "util/rng.h"
#include "util/status.h"

namespace fewner::perfbench {

namespace {

// Independent input streams hang off the run seed.
constexpr uint64_t kCorpusStream = 0xC0;
constexpr uint64_t kModelStream = 0x7E7A;
constexpr uint64_t kTrainStream = 0x7A1;
constexpr uint64_t kAdaptStream = 0xADA;
constexpr uint64_t kServeStream = 0x5E5;

uint64_t Stream(uint64_t seed, uint64_t stream) {
  return util::Mix64(seed * 0x9E3779B97F4A7C15ull + stream);
}

data::Corpus MakeCorpus(const Profile& profile, uint64_t seed) {
  data::SyntheticSpec spec;
  spec.name = "perfbench";
  spec.genre = "newswire";
  spec.num_types = profile.num_types;
  spec.num_sentences = profile.corpus_sentences;
  spec.mentions_per_sentence = 2.0;
  spec.seed = Stream(seed, kCorpusStream);
  return data::GenerateCorpus(spec);
}

text::VocabBuilder Vocabulary(const data::Corpus& corpus) {
  text::VocabBuilder builder;
  for (const auto& sentence : corpus.sentences) builder.AddSentence(sentence.tokens);
  return builder;
}

}  // namespace

Profile PaperProfile() { return Profile{}; }

Profile SmokeProfile() {
  Profile p;
  p.word_dim = 16;
  p.char_dim = 8;
  p.filters_per_width = 4;
  p.hidden_dim = 16;
  p.context_dim = 32;
  p.corpus_sentences = 160;
  p.num_types = 8;
  p.adapt_steps = 3;
  p.adapt_tasks = 16;
  p.adapt_checked_tasks = 2;
  p.serve_pool = 32;
  p.serve_requests = 64;
  p.serve_warmup = 2;
  p.parity_iterations = 1;
  p.setup_repeats = 2;
  return p;
}

World::World(const Profile& profile, uint64_t seed)
    : profile_(profile),
      seed_(seed),
      corpus_(MakeCorpus(profile, seed)),
      words_(Vocabulary(corpus_).BuildWordVocab()),
      chars_(Vocabulary(corpus_).BuildCharVocab()) {
  config_.word_vocab_size = words_.size();
  config_.char_vocab_size = chars_.size();
  config_.word_dim = profile.word_dim;
  config_.char_dim = profile.char_dim;
  config_.filters_per_width = profile.filters_per_width;
  config_.hidden_dim = profile.hidden_dim;
  config_.context_dim = profile.context_dim;
  config_.conditioning = models::Conditioning::kFilm;
  config_.max_tags = text::NumTags(profile.n_way);
  encoder_ = std::make_unique<models::EpisodeEncoder>(&words_, &chars_,
                                                      config_.max_tags);
}

std::unique_ptr<meta::Fewner> World::NewModel() const {
  util::Rng rng(Stream(seed_, kModelStream));
  return std::make_unique<meta::Fewner>(config_, &rng);
}

data::EpisodeSampler World::TrainSampler() const {
  return data::EpisodeSampler(&corpus_, corpus_.entity_types, profile_.n_way,
                              profile_.k_shot, meta::TrainConfig{}.train_query_size,
                              Stream(seed_, kTrainStream));
}

std::vector<models::EncodedEpisode> World::AdaptTasks(int64_t count) const {
  data::EpisodeSampler sampler(&corpus_, corpus_.entity_types, profile_.n_way,
                               profile_.k_shot, profile_.adapt_queries,
                               Stream(seed_, kAdaptStream));
  std::vector<models::EncodedEpisode> tasks;
  tasks.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    tasks.push_back(encoder_->Encode(sampler.Sample(static_cast<uint64_t>(i))));
  }
  return tasks;
}

ServeInputs MakeServeInputs(const World& world) {
  const Profile& profile = world.profile();
  const data::Corpus& corpus = world.corpus();
  ServeInputs inputs;
  // The served tagger adapts to one task of its own stream (task 0).
  data::EpisodeSampler sampler(&corpus, corpus.entity_types, profile.n_way,
                               profile.k_shot, profile.adapt_queries,
                               Stream(world.seed(), kServeStream));
  const data::Episode episode = sampler.Sample(0);
  inputs.task = world.encoder().Encode(episode);

  util::Rng rng(Stream(world.seed(), kServeStream + 1));
  const uint64_t corpus_size = corpus.sentences.size();
  FEWNER_CHECK(corpus_size > 0, "empty corpus");
  inputs.pool.reserve(static_cast<size_t>(profile.serve_pool));
  for (int64_t i = 0; i < profile.serve_pool; ++i) {
    const data::Sentence& s = corpus.sentences[rng.UniformInt(corpus_size)];
    inputs.pool.push_back(world.encoder().EncodeSentence(s, episode.types));
  }
  inputs.requests.resize(static_cast<size_t>(profile.serve_requests));
  for (auto& request : inputs.requests) {
    const uint64_t size = 1 + rng.UniformInt(static_cast<uint64_t>(profile.max_request));
    for (uint64_t j = 0; j < size; ++j) {
      request.push_back(static_cast<int64_t>(rng.UniformInt(inputs.pool.size())));
    }
  }
  return inputs;
}

std::vector<models::EncodedSentence> Gather(const ServeInputs& inputs,
                                            const std::vector<int64_t>& request) {
  std::vector<models::EncodedSentence> sentences;
  sentences.reserve(request.size());
  for (int64_t i : request) sentences.push_back(inputs.pool[static_cast<size_t>(i)]);
  return sentences;
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(const std::vector<int64_t>& v) {
  Add(static_cast<uint64_t>(v.size()));
  for (int64_t x : v) Add(static_cast<uint64_t>(x));
}

void Fingerprint::Add(const std::vector<float>& v) {
  Add(static_cast<uint64_t>(v.size()));
  for (float x : v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(static_cast<uint64_t>(bits));
  }
}

void Fingerprint::Add(const models::EncodedSentence& s) {
  Add(s.word_ids);
  for (const auto& chars : s.char_ids) Add(chars);
  Add(s.tags);
}

void Fingerprint::Add(const models::EncodedEpisode& e) {
  Add(static_cast<uint64_t>(e.n_way));
  for (const auto& s : e.support) Add(s);
  for (const auto& s : e.query) Add(s);
  for (bool b : e.valid_tags) Add(static_cast<uint64_t>(b));
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace fewner::perfbench
