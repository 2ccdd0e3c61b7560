// Seeded inputs for the three workloads.
//
// Everything a run feeds the program derives from (profile, seed): a
// synthetic newswire corpus, its vocabularies, the backbone's initial θ, the
// 5-way 5-shot episodes and the serving requests.  The program under test
// sees only these generated inputs.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/episode_sampler.h"
#include "meta/fewner.h"
#include "models/backbone.h"
#include "models/encoding.h"
#include "text/vocab.h"

namespace fewner::perfbench {

/// Model and input sizes of one benchmark profile.
struct Profile {
  // Backbone (paper: word 300, char 100, 3x50 CharCNN filters, BiGRU 128,
  // |φ| = 256 with FiLM).
  int64_t word_dim = 300;
  int64_t char_dim = 100;
  int64_t filters_per_width = 50;
  int64_t hidden_dim = 128;
  int64_t context_dim = 256;
  // Corpus and episodes.
  int64_t corpus_sentences = 400;
  int64_t num_types = 10;
  int64_t n_way = 5;
  int64_t k_shot = 5;
  // adapt_5shot: test-time inner loop and the distinct task stream.
  int64_t adapt_queries = 6;
  int64_t adapt_steps = 10;
  float adapt_lr = 0.2f;
  int64_t adapt_tasks = 256;       ///< generated per run, cycled if exhausted
  int64_t adapt_checked_tasks = 4; ///< seeded sample re-derived uncached
  // serve_docs: request pool.
  int64_t serve_pool = 256;        ///< distinct corpus sentences served
  int64_t serve_requests = 4096;   ///< generated per run, cycled if exhausted
  int64_t max_request = 8;         ///< sentences per request, uniform in [1, max]
  int64_t serve_warmup = 8;        ///< untimed requests during setup
  // meta_train.
  int64_t train_workers = 2;       ///< TrainConfig::num_threads
  int64_t parity_iterations = 2;   ///< 1-worker vs 2-worker check length
  // Set-up is repeated this often per run; setup_s is the median.
  int64_t setup_repeats = 9;
};

Profile PaperProfile();
/// Toy dimensions for the benchmark's own tests.
Profile SmokeProfile();

/// The seeded corpus, vocabularies and encoder of one run.  Not movable: the
/// encoder points at the vocabularies.
class World {
 public:
  World(const Profile& profile, uint64_t seed);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const Profile& profile() const { return profile_; }
  uint64_t seed() const { return seed_; }
  const data::Corpus& corpus() const { return corpus_; }
  const models::EpisodeEncoder& encoder() const { return *encoder_; }
  const models::BackboneConfig& config() const { return config_; }

  /// A FEWNER model with seeded initial θ; every call gives the same θ.
  std::unique_ptr<meta::Fewner> NewModel() const;

  /// The meta-training task source (5-way 5-shot, train-sized queries).
  data::EpisodeSampler TrainSampler() const;

  /// `count` distinct encoded 5-way 5-shot test tasks with
  /// `adapt_queries` query sentences each.
  std::vector<models::EncodedEpisode> AdaptTasks(int64_t count) const;

 private:
  Profile profile_;
  uint64_t seed_;
  data::Corpus corpus_;
  text::Vocab words_;
  text::Vocab chars_;
  std::unique_ptr<models::EpisodeEncoder> encoder_;
  models::BackboneConfig config_;
};

/// serve_docs inputs: the task the served tagger adapts to, a pool of corpus
/// sentences encoded under that task, and requests as pool indices.
struct ServeInputs {
  models::EncodedEpisode task;
  std::vector<models::EncodedSentence> pool;
  std::vector<std::vector<int64_t>> requests;
};
ServeInputs MakeServeInputs(const World& world);

/// The sentences of one request, in request order.
std::vector<models::EncodedSentence> Gather(const ServeInputs& inputs,
                                            const std::vector<int64_t>& request);

/// FNV-1a accumulator for input and output fingerprints.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(const std::vector<int64_t>& v);
  void Add(const std::vector<float>& v);  ///< bit patterns, not values
  void Add(const models::EncodedSentence& s);
  void Add(const models::EncodedEpisode& e);
  uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace fewner::perfbench
