// SNAIL baseline (Mishra et al. 2018, paper §4.1.2): a meta-learner combining
// temporal convolutions (to aggregate experience) with attention (to pinpoint
// specific pieces of it).
//
// Adaptation to sequence labeling (documented simplification, see DESIGN.md):
// token features from the shared CNN-BiGRU encoder are enriched with a stack
// of dilated causal convolutions (the TC blocks); each query token then
// attends over ALL support tokens, whose values are their BIO label one-hots.
// The attention read-out is a label distribution; training maximizes the gold
// label's log-probability.  Like ProtoNet there is no gradient-based
// adaptation at test time — the "fast weights" are the attention reads.

#pragma once

#include <memory>

#include "meta/method.h"
#include "models/backbone.h"
#include "nn/attention.h"
#include "util/rng.h"

namespace fewner::meta {

/// TC-plus-attention meta-learner.
class Snail : public FewShotMethod {
 public:
  Snail(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "SNAIL"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

  /// Encoder backbone + TC blocks + attention projections, as one module so
  /// the optimizer sees every parameter.
  class Model : public nn::Module {
   public:
    Model(const models::BackboneConfig& config, util::Rng* rng);

    std::unique_ptr<models::Backbone> backbone;
    std::unique_ptr<nn::DilatedCausalConv> tc1;
    std::unique_ptr<nn::DilatedCausalConv> tc2;
    std::unique_ptr<nn::Linear> key_proj;
    std::unique_ptr<nn::Linear> query_proj;
    /// Final classifier over [token features ; attention label read-out] — the
    /// SNAIL output layer that can re-weight the read against class priors.
    std::unique_ptr<nn::Linear> classifier;
    int64_t tc_dim = 0;
    int64_t attn_dim = 0;
  };

  Model* model() { return model_.get(); }

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;

  // The forward helpers take the model explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// Encoder features + TC enrichment for every token of `batch`:
  /// [T, tc_dim].
  static tensor::Tensor Enrich(const Model& m, const models::EncodedBatch& batch);

  /// Per-token log label distribution [T, max_tags] for every query token of
  /// `episode`, attending over all its support tokens; `query` receives the
  /// packed query set (the row order).
  static tensor::Tensor QueryLogProbs(const Model& m,
                                      const models::EncodedEpisode& episode,
                                      models::EncodedBatch* query);

  static tensor::Tensor EpisodeLoss(const Model& m,
                                    const models::EncodedEpisode& episode);

  std::unique_ptr<Model> model_;
};

}  // namespace fewner::meta
