// Matching Network baseline (Vinyals et al. 2016, the paper's reference [50]
// that defined the N-way K-shot setting): metric-based few-shot classification
// at the token level.  A query token's label distribution is the
// cosine-similarity-weighted vote over ALL support tokens' labels — unlike
// ProtoNet there is no class averaging, and unlike SNAIL no temporal
// convolution or learned read-out.  An extension beyond the paper's baseline
// set (see bench/extension_methods).

#pragma once

#include "meta/backbone_method.h"
#include "models/backbone.h"
#include "util/rng.h"

namespace fewner::meta {

/// Token-level matching network.
class MatchingNet : public BackboneMethod {
 public:
  MatchingNet(const models::BackboneConfig& config, util::Rng* rng);

  std::string name() const override { return "MatchingNet"; }

  std::vector<std::vector<int64_t>> AdaptAndPredict(
      const models::EncodedEpisode& episode) override;

 private:
  void Fit(const data::EpisodeSampler& sampler, const models::EpisodeEncoder& encoder,
           const TrainConfig& config) override;

  // The forward helpers take the backbone explicitly so the episode-parallel
  // trainer can run them against per-worker replicas.

  /// L2-normalized encoder features of every token of `batch`, [T, D].
  static tensor::Tensor NormalizedFeatures(const models::Backbone& net,
                                           const models::EncodedBatch& batch);

  /// Log label distribution [T, max_tags] for every query token of
  /// `episode`, voted by all its support tokens; `query` receives the packed
  /// query set (the row order).
  tensor::Tensor QueryLogProbs(const models::Backbone& net,
                               const models::EncodedEpisode& episode,
                               models::EncodedBatch* query) const;

  tensor::Tensor EpisodeLoss(const models::Backbone& net,
                             const models::EncodedEpisode& episode) const;

  float temperature_ = 10.0f;  ///< sharpness of the cosine attention
};

}  // namespace fewner::meta
